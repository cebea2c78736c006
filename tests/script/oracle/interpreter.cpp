#include "script/oracle/interpreter.h"

#include <utility>

#include "edc/script/builtins.h"

namespace edc {

namespace {

Status RuntimeError(int line, const std::string& what) {
  return Status(ErrorCode::kExtensionError,
                "runtime error at line " + std::to_string(line) + ": " + what);
}

}  // namespace

Status Interpreter::StepLimitError(int line) const {
  return Status(ErrorCode::kExtensionLimit,
                "step budget exceeded at line " + std::to_string(line));
}

Status Interpreter::CheckSize(const Value& v, int line) {
  if (v.ApproxSize() > limits_.max_value_bytes) {
    return Status(ErrorCode::kExtensionLimit,
                  "value size limit exceeded at line " + std::to_string(line));
  }
  return Status::Ok();
}

Status Interpreter::CheckHostResult(const Value& v, int line) {
  if (auto s = CheckSize(v, line); !s.ok()) {
    return s;
  }
  // Element-wise ingest cap: list results admit each element up to
  // max_input_bytes (the list itself is governed by max_value_bytes and the
  // host-side collection cap); any other result must fit entirely. This is
  // the runtime contract behind the analyzer's input seeding
  // (docs/static_analysis.md) — without it no split()-heavy loop could ever
  // have a finite certified bound.
  if (v.is_list()) {
    for (const Value& item : v.AsList()) {
      if (item.ApproxSize() > limits_.max_input_bytes) {
        return Status(ErrorCode::kExtensionLimit,
                      "value size limit exceeded at line " + std::to_string(line));
      }
    }
    return Status::Ok();
  }
  if (v.ApproxSize() > limits_.max_input_bytes) {
    return Status(ErrorCode::kExtensionLimit,
                  "value size limit exceeded at line " + std::to_string(line));
  }
  return Status::Ok();
}

Status Interpreter::CheckBuiltinResult(const Value& v, int line) {
  if (auto s = CheckSize(v, line); !s.ok()) {
    return s;
  }
  // Builtins that return lists (split, append, keys, sort_by) obey the
  // collection cap; the cardinality transfer functions in
  // analysis/domains.cpp assume this check exists.
  if (v.is_list() && v.AsList().size() > limits_.max_collection_items) {
    return Status(ErrorCode::kExtensionLimit,
                  "collection size limit exceeded at line " + std::to_string(line));
  }
  return Status::Ok();
}

Value* Interpreter::FindVar(const std::string& name) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) {
      return &found->second;
    }
  }
  return nullptr;
}

Result<Value> Interpreter::Invoke(const std::string& name, std::vector<Value> args) {
  auto it = program_->handlers.find(name);
  if (it == program_->handlers.end()) {
    return Status(ErrorCode::kExtensionError, "no handler '" + name + "'");
  }
  const Handler& handler = it->second;
  scopes_.clear();
  scopes_.emplace_back();
  for (size_t i = 0; i < handler.params.size(); ++i) {
    scopes_.back()[handler.params[i]] = i < args.size() ? std::move(args[i]) : Value();
  }
  auto flow = ExecBlock(handler.body);
  if (!flow.ok()) {
    return flow.status();
  }
  return flow->kind == FlowKind::kReturn ? std::move(flow->value) : Value();
}

Result<Interpreter::Flow> Interpreter::ExecBlock(const Block& block) {
  scopes_.emplace_back();
  for (const StmtPtr& stmt : block) {
    auto flow = ExecStmt(*stmt);
    if (!flow.ok() || flow->kind == FlowKind::kReturn) {
      scopes_.pop_back();
      return flow;
    }
  }
  scopes_.pop_back();
  return Flow{};
}

Result<Interpreter::Flow> Interpreter::ExecStmt(const Stmt& stmt) {
  if (!StepOk()) {
    return StepLimitError(stmt.line);
  }
  switch (stmt.kind) {
    case Stmt::Kind::kLet: {
      auto v = Eval(*stmt.expr);
      if (!v.ok()) {
        return v.status();
      }
      scopes_.back()[stmt.name] = std::move(*v);
      return Flow{};
    }
    case Stmt::Kind::kAssign: {
      auto v = Eval(*stmt.expr);
      if (!v.ok()) {
        return v.status();
      }
      Value* slot = FindVar(stmt.name);
      if (slot == nullptr) {
        return RuntimeError(stmt.line, "assignment to undeclared variable '" + stmt.name + "'");
      }
      *slot = std::move(*v);
      return Flow{};
    }
    case Stmt::Kind::kIf: {
      auto cond = Eval(*stmt.expr);
      if (!cond.ok()) {
        return cond.status();
      }
      return cond->Truthy() ? ExecBlock(stmt.body) : ExecBlock(stmt.else_body);
    }
    case Stmt::Kind::kForEach: {
      auto list = Eval(*stmt.expr);
      if (!list.ok()) {
        return list.status();
      }
      if (!list->is_list()) {
        return RuntimeError(stmt.line, "foreach over non-list value");
      }
      // Lists are immutable; iterating the shared snapshot is safe even if
      // the body rebinds the source variable.
      Value snapshot = *list;
      for (const Value& item : snapshot.AsList()) {
        scopes_.emplace_back();
        scopes_.back()[stmt.name] = item;
        auto flow = ExecBlock(stmt.body);
        scopes_.pop_back();
        if (!flow.ok() || flow->kind == FlowKind::kReturn) {
          return flow;
        }
      }
      return Flow{};
    }
    case Stmt::Kind::kReturn: {
      Flow flow;
      flow.kind = FlowKind::kReturn;
      if (stmt.expr) {
        auto v = Eval(*stmt.expr);
        if (!v.ok()) {
          return v.status();
        }
        flow.value = std::move(*v);
      }
      return flow;
    }
    case Stmt::Kind::kExpr: {
      auto v = Eval(*stmt.expr);
      if (!v.ok()) {
        return v.status();
      }
      return Flow{};
    }
  }
  return Flow{};
}

Result<Value> Interpreter::Eval(const Expr& expr) {
  if (!StepOk()) {
    return StepLimitError(expr.line);
  }
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kVar: {
      Value* slot = FindVar(expr.name);
      if (slot == nullptr) {
        return RuntimeError(expr.line, "undeclared variable '" + expr.name + "'");
      }
      return *slot;
    }
    case Expr::Kind::kUnary: {
      auto v = Eval(*expr.lhs);
      if (!v.ok()) {
        return v;
      }
      if (expr.unary_op == UnaryOp::kNot) {
        return Value(!v->Truthy());
      }
      if (!v->is_int()) {
        return RuntimeError(expr.line, "unary '-' on non-int");
      }
      // Wrap-around via unsigned arithmetic; no UB on INT64_MIN (which
      // negates to itself), matching binary sub/mul/add.
      return Value(static_cast<int64_t>(0 - static_cast<uint64_t>(v->AsInt())));
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr);
    case Expr::Kind::kIndex: {
      auto base = Eval(*expr.lhs);
      if (!base.ok()) {
        return base;
      }
      auto idx = Eval(*expr.rhs);
      if (!idx.ok()) {
        return idx;
      }
      if (base->is_list()) {
        if (!idx->is_int()) {
          return RuntimeError(expr.line, "list index must be int");
        }
        int64_t i = idx->AsInt();
        const ValueList& list = base->AsList();
        if (i < 0 || static_cast<size_t>(i) >= list.size()) {
          return RuntimeError(expr.line, "list index out of range");
        }
        return list[static_cast<size_t>(i)];
      }
      if (base->is_map()) {
        if (!idx->is_str()) {
          return RuntimeError(expr.line, "map key must be str");
        }
        auto it = base->AsMap().find(idx->AsStr());
        return it == base->AsMap().end() ? Value() : it->second;
      }
      if (base->is_str()) {
        if (!idx->is_int()) {
          return RuntimeError(expr.line, "string index must be int");
        }
        int64_t i = idx->AsInt();
        const std::string& s = base->AsStr();
        if (i < 0 || static_cast<size_t>(i) >= s.size()) {
          return RuntimeError(expr.line, "string index out of range");
        }
        return Value(std::string(1, s[static_cast<size_t>(i)]));
      }
      return RuntimeError(expr.line, "indexing non-collection value");
    }
    case Expr::Kind::kCall:
      return EvalCall(expr);
    case Expr::Kind::kListLit: {
      ValueList items;
      items.reserve(expr.args.size());
      for (const ExprPtr& item : expr.args) {
        auto v = Eval(*item);
        if (!v.ok()) {
          return v;
        }
        items.push_back(std::move(*v));
      }
      Value out = Value::List(std::move(items));
      if (auto s = CheckSize(out, expr.line); !s.ok()) {
        return s;
      }
      return out;
    }
  }
  return RuntimeError(expr.line, "unreachable expression kind");
}

Result<Value> Interpreter::EvalBinary(const Expr& expr) {
  // Short-circuit logical operators.
  if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
    auto lhs = Eval(*expr.lhs);
    if (!lhs.ok()) {
      return lhs;
    }
    bool lt = lhs->Truthy();
    if (expr.binary_op == BinaryOp::kAnd && !lt) {
      return Value(false);
    }
    if (expr.binary_op == BinaryOp::kOr && lt) {
      return Value(true);
    }
    auto rhs = Eval(*expr.rhs);
    if (!rhs.ok()) {
      return rhs;
    }
    return Value(rhs->Truthy());
  }

  auto lhs = Eval(*expr.lhs);
  if (!lhs.ok()) {
    return lhs;
  }
  auto rhs = Eval(*expr.rhs);
  if (!rhs.ok()) {
    return rhs;
  }
  const Value& a = *lhs;
  const Value& b = *rhs;

  switch (expr.binary_op) {
    case BinaryOp::kAdd: {
      if (a.is_str() || b.is_str()) {
        Value out(a.ToString() + b.ToString());
        if (auto s = CheckSize(out, expr.line); !s.ok()) {
          return s;
        }
        return out;
      }
      if (a.is_int() && b.is_int()) {
        // Wrap-around via unsigned arithmetic; no UB.
        return Value(static_cast<int64_t>(static_cast<uint64_t>(a.AsInt()) +
                                          static_cast<uint64_t>(b.AsInt())));
      }
      return RuntimeError(expr.line, "'+' needs int+int or str operands");
    }
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (!a.is_int() || !b.is_int()) {
        return RuntimeError(expr.line, "arithmetic on non-int operands");
      }
      uint64_t ua = static_cast<uint64_t>(a.AsInt());
      uint64_t ub = static_cast<uint64_t>(b.AsInt());
      switch (expr.binary_op) {
        case BinaryOp::kSub:
          return Value(static_cast<int64_t>(ua - ub));
        case BinaryOp::kMul:
          return Value(static_cast<int64_t>(ua * ub));
        case BinaryOp::kDiv:
          if (b.AsInt() == 0) {
            return RuntimeError(expr.line, "division by zero");
          }
          if (a.AsInt() == INT64_MIN && b.AsInt() == -1) {
            return RuntimeError(expr.line, "division overflow");
          }
          return Value(a.AsInt() / b.AsInt());
        default:
          if (b.AsInt() == 0) {
            return RuntimeError(expr.line, "modulo by zero");
          }
          if (a.AsInt() == INT64_MIN && b.AsInt() == -1) {
            return RuntimeError(expr.line, "modulo overflow");
          }
          return Value(a.AsInt() % b.AsInt());
      }
    }
    case BinaryOp::kEq:
      return Value(a.Equals(b));
    case BinaryOp::kNe:
      return Value(!a.Equals(b));
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      int cmp = 0;
      if (a.is_int() && b.is_int()) {
        cmp = a.AsInt() < b.AsInt() ? -1 : (a.AsInt() > b.AsInt() ? 1 : 0);
      } else if (a.is_str() && b.is_str()) {
        int c = a.AsStr().compare(b.AsStr());
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        return RuntimeError(expr.line, "ordering comparison on mixed types");
      }
      switch (expr.binary_op) {
        case BinaryOp::kLt:
          return Value(cmp < 0);
        case BinaryOp::kLe:
          return Value(cmp <= 0);
        case BinaryOp::kGt:
          return Value(cmp > 0);
        default:
          return Value(cmp >= 0);
      }
    }
    default:
      return RuntimeError(expr.line, "unreachable operator");
  }
}

Result<Value> Interpreter::EvalCall(const Expr& expr) {
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& arg : expr.args) {
    auto v = Eval(*arg);
    if (!v.ok()) {
      return v;
    }
    args.push_back(std::move(*v));
  }
  const auto& builtins = CoreBuiltins();
  auto it = builtins.find(expr.name);
  if (it != builtins.end()) {
    auto out = it->second.fn(args);
    if (!out.ok()) {
      return out;
    }
    if (auto s = CheckBuiltinResult(*out, expr.line); !s.ok()) {
      return s;
    }
    return out;
  }
  if (host_ != nullptr && host_->HasFunction(expr.name)) {
    auto out = host_->Call(expr.name, args);
    if (!out.ok()) {
      return out;
    }
    // Host results obey max_value_bytes exactly like builtin results, plus
    // the element-wise ingest cap: a binding must not be able to materialize
    // values past the sandbox limits the analyzer assumed.
    if (auto s = CheckHostResult(*out, expr.line); !s.ok()) {
      return s;
    }
    return out;
  }
  return RuntimeError(expr.line, "unknown function '" + expr.name + "'");
}

}  // namespace edc
