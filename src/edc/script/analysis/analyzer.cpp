#include "edc/script/analysis/analyzer.h"

#include <algorithm>
#include <utility>

#include "edc/common/strings.h"
#include "edc/script/analysis/cfg.h"
#include "edc/script/analysis/cost.h"
#include "edc/script/analysis/dataflow.h"
#include "edc/script/analysis/determinism.h"

namespace edc {

namespace {

void Add(std::vector<Diagnostic>* diags, const char* code, Severity sev, int line,
         int col, const std::string& handler, std::string message) {
  diags->push_back(Diagnostic{code, sev, line, col, handler, std::move(message)});
}

// Structural walk: statement budget (shared across handlers), nesting depth,
// and the callable white list. Mirrors the legacy BodyChecker but reports
// real source positions (a nesting violation on an empty block points at the
// enclosing statement, not line 0) and accumulates instead of stopping.
class StructureChecker {
 public:
  StructureChecker(const VerifierConfig& config, size_t* statement_count,
                   std::vector<Diagnostic>* diags)
      : config_(config), statement_count_(statement_count), diags_(diags) {}

  void CheckHandler(const Handler& handler) {
    handler_ = handler.name;
    CheckBlock(handler.body, 1, handler.line, handler.col);
  }

 private:
  void CheckBlock(const Block& block, size_t depth, int at_line, int at_col) {
    if (depth > config_.max_nesting_depth) {
      int line = block.empty() ? at_line : block.front()->line;
      int col = block.empty() ? at_col : block.front()->col;
      Add(diags_, kDiagNestingTooDeep, Severity::kError, line, col, handler_,
          "nesting too deep (max " + std::to_string(config_.max_nesting_depth) +
              ") in handler '" + handler_ + "'");
      return;  // no point walking deeper
    }
    for (const StmtPtr& stmt : block) {
      CheckStmt(*stmt, depth);
    }
  }

  void CheckStmt(const Stmt& stmt, size_t depth) {
    ++*statement_count_;
    if (*statement_count_ == config_.max_statements + 1) {
      Add(diags_, kDiagTooManyStatements, Severity::kError, stmt.line, stmt.col,
          handler_,
          "too many statements (max " + std::to_string(config_.max_statements) +
              ") in handler '" + handler_ + "'");
    }
    switch (stmt.kind) {
      case Stmt::Kind::kLet:
      case Stmt::Kind::kAssign:
      case Stmt::Kind::kExpr:
        CheckExpr(*stmt.expr);
        return;
      case Stmt::Kind::kReturn:
        if (stmt.expr) {
          CheckExpr(*stmt.expr);
        }
        return;
      case Stmt::Kind::kIf:
        CheckExpr(*stmt.expr);
        CheckBlock(stmt.body, depth + 1, stmt.line, stmt.col);
        CheckBlock(stmt.else_body, depth + 1, stmt.line, stmt.col);
        return;
      case Stmt::Kind::kForEach:
        CheckExpr(*stmt.expr);
        CheckBlock(stmt.body, depth + 1, stmt.line, stmt.col);
        return;
    }
  }

  void CheckExpr(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kVar:
        return;
      case Expr::Kind::kUnary:
        CheckExpr(*expr.lhs);
        return;
      case Expr::Kind::kBinary:
      case Expr::Kind::kIndex:
        CheckExpr(*expr.lhs);
        CheckExpr(*expr.rhs);
        return;
      case Expr::Kind::kCall: {
        if (config_.allowed_functions.count(expr.name) == 0) {
          Add(diags_, kDiagNotWhitelisted, Severity::kError, expr.line, expr.col,
              handler_,
              "call to function '" + expr.name + "' outside the white list in handler '" +
                  handler_ + "'");
        }
        for (const ExprPtr& arg : expr.args) {
          CheckExpr(*arg);
        }
        return;
      }
      case Expr::Kind::kListLit:
        for (const ExprPtr& item : expr.args) {
          CheckExpr(*item);
        }
        return;
    }
  }

  const VerifierConfig& config_;
  size_t* statement_count_;
  std::vector<Diagnostic>* diags_;
  std::string handler_;
};

int LastHandlerLine(const Program& program) {
  int line = 1;
  for (const auto& [name, handler] : program.handlers) {
    line = std::max(line, handler.line);
  }
  return line;
}

}  // namespace

const Diagnostic* AnalysisReport::first_error() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) {
      return &d;
    }
  }
  return nullptr;
}

AnalysisReport AnalyzeProgram(const Program& program, const VerifierConfig& config) {
  AnalysisReport report;
  std::vector<Diagnostic>& diags = report.diagnostics;

  // ---- Program-level structure ----
  if (program.source_bytes > config.max_source_bytes) {
    Add(&diags, kDiagSourceTooLarge, Severity::kError, 1, 1, "",
        "source exceeds " + std::to_string(config.max_source_bytes) + " bytes");
  }
  if (program.handlers.size() > config.max_handlers) {
    Add(&diags, kDiagTooManyHandlers, Severity::kError, LastHandlerLine(program), 1, "",
        "too many handlers (max " + std::to_string(config.max_handlers) + ")");
  }
  if (program.subscriptions.size() > config.max_subscriptions) {
    const Subscription& last = program.subscriptions.back();
    Add(&diags, kDiagTooManySubscriptions, Severity::kError, last.line, last.col, "",
        "too many subscriptions (max " + std::to_string(config.max_subscriptions) + ")");
  }
  if (program.subscriptions.empty()) {
    Add(&diags, kDiagNoSubscriptions, Severity::kError, 1, 1, "",
        "extension declares no subscriptions");
  }
  for (const Subscription& sub : program.subscriptions) {
    if (sub.is_event ? !IsKnownEventKind(sub.kind) : !IsKnownOpKind(sub.kind)) {
      Add(&diags, kDiagUnknownKind, Severity::kError, sub.line, sub.col, "",
          "unknown " + std::string(sub.is_event ? "event" : "op") + " kind '" +
              sub.kind + "'");
    }
    const std::string& p = sub.pattern;
    if (p != "/" && !ValidatePath(p).ok()) {
      Add(&diags, kDiagBadPattern, Severity::kError, sub.line, sub.col, "",
          "invalid subscription pattern '" + p + "'");
    }
  }

  // ---- Per-handler passes ----
  DomainContext cost_ctx;
  cost_ctx.max_value_bytes = static_cast<int64_t>(config.limits.max_value_bytes);
  cost_ctx.max_input_bytes = static_cast<int64_t>(config.limits.max_input_bytes);
  cost_ctx.collection_cap = static_cast<int64_t>(config.limits.max_collection_items);
  cost_ctx.collection_functions = &config.collection_functions;

  DeterminismContext det_ctx;
  det_ctx.allowed_functions = &config.allowed_functions;
  det_ctx.read_only_functions = config.read_only_functions.empty()
                                    ? DefaultReadOnlyFunctions()
                                    : config.read_only_functions;
  det_ctx.enforce = config.require_deterministic;

  size_t statements = 0;
  for (const auto& [name, handler] : program.handlers) {
    if (!IsKnownOpHandler(name) && !IsKnownEventHandler(name)) {
      Add(&diags, kDiagUnknownEntryPoint, Severity::kError, handler.line, handler.col,
          name, "unknown handler entry point '" + name + "'");
    }

    StructureChecker structure(config, &statements, &diags);
    structure.CheckHandler(handler);

    ResolvedNames names = ResolveNames(handler);
    diags.insert(diags.end(), names.diags.begin(), names.diags.end());

    Cfg cfg = BuildCfg(handler);
    diags.insert(diags.end(), cfg.diags.begin(), cfg.diags.end());
    RunDataflowChecks(handler, cfg, names, &diags);

    HandlerReport hr;
    CostResult cost = BoundHandlerCost(handler, cost_ctx);
    diags.insert(diags.end(), cost.diags.begin(), cost.diags.end());
    hr.cost_bounded = cost.bounded;
    hr.step_bound = cost.steps;
    hr.certified = cost.bounded && cost.steps <= config.limits.max_steps;
    if (!cost.bounded) {
      Add(&diags, kDiagCostUnbounded, Severity::kWarning, handler.line, handler.col,
          name,
          "worst-case step cost of handler '" + name +
              "' is unbounded (loop over a collection with no static bound); "
              "it is not certified");
    } else if (!hr.certified) {
      Add(&diags, kDiagCostOverBudget, Severity::kWarning, handler.line, handler.col,
          name,
          "worst-case step bound " + std::to_string(cost.steps) + " of handler '" +
              name + "' exceeds the execution budget " +
              std::to_string(config.limits.max_steps) + "; it is not certified");
    }

    DeterminismResult det = CheckDeterminism(handler, det_ctx);
    hr.deterministic = det.deterministic;
    diags.insert(diags.end(), det.diags.begin(), det.diags.end());

    report.handlers.emplace(name, hr);
  }

  // ---- Subscriptions need a handler able to serve them ----
  bool has_op_handler = false;
  bool has_event_handler = false;
  for (const auto& [name, handler] : program.handlers) {
    (void)handler;
    has_op_handler = has_op_handler || IsKnownOpHandler(name);
    has_event_handler = has_event_handler || IsKnownEventHandler(name);
  }
  for (const Subscription& sub : program.subscriptions) {
    if (sub.is_event && !has_event_handler) {
      Add(&diags, kDiagSubWithoutHandler, Severity::kError, sub.line, sub.col, "",
          "event subscription ('" + sub.kind + "' on '" + sub.pattern +
              "') without an event handler");
    }
    if (!sub.is_event && !has_op_handler) {
      Add(&diags, kDiagSubWithoutHandler, Severity::kError, sub.line, sub.col, "",
          "op subscription ('" + sub.kind + "' on '" + sub.pattern +
              "') without an op handler");
    }
  }

  SortDiagnostics(&diags);
  return report;
}

Status ToVerifierStatus(const AnalysisReport& report) {
  const Diagnostic* err = report.first_error();
  if (err == nullptr) {
    return Status::Ok();
  }
  return Status(ErrorCode::kExtensionRejected,
                "verification failed at line " + std::to_string(err->line) + ": " +
                    err->message + " [" + err->code + "]");
}

}  // namespace edc
