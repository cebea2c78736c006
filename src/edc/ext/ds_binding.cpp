#include "edc/ext/ds_binding.h"

#include <utility>

#include "edc/common/logging.h"
#include "edc/common/strings.h"
#include "edc/script/builtins.h"
#include "edc/script/parser.h"

namespace edc {

namespace {

constexpr char kEmRoot[] = "/em";
constexpr Duration kMonitorLease = Seconds(2);

// EDS service-API white list: strictly deterministic (§4.1.1).
const std::map<std::string, bool>& DsHostFunctions() {
  static const auto* kFns = new std::map<std::string, bool>{
      {"create", true},        {"create_ephemeral", true}, {"delete_object", true},
      {"update", true},        {"cas", true},              {"read_object", true},
      {"exists", true},        {"children", true},         {"sub_objects", true},
      {"block", true},         {"monitor", true},          {"client_id", true},
  };
  return *kFns;
}

Status HostArity(const std::string& name, const std::vector<Value>& args, size_t n) {
  if (args.size() != n) {
    return ScriptError(name + " expects " + std::to_string(n) + " argument(s)");
  }
  return Status::Ok();
}

Status HostWantStr(const std::string& name, const Value& v) {
  if (!v.is_str()) {
    return ScriptError(name + ": expected str argument");
  }
  return Status::Ok();
}

std::string TuplePath(const DsTuple& tuple) {
  if (!tuple.empty() && std::holds_alternative<std::string>(tuple[0])) {
    return std::get<std::string>(tuple[0]);
  }
  return "";
}

Value EntryToValue(const DsEntry& entry) {
  std::string data;
  if (entry.tuple.size() > 1) {
    data = FieldToString(entry.tuple[1]);
  }
  return Value::Map({{"path", Value(TuplePath(entry.tuple))},
                     {"data", Value(std::move(data))},
                     {"ctime", Value(entry.ctime)},
                     {"owner", Value(static_cast<int64_t>(entry.owner))}});
}

// State proxy over a DsExecContext: access control is enforced by the upper
// layers the context calls through (Fig. 4), plus sandbox resource budgets.
class DsScriptHost : public ScriptHost {
 public:
  DsScriptHost(DsExecContext* ctx, const ExtensionLimits& limits)
      : ctx_(ctx), limits_(limits) {}

  bool blocked() const { return blocked_; }

  bool HasFunction(const std::string& name) const override {
    return DsHostFunctions().count(name) > 0;
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    if (name == "client_id") {
      return Value(std::to_string(ctx_->client()));
    }
    if (ctx_->state_ops() >= limits_.max_state_ops) {
      return Status(ErrorCode::kExtensionLimit, "state-operation budget exceeded");
    }
    if (name == "read_object") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      auto entries = ctx_->RdAll(ObjectTemplate(args[0].AsStr()));
      if (entries.empty()) {
        return Value();
      }
      return EntryToValue(entries.front());
    }
    if (name == "exists") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      return Value(!ctx_->RdAll(ObjectTemplate(args[0].AsStr())).empty());
    }
    if (name == "sub_objects") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      // Collection cap (§4.1.2): the static cost pass bounds foreach loops
      // over these results by max_collection_items, so the runtime must
      // never hand back more.
      ValueList objs;
      for (const DsEntry& e : ctx_->RdAll(ObjectPrefixTemplate(args[0].AsStr()))) {
        if (objs.size() >= limits_.max_collection_items) {
          break;
        }
        objs.push_back(EntryToValue(e));
      }
      return Value::List(std::move(objs));
    }
    if (name == "children") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      const std::string& parent = args[0].AsStr();
      ValueList names;
      for (const DsEntry& e : ctx_->RdAll(ObjectPrefixTemplate(parent))) {
        if (names.size() >= limits_.max_collection_items) {
          break;
        }
        std::string path = TuplePath(e.tuple);
        if (ParentPath(path) == parent) {
          names.emplace_back(BaseName(path));
        }
      }
      return Value::List(std::move(names));
    }
    if (name == "create" || name == "create_ephemeral" || name == "monitor") {
      bool is_monitor = name == "monitor";
      if (auto s = HostArity(name, args, 2); !s.ok()) {
        return s;
      }
      const size_t path_arg = is_monitor ? 1 : 0;
      if (auto s = HostWantStr(name, args[path_arg]); !s.ok()) {
        return s;
      }
      if (auto s = CheckCreateBudget(); !s.ok()) {
        return s;
      }
      const std::string& path = args[path_arg].AsStr();
      if (PathIsUnder(path, kEmRoot)) {
        return ScriptError("extensions may not touch the /em namespace");
      }
      std::string data = args[is_monitor ? 0 : 1].ToString();
      Duration lease =
          (name == "create_ephemeral" || is_monitor) ? kMonitorLease : Duration{0};
      Status s = ctx_->Cas(ObjectTemplate(path), ObjectTuple(path, data), lease);
      if (!s.ok()) {
        return ScriptError(s.ToString());
      }
      ++created_;
      return Value(path);
    }
    if (name == "delete_object") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      if (PathIsUnder(args[0].AsStr(), kEmRoot)) {
        return ScriptError("extensions may not touch the /em namespace");
      }
      auto removed = ctx_->Inp(ObjectTemplate(args[0].AsStr()));
      if (!removed.ok()) {
        return ScriptError(removed.status().ToString());
      }
      return Value(true);
    }
    if (name == "update") {
      if (auto s = HostArity(name, args, 2); !s.ok()) {
        return s;
      }
      if (auto s = HostWantStr(name, args[0]); !s.ok()) {
        return s;
      }
      const std::string& path = args[0].AsStr();
      if (PathIsUnder(path, kEmRoot)) {
        return ScriptError("extensions may not touch the /em namespace");
      }
      Status s = ctx_->Replace(ObjectTemplate(path), ObjectTuple(path, args[1].ToString()));
      if (!s.ok()) {
        return ScriptError(s.ToString());
      }
      return Value(true);
    }
    if (name == "cas") {
      if (auto s = HostArity(name, args, 3); !s.ok()) {
        return s;
      }
      if (auto s = HostWantStr(name, args[0]); !s.ok()) {
        return s;
      }
      const std::string& path = args[0].AsStr();
      DsTemplate expect{DsTField::Exact(DsField{path}),
                        DsTField::Exact(DsField{args[1].ToString()})};
      Status s = ctx_->Replace(expect, ObjectTuple(path, args[2].ToString()));
      return Value(s.ok());
    }
    if (name == "block") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      const std::string& path = args[0].AsStr();
      auto entries = ctx_->RdAll(ObjectTemplate(path));
      if (!entries.empty()) {
        return EntryToValue(entries.front());
      }
      ctx_->Block(ObjectTemplate(path), /*consume=*/false);
      blocked_ = true;
      return Value();
    }
    return ScriptError("unknown host function '" + name + "'");
  }

 private:
  Status Check1Path(const std::string& name, const std::vector<Value>& args) const {
    if (auto s = HostArity(name, args, 1); !s.ok()) {
      return s;
    }
    return HostWantStr(name, args[0]);
  }

  Status CheckCreateBudget() const {
    if (created_ >= limits_.max_created_objects) {
      return Status(ErrorCode::kExtensionLimit, "object-creation budget exceeded");
    }
    return Status::Ok();
  }

  DsExecContext* ctx_;
  const ExtensionLimits& limits_;
  size_t created_ = 0;
  bool blocked_ = false;
};

// Read-only host for on_unblocked veto handlers: no state mutation allowed.
class DsReadOnlyHost : public ScriptHost {
 public:
  DsReadOnlyHost(const TupleSpace* space, NodeId client, size_t max_items)
      : space_(space), client_(client), max_items_(max_items) {}

  bool HasFunction(const std::string& name) const override {
    return name == "read_object" || name == "exists" || name == "sub_objects" ||
           name == "children" || name == "client_id";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    if (name == "client_id") {
      return Value(std::to_string(client_));
    }
    if (args.size() != 1 || !args[0].is_str()) {
      return ScriptError(name + ": expected one str argument");
    }
    const std::string& path = args[0].AsStr();
    if (name == "read_object") {
      auto entries = space_->RdAll(ObjectTemplate(path));
      return entries.empty() ? Value() : EntryToValue(entries.front());
    }
    if (name == "exists") {
      return Value(space_->HasMatch(ObjectTemplate(path)));
    }
    ValueList out;
    for (const DsEntry& e : space_->RdAll(ObjectPrefixTemplate(path))) {
      if (out.size() >= max_items_) {
        break;
      }
      if (name == "children") {
        std::string p = TuplePath(e.tuple);
        if (ParentPath(p) == path) {
          out.emplace_back(BaseName(p));
        }
      } else {
        out.push_back(EntryToValue(e));
      }
    }
    return Value::List(std::move(out));
  }

 private:
  const TupleSpace* space_;
  NodeId client_;
  size_t max_items_;
};

Status CheckSubscriptionsOutsideEm(const Program& program) {
  for (const Subscription& sub : program.subscriptions) {
    if (sub.pattern == kEmRoot || PathIsUnder(sub.pattern, kEmRoot)) {
      return Status(ErrorCode::kExtensionRejected,
                    "subscriptions may not target the /em namespace");
    }
  }
  return Status::Ok();
}

}  // namespace

DsExtensionManager::DsExtensionManager(DsServer* server, ExtensionLimits limits)
    : server_(server), limits_(limits) {
  verifier_config_.allowed_functions = CoreAllowedFunctions();
  for (const auto& [name, deterministic] : DsHostFunctions()) {
    verifier_config_.allowed_functions[name] = deterministic;
  }
  // Active replication: every replica executes every extension, so the white
  // list must be fully deterministic (§4.1.1).
  verifier_config_.require_deterministic = true;
  // The analyses assume the limits the sandbox actually runs with (see
  // zk_binding.cpp for the rationale).
  verifier_config_.collection_functions = {"children", "sub_objects"};
  verifier_config_.limits = limits_;
  server_->SetHooks(this);
}

std::string DsExtensionManager::KindOf(const DsOp& op) {
  switch (op.type) {
    case DsOpType::kRdp:
    case DsOpType::kRdAll:
      return "read";
    case DsOpType::kRd:
    case DsOpType::kIn:
      return "block";
    case DsOpType::kOut:
    case DsOpType::kCas:
      return "create";
    case DsOpType::kInp:
      return "delete";
    case DsOpType::kReplace: {
      // A replace whose template pins the old content is the conditional
      // update (Table 2's cas); otherwise it is a plain update.
      if (op.templ.size() > 1 && op.templ[1].kind == DsTField::Kind::kExact) {
        return "cas";
      }
      return "update";
    }
    case DsOpType::kRenew:
    case DsOpType::kSetMapVersion:
      return "";
  }
  return "";
}

std::string DsExtensionManager::PathOf(const DsOp& op) {
  std::string path = TuplePath(op.tuple);
  if (!path.empty()) {
    return path;
  }
  if (!op.templ.empty() && op.templ[0].kind != DsTField::Kind::kAny &&
      std::holds_alternative<std::string>(op.templ[0].value)) {
    return std::get<std::string>(op.templ[0].value);
  }
  return "";
}

bool DsExtensionManager::MatchesOperation(NodeId client, const DsOp& op) const {
  std::string path = PathOf(op);
  if (PathIsUnder(path, kEmRoot)) {
    return true;  // extension-manager traffic is always ours
  }
  std::string kind = KindOf(op);
  if (kind.empty() || path.empty()) {
    return false;
  }
  return registry_.MatchOperation(client, kind, path) != nullptr;
}

DsExecOutcome DsExtensionManager::HandleOperation(DsExecContext* ctx, NodeId client,
                                                  const DsOp& op) {
  std::string path = PathOf(op);
  if (PathIsUnder(path, kEmRoot)) {
    return HandleEmTraffic(ctx, client, op);
  }
  const LoadedExtension* ext = registry_.MatchOperation(client, KindOf(op), path);
  if (ext == nullptr) {
    return DsExecOutcome{};
  }
  return RunOperationExtension(*ext, ctx, client, op);
}

DsExecOutcome DsExtensionManager::HandleEmTraffic(DsExecContext* ctx, NodeId client,
                                                  const DsOp& op) {
  DsExecOutcome outcome;
  outcome.handled = true;
  std::string path = PathOf(op);

  if (op.type == DsOpType::kOut && ParentPath(path) == kEmRoot) {
    // Registration.
    std::string source = op.tuple.size() > 1 ? FieldToString(op.tuple[1]) : "";
    outcome.cpu_cost += static_cast<Duration>(source.size()) *
                        CostModel{}.ext_verify_cpu_per_byte;
    if (server_->space().HasMatch(ObjectTemplate(path))) {
      outcome.status = Status(ErrorCode::kNodeExists, path);
      return outcome;
    }
    auto program = ParseProgram(source);
    if (!program.ok()) {
      outcome.status = program.status();
      return outcome;
    }
    if (auto s = VerifyProgram(**program, verifier_config_); !s.ok()) {
      outcome.status = s;
      return outcome;
    }
    if (auto s = CheckSubscriptionsOutsideEm(**program); !s.ok()) {
      outcome.status = s;
      return outcome;
    }
    ctx->PrivilegedOut(ObjectTuple(path, EncodeRegistration(client, source)));
    Status s = registry_.Load(BaseName(path), client, source, verifier_config_);
    if (!s.ok()) {
      outcome.status = s;
      return outcome;
    }
    if (Obs* obs = server_->obs()) {
      LoadedExtension* loaded = registry_.Find(BaseName(path));
      if (loaded != nullptr) {
        obs->metrics.GetCounter("ext.compiled")
            ->Add(static_cast<int64_t>(loaded->compiled.handlers.size()));
      }
    }
    outcome.has_result = true;
    return outcome;
  }

  if (op.type == DsOpType::kOut && BaseName(ParentPath(path)) == "ack") {
    // Acknowledgment: /em/<name>/ack/<client>.
    std::string name = BaseName(ParentPath(ParentPath(path)));
    if (registry_.Find(name) == nullptr) {
      outcome.status = Status(ErrorCode::kNoNode, "no extension '" + name + "'");
      return outcome;
    }
    ctx->PrivilegedOut(ObjectTuple(path, std::to_string(client)));
    registry_.RecordAck(name, client);
    outcome.has_result = true;
    return outcome;
  }

  if (op.type == DsOpType::kInp && ParentPath(path) == kEmRoot) {
    // Deregistration: owner only.
    std::string name = BaseName(path);
    LoadedExtension* ext = registry_.Find(name);
    if (ext == nullptr) {
      outcome.status = Status(ErrorCode::kNoNode, path);
      return outcome;
    }
    if (ext->owner != client) {
      outcome.status =
          Status(ErrorCode::kAccessDenied, "only the registering client may deregister");
      return outcome;
    }
    (void)ctx->PrivilegedInp(ObjectTemplate(path));
    while (ctx->PrivilegedInp(ObjectPrefixTemplate(path)).ok()) {
    }
    registry_.Unload(name);
    outcome.has_result = true;
    return outcome;
  }

  outcome.status = Status(ErrorCode::kAccessDenied, "extension-manager namespace");
  return outcome;
}

DsExecOutcome DsExtensionManager::RunOperationExtension(const LoadedExtension& ext,
                                                        DsExecContext* ctx, NodeId client,
                                                        const DsOp& op) {
  DsExecOutcome outcome;
  outcome.handled = true;

  std::string kind = KindOf(op);
  std::string path = PathOf(op);
  const char* handler = OpHandlerFor(kind);
  std::string handler_name;
  std::vector<Value> args;
  if (handler != nullptr && ext.program->handlers.count(handler) > 0) {
    handler_name = handler;
    args.emplace_back(path);
    if (kind == "create" || kind == "update" || kind == "cas") {
      args.emplace_back(op.tuple.size() > 1 ? FieldToString(op.tuple[1]) : "");
    }
  } else {
    handler_name = "handle_op";
    args.push_back(Value::Map({{"type", Value(kind)},
                               {"path", Value(path)},
                               {"data", Value(op.tuple.size() > 1
                                                  ? FieldToString(op.tuple[1])
                                                  : "")}}));
  }

  DsScriptHost host(ctx, limits_);
  HandlerRun run = RunExtensionHandler(ext, handler_name, std::move(args), &host, limits_);
  const Result<Value>& result = run.result;

  CostModel costs;
  outcome.cpu_cost = costs.ext_invoke_cpu + run.steps_used * costs.ext_step_cpu;
  if (Obs* obs = server_->obs()) {
    CountHandlerRun(run, &obs->metrics);
  }

  if (!result.ok()) {
    outcome.status = result.status();
    if (registry_.RecordStrike(ext.name, limits_.strike_limit)) {
      // Deterministic eviction: every replica executes this identically.
      std::string em_path = std::string(kEmRoot) + "/" + ext.name;
      (void)ctx->PrivilegedInp(ObjectTemplate(em_path));
      while (ctx->PrivilegedInp(ObjectPrefixTemplate(em_path)).ok()) {
      }
      registry_.Unload(ext.name);
      EDC_LOG(kWarn) << "evicted misbehaving extension '" << ext.name << "'";
    }
    return outcome;
  }
  if (host.blocked()) {
    outcome.deferred = true;
  } else {
    outcome.has_result = true;
    outcome.result = result->is_null() ? "" : result->ToString();
  }
  return outcome;
}

void DsExtensionManager::DispatchEvents(DsExecContext* ctx,
                                        const std::vector<DsEvent>& events) {
  for (const DsEvent& event : events) {
    std::string path = TuplePath(event.tuple);
    if (path.empty() || PathIsUnder(path, kEmRoot)) {
      continue;
    }
    std::string kind;
    switch (event.type) {
      case DsEvent::Type::kCreated:
        kind = "created";
        break;
      case DsEvent::Type::kDeleted:
        kind = "deleted";
        break;
      case DsEvent::Type::kChanged:
        kind = "changed";
        break;
    }
    for (LoadedExtension* ext : registry_.MatchEvent(kind, path)) {
      RunEventExtension(ext, ctx, kind, path);
    }
  }
}

void DsExtensionManager::RunEventExtension(LoadedExtension* ext, DsExecContext* ctx,
                                           const std::string& kind, const std::string& path) {
  const char* handler = EventHandlerFor(kind);
  std::string handler_name =
      (handler != nullptr && ext->program->handlers.count(handler) > 0) ? handler
                                                                        : "handle_event";
  if (ext->program->handlers.count(handler_name) == 0) {
    return;
  }
  DsScriptHost host(ctx, limits_);
  std::vector<Value> args;
  args.emplace_back(path);
  HandlerRun run = RunExtensionHandler(*ext, handler_name, std::move(args), &host, limits_);
  const Result<Value>& result = run.result;
  if (Obs* obs = server_->obs()) {
    CountHandlerRun(run, &obs->metrics);
  }
  if (!result.ok()) {
    EDC_LOG(kDebug) << "event extension '" << ext->name
                    << "' failed: " << result.status().ToString();
    registry_.RecordStrike(ext->name, limits_.strike_limit);
  }
}

bool DsExtensionManager::AllowUnblock(NodeId client, const DsTemplate& templ,
                                      const DsTuple& tuple) {
  (void)templ;
  std::string path = TuplePath(tuple);
  if (path.empty()) {
    return true;
  }
  auto matches = registry_.MatchEvent("unblocked", path);
  for (LoadedExtension* ext : matches) {
    if (ext->program->handlers.count("on_unblocked") == 0) {
      continue;
    }
    DsReadOnlyHost host(&server_->space(), client, limits_.max_collection_items);
    std::vector<Value> args;
    args.emplace_back(path);
    HandlerRun run = RunExtensionHandler(*ext, "on_unblocked", std::move(args), &host, limits_);
    // Convention: a falsy return re-blocks the operation (§5.2.2).
    if (run.result.ok() && !run.result->Truthy()) {
      return false;
    }
  }
  return true;
}

void DsExtensionManager::OnStateReloaded() {
  registry_.Clear();
  for (const DsEntry& e : server_->space().RdAll(ObjectPrefixTemplate(kEmRoot))) {
    std::string path = TuplePath(e.tuple);
    if (ParentPath(path) == kEmRoot) {
      auto reg = DecodeRegistration(e.tuple.size() > 1 ? FieldToString(e.tuple[1]) : "");
      if (reg.ok()) {
        (void)registry_.Load(BaseName(path), reg->first, reg->second, verifier_config_);
      }
    }
  }
  // Second pass: acknowledgments (extensions must already be loaded).
  for (const DsEntry& e : server_->space().RdAll(ObjectPrefixTemplate(kEmRoot))) {
    std::string path = TuplePath(e.tuple);
    if (BaseName(ParentPath(path)) == "ack") {
      auto cid = ParseInt64(BaseName(path));
      if (cid.ok()) {
        registry_.RecordAck(BaseName(ParentPath(ParentPath(path))),
                            static_cast<uint64_t>(*cid));
      }
    }
  }
}

}  // namespace edc
