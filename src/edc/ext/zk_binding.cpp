#include "edc/ext/zk_binding.h"

#include <memory>
#include <utility>

#include "edc/common/logging.h"
#include "edc/common/strings.h"
#include "edc/script/builtins.h"
#include "edc/script/parser.h"

namespace edc {

namespace {

constexpr char kEmRoot[] = "/em";

// Names of the service-API host functions (the state-proxy interface of
// Fig. 2). `now`/`random` are the EZK-only nondeterministic additions.
const std::map<std::string, bool>& ZkHostFunctions() {
  static const auto* kFns = new std::map<std::string, bool>{
      {"create", true},          {"create_ephemeral", true}, {"create_sequential", true},
      {"delete_object", true},   {"update", true},           {"cas", true},
      {"read_object", true},     {"exists", true},           {"children", true},
      {"sub_objects", true},     {"block", true},            {"monitor", true},
      {"client_id", true},       {"now", false},             {"random", false},
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

Value NodeToValue(const std::string& path, const PrepNode& node) {
  return Value::Map({{"path", Value(path)},
                     {"data", Value(node.data)},
                     {"version", Value(static_cast<int64_t>(node.version))},
                     {"ctime", Value(node.ctime)},
                     {"owner", Value(static_cast<int64_t>(node.ephemeral_owner))}});
}

// The sandbox state proxy (§4.1.2): all service-state access of an extension
// funnels through the leader's PrepSession, with resource accounting.
class ZkScriptHost : public ScriptHost {
 public:
  ZkScriptHost(PrepSession* prep, uint64_t session, const ExtensionLimits& limits,
               SimTime now, Rng* rng)
      : prep_(prep), session_(session), limits_(limits), now_(now), rng_(rng) {}

  bool HasFunction(const std::string& name) const override {
    return ZkHostFunctions().count(name) > 0;
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    if (name == "client_id") {
      return Value(std::to_string(session_));
    }
    if (name == "now") {
      return Value(now_);
    }
    if (name == "random") {
      if (auto s = HostArity(name, args, 1); !s.ok()) {
        return s;
      }
      if (!args[0].is_int() || args[0].AsInt() <= 0) {
        return ScriptError("random: expected positive int bound");
      }
      return Value(static_cast<int64_t>(rng_->UniformU64(
          static_cast<uint64_t>(args[0].AsInt()))));
    }
    if (auto s = CheckStateBudget(); !s.ok()) {
      return s;
    }

    if (name == "read_object") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      auto node = prep_->Get(args[0].AsStr());
      if (!node.ok()) {
        return Value();  // missing object reads as null
      }
      return NodeToValue(args[0].AsStr(), *node);
    }
    if (name == "exists") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      return Value(prep_->Exists(args[0].AsStr()));
    }
    if (name == "children") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      auto children = prep_->Children(args[0].AsStr());
      if (!children.ok()) {
        return ScriptError(children.status().ToString());
      }
      // Collection cap (§4.1.2): the static cost pass bounds foreach loops
      // over this list by max_collection_items, so the runtime must never
      // hand back more.
      ValueList names;
      for (std::string& c : *children) {
        if (names.size() >= limits_.max_collection_items) {
          break;
        }
        names.emplace_back(std::move(c));
      }
      return Value::List(std::move(names));
    }
    if (name == "sub_objects") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      const std::string& parent = args[0].AsStr();
      auto children = prep_->Children(parent);
      if (!children.ok()) {
        return ScriptError(children.status().ToString());
      }
      ValueList objs;
      for (const std::string& c : *children) {
        if (objs.size() >= limits_.max_collection_items) {
          break;
        }
        std::string path = parent == "/" ? "/" + c : parent + "/" + c;
        auto node = prep_->Get(path);
        if (node.ok()) {
          objs.push_back(NodeToValue(path, *node));
        }
      }
      return Value::List(std::move(objs));
    }
    if (name == "create" || name == "create_ephemeral" || name == "create_sequential") {
      if (auto s = HostArity(name, args, 2); !s.ok()) {
        return s;
      }
      if (auto s = HostWantStr(name, args[0]); !s.ok()) {
        return s;
      }
      if (auto s = CheckCreateBudget(); !s.ok()) {
        return s;
      }
      if (PathIsUnder(args[0].AsStr(), kEmRoot)) {
        return ScriptError("extensions may not touch the /em namespace");
      }
      auto actual = prep_->Create(args[0].AsStr(), args[1].ToString(),
                                  name == "create_ephemeral",
                                  name == "create_sequential");
      if (!actual.ok()) {
        return ScriptError(actual.status().ToString());
      }
      ++created_;
      return Value(*actual);
    }
    if (name == "delete_object") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      if (PathIsUnder(args[0].AsStr(), kEmRoot)) {
        return ScriptError("extensions may not touch the /em namespace");
      }
      auto status = prep_->Delete(args[0].AsStr(), -1);
      if (!status.ok()) {
        return ScriptError(status.ToString());
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
      if (PathIsUnder(args[0].AsStr(), kEmRoot)) {
        return ScriptError("extensions may not touch the /em namespace");
      }
      auto status = prep_->SetData(args[0].AsStr(), args[1].ToString(), -1);
      if (!status.ok()) {
        return ScriptError(status.ToString());
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
      auto node = prep_->Get(args[0].AsStr());
      if (!node.ok()) {
        return ScriptError(node.status().ToString());
      }
      if (node->data != args[1].ToString()) {
        return Value(false);
      }
      auto status = prep_->SetData(args[0].AsStr(), args[2].ToString(), node->version);
      if (!status.ok()) {
        return Value(false);
      }
      return Value(true);
    }
    if (name == "block") {
      if (auto s = Check1Path(name, args); !s.ok()) {
        return s;
      }
      const std::string& path = args[0].AsStr();
      if (prep_->Exists(path)) {
        auto node = prep_->Get(path);
        return node.ok() ? NodeToValue(path, *node) : Value();
      }
      prep_->Block(path);
      return Value();
    }
    if (name == "monitor") {
      if (auto s = HostArity(name, args, 2); !s.ok()) {
        return s;
      }
      if (auto s = HostWantStr(name, args[1]); !s.ok()) {
        return s;
      }
      if (auto s = CheckCreateBudget(); !s.ok()) {
        return s;
      }
      // Creates an ephemeral owned by the invoking client's session: the
      // service deletes it when that client terminates or fails (Table 2).
      auto actual = prep_->Create(args[1].AsStr(), args[0].ToString(),
                                  /*ephemeral=*/true, /*sequential=*/false);
      if (!actual.ok()) {
        return ScriptError(actual.status().ToString());
      }
      ++created_;
      return Value(*actual);
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

  Status CheckStateBudget() const {
    if (prep_->state_ops_performed() >= limits_.max_state_ops) {
      return Status(ErrorCode::kExtensionLimit, "state-operation budget exceeded");
    }
    return Status::Ok();
  }

  Status CheckCreateBudget() const {
    if (created_ >= limits_.max_created_objects) {
      return Status(ErrorCode::kExtensionLimit, "object-creation budget exceeded");
    }
    return Status::Ok();
  }

  PrepSession* prep_;
  uint64_t session_;
  const ExtensionLimits& limits_;
  SimTime now_;
  Rng* rng_;
  size_t created_ = 0;
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

ZkExtensionManager::ZkExtensionManager(ZkServer* server, ExtensionLimits limits)
    : server_(server), limits_(limits) {
  verifier_config_.allowed_functions = CoreAllowedFunctions();
  for (const auto& [name, deterministic] : ZkHostFunctions()) {
    verifier_config_.allowed_functions[name] = deterministic;
  }
  // Primary-backup: nondeterministic host functions are admissible (§4.1.1).
  verifier_config_.require_deterministic = false;
  // The cost pass relies on the sandbox capping collection results, and the
  // abstract-interpretation layer seeds handler inputs and its string-length
  // top from the *actual* runtime limits, not defaults: a host with a
  // tighter budget gets tighter (still sound) bounds, and one with max_steps
  // below a handler's bound does not certify it.
  verifier_config_.collection_functions = {"children", "sub_objects"};
  verifier_config_.limits = limits_;
  server_->SetHooks(this);
}

std::string ZkExtensionManager::KindOf(const ZkOp& op) {
  switch (op.type) {
    case ZkOpType::kGetData:
    case ZkOpType::kGetChildren:
      return "read";
    case ZkOpType::kExists:
      return op.watch ? "block" : "read";
    case ZkOpType::kCreate:
      return "create";
    case ZkOpType::kSetData:
      return op.version >= 0 ? "cas" : "update";
    case ZkOpType::kDelete:
      return "delete";
    default:
      return "";
  }
}

bool ZkExtensionManager::MatchesOperation(uint64_t session, const ZkOp& op) const {
  std::string kind = KindOf(op);
  if (kind.empty() || PathIsUnder(op.path, kEmRoot)) {
    return false;
  }
  return registry_.MatchOperation(session, kind, op.path) != nullptr;
}

Status ZkExtensionManager::PreprocessUpdate(uint64_t session, ZkOp* op,
                                            Duration* extra_cpu) {
  if (op->type == ZkOpType::kCreate && ParentPath(op->path) == kEmRoot) {
    // Extension registration (§3.6): verify, compile, embed the owner.
    const std::string& source = op->data;
    *extra_cpu += static_cast<Duration>(source.size()) *
                  CostModel{}.ext_verify_cpu_per_byte;
    auto program = ParseProgram(source);
    if (!program.ok()) {
      return program.status();
    }
    if (auto s = VerifyProgram(**program, verifier_config_); !s.ok()) {
      return s;
    }
    if (auto s = CheckSubscriptionsOutsideEm(**program); !s.ok()) {
      return s;
    }
    op->data = EncodeRegistration(session, source);
    return Status::Ok();
  }
  if (op->type == ZkOpType::kDelete && ParentPath(op->path) == kEmRoot) {
    // Deregistration: only the owner may remove an extension.
    const LoadedExtension* ext = registry_.Find(BaseName(op->path));
    if (ext != nullptr && ext->owner != session) {
      return Status(ErrorCode::kAccessDenied, "only the registering client may deregister");
    }
  }
  return Status::Ok();
}

ZkPrepOutcome ZkExtensionManager::HandleOperation(PrepSession* prep, uint64_t session,
                                                  const ZkOp& op) {
  ZkPrepOutcome outcome;
  std::string kind = KindOf(op);
  const LoadedExtension* ext = registry_.MatchOperation(session, kind, op.path);
  if (ext == nullptr) {
    return outcome;  // not handled; normal processing continues
  }
  return RunOperationExtension(*ext, prep, session, op);
}

ZkPrepOutcome ZkExtensionManager::RunOperationExtension(const LoadedExtension& ext,
                                                        PrepSession* prep, uint64_t session,
                                                        const ZkOp& op) {
  ZkPrepOutcome outcome;
  outcome.handled = true;

  std::string kind = KindOf(op);
  const char* handler = OpHandlerFor(kind);
  std::vector<Value> args;
  std::string handler_name;
  if (handler != nullptr && ext.program->handlers.count(handler) > 0) {
    handler_name = handler;
    args.emplace_back(op.path);
    if (kind == "create" || kind == "update" || kind == "cas") {
      args.emplace_back(op.data);
    }
  } else {
    handler_name = "handle_op";
    args.push_back(Value::Map({{"type", Value(kind)},
                               {"path", Value(op.path)},
                               {"data", Value(op.data)}}));
  }

  ZkScriptHost host(prep, session, limits_, server_->now(), &ext_rng_);
  HandlerRun run = RunExtensionHandler(ext, handler_name, std::move(args), &host, limits_);
  const Result<Value>& result = run.result;

  CostModel costs;
  outcome.extra_cpu = costs.ext_invoke_cpu + run.steps_used * costs.ext_step_cpu;
  if (Obs* obs = server_->obs()) {
    CountHandlerRun(run, &obs->metrics);
  }

  if (!result.ok()) {
    outcome.status = result.status();
    if (registry_.RecordStrike(ext.name, limits_.strike_limit)) {
      EvictExtension(ext.name);
    }
    return outcome;
  }
  // A pending server-side block defers the reply (§6.1.3); otherwise the
  // returned value is piggybacked as the result.
  bool deferred = false;
  for (const ZkTxnOp& txn_op : prep->ops()) {
    if (txn_op.type == ZkTxnOpType::kBlock && txn_op.session == session &&
        txn_op.req_id == prep->req_id()) {
      deferred = true;
    }
  }
  if (!deferred) {
    outcome.has_result = true;
    outcome.result = result->is_null() ? "" : result->ToString();
  }
  return outcome;
}

void ZkExtensionManager::AfterApply(const ZkTxn& txn, const std::vector<ZkEvent>& events,
                                    bool is_leader) {
  for (const ZkTxnOp& op : txn.ops) {
    ObserveAppliedOp(op);
  }
  if (!is_leader || txn.ext_depth >= kMaxEventDepth) {
    return;
  }
  for (const ZkEvent& event : events) {
    if (PathIsUnder(event.path, kEmRoot)) {
      continue;
    }
    std::string kind;
    switch (event.type) {
      case ZkEventType::kNodeCreated:
        kind = "created";
        break;
      case ZkEventType::kNodeDeleted:
        kind = "deleted";
        break;
      case ZkEventType::kNodeDataChanged:
        kind = "changed";
        break;
      case ZkEventType::kNodeChildrenChanged:
        continue;
    }
    RunEventExtensions(event, kind, static_cast<uint8_t>(txn.ext_depth + 1));
  }
}

void ZkExtensionManager::RunEventExtensions(const ZkEvent& event, const std::string& kind,
                                            uint8_t depth) {
  for (LoadedExtension* ext : registry_.MatchEvent(kind, event.path)) {
    const char* handler = EventHandlerFor(kind);
    std::string handler_name =
        (handler != nullptr && ext->program->handlers.count(handler) > 0) ? handler
                                                                          : "handle_event";
    if (ext->program->handlers.count(handler_name) == 0) {
      continue;
    }
    // Event extensions run with the registrant's privileges (§3.2).
    auto prep = server_->BeginInternalPrep(ext->owner);
    ZkScriptHost host(prep.get(), ext->owner, limits_, server_->now(), &ext_rng_);
    std::vector<Value> args;
    args.emplace_back(event.path);
    HandlerRun run = RunExtensionHandler(*ext, handler_name, std::move(args), &host, limits_);
    const Result<Value>& result = run.result;
    CostModel costs;
    Duration cpu = costs.ext_invoke_cpu + run.steps_used * costs.ext_step_cpu;
    if (Obs* obs = server_->obs()) {
      CountHandlerRun(run, &obs->metrics);
    }
    if (!result.ok()) {
      EDC_LOG(kDebug) << "event extension '" << ext->name
                      << "' failed: " << result.status().ToString();
      if (registry_.RecordStrike(ext->name, limits_.strike_limit)) {
        EvictExtension(ext->name);
      }
      continue;
    }
    server_->ProposeFromPrep(prep.get(), false, "", cpu, depth);
  }
}

void ZkExtensionManager::EvictExtension(const std::string& name) {
  EDC_LOG(kWarn) << "evicting misbehaving extension '" << name << "'";
  auto prep = server_->BeginInternalPrep(0);
  std::string path = std::string(kEmRoot) + "/" + name;
  auto children = prep->Children(path);
  if (children.ok()) {
    for (const std::string& child : *children) {
      (void)prep->Delete(path + "/" + child, -1);
    }
  }
  (void)prep->Delete(path, -1);
  server_->ProposeFromPrep(prep.get(), false, "", 0, kMaxEventDepth);
}

void ZkExtensionManager::ObserveAppliedOp(const ZkTxnOp& op) {
  if (op.type == ZkTxnOpType::kCreate) {
    std::string parent = ParentPath(op.path);
    if (parent == kEmRoot) {
      auto reg = DecodeRegistration(op.data);
      if (!reg.ok()) {
        EDC_LOG(kError) << "undecodable extension registration at " << op.path;
        return;
      }
      Status s = registry_.Load(BaseName(op.path), reg->first, reg->second,
                                verifier_config_);
      if (!s.ok()) {
        EDC_LOG(kError) << "replicated extension failed to load: " << s.ToString();
      } else if (Obs* obs = server_->obs()) {
        LoadedExtension* loaded = registry_.Find(BaseName(op.path));
        if (loaded != nullptr) {
          obs->metrics.GetCounter("ext.compiled")
              ->Add(static_cast<int64_t>(loaded->compiled.handlers.size()));
        }
      }
      return;
    }
    if (ParentPath(parent) == kEmRoot) {
      // Acknowledgment child: /em/<name>/ack-<session>.
      std::string base = BaseName(op.path);
      if (base.rfind("ack-", 0) == 0) {
        auto sid = ParseInt64(base.substr(4));
        if (sid.ok()) {
          registry_.RecordAck(BaseName(parent), static_cast<uint64_t>(*sid));
        }
      }
      return;
    }
  }
  if (op.type == ZkTxnOpType::kDelete) {
    std::string parent = ParentPath(op.path);
    if (parent == kEmRoot) {
      registry_.Unload(BaseName(op.path));
      return;
    }
    if (ParentPath(parent) == kEmRoot) {
      std::string base = BaseName(op.path);
      if (base.rfind("ack-", 0) == 0) {
        auto sid = ParseInt64(base.substr(4));
        if (sid.ok()) {
          registry_.RemoveAck(BaseName(parent), static_cast<uint64_t>(*sid));
        }
      }
    }
  }
}

bool ZkExtensionManager::SuppressNotification(uint64_t session, const ZkEvent& event) const {
  std::string kind;
  switch (event.type) {
    case ZkEventType::kNodeCreated:
      kind = "created";
      break;
    case ZkEventType::kNodeDeleted:
      kind = "deleted";
      break;
    case ZkEventType::kNodeDataChanged:
      kind = "changed";
      break;
    case ZkEventType::kNodeChildrenChanged:
      return false;
  }
  return registry_.HasEventExtensionFor(session, kind, event.path);
}

void ZkExtensionManager::OnStateReloaded() {
  registry_.Clear();
  const DataTree& tree = server_->tree();
  auto names = tree.GetChildren(kEmRoot);
  if (!names.ok()) {
    return;
  }
  for (const std::string& name : *names) {
    std::string path = std::string(kEmRoot) + "/" + name;
    auto node = tree.Get(path);
    if (!node.ok()) {
      continue;
    }
    auto reg = DecodeRegistration(node->data);
    if (!reg.ok()) {
      continue;
    }
    if (!registry_.Load(name, reg->first, reg->second, verifier_config_).ok()) {
      continue;
    }
    auto acks = tree.GetChildren(path);
    if (acks.ok()) {
      for (const std::string& ack : *acks) {
        if (ack.rfind("ack-", 0) == 0) {
          auto sid = ParseInt64(ack.substr(4));
          if (sid.ok()) {
            registry_.RecordAck(name, static_cast<uint64_t>(*sid));
          }
        }
      }
    }
  }
}

}  // namespace edc
