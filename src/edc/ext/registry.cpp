#include "edc/ext/registry.h"

#include <algorithm>
#include <utility>

#include "edc/common/strings.h"
#include "edc/script/analysis/registry_lint.h"
#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"

namespace edc {

Status ExtensionRegistry::Load(const std::string& name, uint64_t owner,
                               const std::string& source, const VerifierConfig& config) {
  auto program = ParseProgram(source);
  if (!program.ok()) {
    return program.status();
  }
  AnalysisReport report = AnalyzeProgram(**program, config);
  if (auto s = ToVerifierStatus(report); !s.ok()) {
    return s;
  }
  // Compile every handler once, here, so each later invocation dispatches
  // straight into bytecode ("verification pays once", §4.2).
  auto compiled = CompileProgram(**program);
  if (!compiled.ok()) {
    return compiled.status();
  }
  LoadedExtension ext;
  ext.name = name;
  ext.owner = owner;
  ext.program = std::move(*program);
  ext.reg_order = next_order_++;
  ext.reports = std::move(report.handlers);
  ext.compiled = std::move(*compiled);
  extensions_[name] = std::move(ext);
  RefreshLint();
  return Status::Ok();
}

void ExtensionRegistry::RefreshLint() {
  std::vector<RegistryLintUnit> units;
  units.reserve(extensions_.size());
  for (const auto& [name, ext] : extensions_) {
    units.push_back(RegistryLintUnit{name, ext.reg_order, ext.program.get()});
  }
  lint_warnings_ = LintRegistry(units);
}

HandlerRun RunExtensionHandler(const LoadedExtension& ext, const std::string& handler_name,
                               std::vector<Value> args, ScriptHost* host,
                               const ExtensionLimits& limits) {
  HandlerRun run;
  run.certified = ext.Certified(handler_name);
  // Argument ingest check (pre-dispatch, zero steps): the analyzer seeded
  // the handler's parameter bounds from max_input_bytes, so an oversized
  // argument must never reach a handler — its proven step bound would not
  // cover it.
  for (const Value& arg : args) {
    bool oversized = false;
    if (arg.is_list()) {
      for (const Value& item : arg.AsList()) {
        oversized = oversized || item.ApproxSize() > limits.max_input_bytes;
      }
    } else {
      oversized = arg.ApproxSize() > limits.max_input_bytes;
    }
    if (oversized) {
      run.result = Status(ErrorCode::kExtensionLimit,
                          "argument size limit exceeded for handler '" +
                              handler_name + "'");
      return run;
    }
  }
  Vm vm(&ext.compiled, host, limits);
  run.result = vm.Invoke(handler_name, std::move(args));
  run.steps_used = vm.stats().steps_used;
  return run;
}

void CountHandlerRun(const HandlerRun& run, MetricsRegistry* metrics) {
  metrics->GetCounter("ext.invocations")->Increment();
  metrics->GetCounter("ext.steps")->Add(run.steps_used);
  if (run.certified) {
    metrics->GetCounter("ext.certified")->Increment();
  }
  metrics->GetCounter("ext.vm_dispatches")->Increment();
}

void ExtensionRegistry::Unload(const std::string& name) {
  extensions_.erase(name);
  RefreshLint();
}

void ExtensionRegistry::Clear() {
  extensions_.clear();
  lint_warnings_.clear();
  next_order_ = 1;
}

void ExtensionRegistry::RecordAck(const std::string& name, uint64_t client) {
  auto it = extensions_.find(name);
  if (it != extensions_.end()) {
    it->second.acks.insert(client);
  }
}

void ExtensionRegistry::RemoveAck(const std::string& name, uint64_t client) {
  auto it = extensions_.find(name);
  if (it != extensions_.end()) {
    it->second.acks.erase(client);
  }
}

LoadedExtension* ExtensionRegistry::Find(const std::string& name) {
  auto it = extensions_.find(name);
  return it == extensions_.end() ? nullptr : &it->second;
}

bool ExtensionRegistry::Authorized(const LoadedExtension& ext, uint64_t client) {
  return ext.owner == client || ext.acks.count(client) > 0;
}

bool ExtensionRegistry::SubscriptionMatches(const Subscription& sub, bool is_event,
                                            const std::string& kind, const std::string& path) {
  if (sub.is_event != is_event) {
    return false;
  }
  if (sub.kind != kind && !(!is_event && sub.kind == "any")) {
    return false;
  }
  if (sub.prefix) {
    if (sub.subtree) {
      return PathIsUnder(path, sub.pattern);
    }
    return path.size() >= sub.pattern.size() &&
           path.compare(0, sub.pattern.size(), sub.pattern) == 0;
  }
  return sub.pattern == path;
}

const LoadedExtension* ExtensionRegistry::MatchOperation(uint64_t client,
                                                         const std::string& kind,
                                                         const std::string& path) const {
  const LoadedExtension* best = nullptr;
  for (const auto& [name, ext] : extensions_) {
    if (!Authorized(ext, client)) {
      continue;
    }
    for (const Subscription& sub : ext.program->subscriptions) {
      if (SubscriptionMatches(sub, /*is_event=*/false, kind, path)) {
        if (best == nullptr || ext.reg_order > best->reg_order) {
          best = &ext;
        }
        break;
      }
    }
  }
  return best;
}

std::vector<LoadedExtension*> ExtensionRegistry::MatchEvent(const std::string& kind,
                                                            const std::string& path) {
  std::vector<LoadedExtension*> matches;
  for (auto& [name, ext] : extensions_) {
    for (const Subscription& sub : ext.program->subscriptions) {
      if (SubscriptionMatches(sub, /*is_event=*/true, kind, path)) {
        matches.push_back(&ext);
        break;
      }
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const LoadedExtension* a, const LoadedExtension* b) {
              return a->reg_order < b->reg_order;
            });
  return matches;
}

bool ExtensionRegistry::HasEventExtensionFor(uint64_t client, const std::string& kind,
                                             const std::string& path) const {
  for (const auto& [name, ext] : extensions_) {
    if (!Authorized(ext, client)) {
      continue;
    }
    for (const Subscription& sub : ext.program->subscriptions) {
      if (SubscriptionMatches(sub, /*is_event=*/true, kind, path)) {
        return true;
      }
    }
  }
  return false;
}

bool ExtensionRegistry::RecordStrike(const std::string& name, int limit) {
  if (limit <= 0) {
    return false;
  }
  auto it = extensions_.find(name);
  if (it == extensions_.end()) {
    return false;
  }
  return ++it->second.strikes >= limit;
}

std::string EncodeRegistration(uint64_t owner, const std::string& source) {
  Encoder enc;
  enc.PutU64(owner);
  enc.PutString(source);
  const std::vector<uint8_t>& buf = enc.buffer();
  return std::string(buf.begin(), buf.end());
}

Result<std::pair<uint64_t, std::string>> DecodeRegistration(const std::string& blob) {
  Decoder dec(reinterpret_cast<const uint8_t*>(blob.data()), blob.size());
  auto owner = dec.GetU64();
  if (!owner.ok()) {
    return owner.status();
  }
  auto source = dec.GetString();
  if (!source.ok()) {
    return source.status();
  }
  return std::make_pair(*owner, std::move(*source));
}

const char* OpHandlerFor(const std::string& kind) {
  for (const char* known : {"read", "create", "update", "delete", "cas", "block"}) {
    if (kind == known) {
      return known;
    }
  }
  return nullptr;
}

const char* EventHandlerFor(const std::string& kind) {
  if (kind == "created") {
    return "on_created";
  }
  if (kind == "deleted") {
    return "on_deleted";
  }
  if (kind == "changed") {
    return "on_changed";
  }
  if (kind == "unblocked") {
    return "on_unblocked";
  }
  return nullptr;
}

}  // namespace edc
