// Extension registry shared by the EZK and EDS bindings.
//
// Holds the verified, compiled extensions plus their subscriptions,
// ownership and acknowledgment state (§3.6): an extension is triggered only
// for the client that registered it or for clients that explicitly
// acknowledged it. When several operation extensions match a request, the
// last registered wins (§3.3); event extensions all fire, in registration
// order.
//
// The registry itself is volatile — it is rebuilt deterministically from the
// coordination-service state (/em data objects) on every replica, which is
// how the paper gets extension fault tolerance for free (§3.8).

#ifndef EDC_EXT_REGISTRY_H_
#define EDC_EXT_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "edc/common/codec.h"
#include "edc/common/result.h"
#include "edc/script/analysis/analyzer.h"
#include "edc/script/ast.h"
#include "edc/obs/metrics.h"
#include "edc/script/sandbox.h"
#include "edc/script/verifier.h"
#include "edc/script/vm/bytecode.h"

namespace edc {

struct LoadedExtension {
  std::string name;
  uint64_t owner = 0;  // registering session (EZK) / client id (EDS)
  std::shared_ptr<Program> program;
  std::set<uint64_t> acks;
  uint64_t reg_order = 0;
  int strikes = 0;
  // Per-handler analysis verdicts from registration time (lint and the
  // `ext.certified` counter; they do not change how a handler runs).
  std::map<std::string, HandlerReport> reports;
  // Bytecode for every handler, compiled once at registration.
  CompiledModule compiled;

  // True iff `handler` was certified by the static analyzer (proven
  // worst-case step bound within the execution budget).
  bool Certified(const std::string& handler) const {
    auto it = reports.find(handler);
    return it != reports.end() && it->second.certified;
  }
};

// Outcome of one handler dispatch through RunExtensionHandler.
struct HandlerRun {
  Result<Value> result = Value();
  int64_t steps_used = 0;
  bool certified = false;  // analyzer verdict for the handler
};

// Shared dispatch path for the EZK and EDS bindings: checks the arguments
// against the ingest cap, then runs `handler_name` on the bytecode VM under
// `limits`.
HandlerRun RunExtensionHandler(const LoadedExtension& ext, const std::string& handler_name,
                               std::vector<Value> args, ScriptHost* host,
                               const ExtensionLimits& limits);

// Counts one dispatch in `metrics` (ext.invocations, ext.steps,
// ext.certified, ext.vm_dispatches).
void CountHandlerRun(const HandlerRun& run, MetricsRegistry* metrics);

class ExtensionRegistry {
 public:
  // Parses, verifies, compiles and installs `source` under `name`.
  // kExtensionRejected on any verifier violation.
  Status Load(const std::string& name, uint64_t owner, const std::string& source,
              const VerifierConfig& config);
  void Unload(const std::string& name);
  void Clear();

  void RecordAck(const std::string& name, uint64_t client);
  void RemoveAck(const std::string& name, uint64_t client);

  bool Contains(const std::string& name) const { return extensions_.count(name) > 0; }
  LoadedExtension* Find(const std::string& name);
  size_t size() const { return extensions_.size(); }

  // Is `client` allowed to trigger this extension (§3.6)?
  static bool Authorized(const LoadedExtension& ext, uint64_t client);

  // Best (= last registered) authorized operation extension for
  // (kind, path), or nullptr.
  const LoadedExtension* MatchOperation(uint64_t client, const std::string& kind,
                                        const std::string& path) const;

  // All event extensions subscribed to (kind, path), registration order.
  std::vector<LoadedExtension*> MatchEvent(const std::string& kind, const std::string& path);

  // Does any event extension authorized for `client` subscribe to
  // (kind, path)? Drives notification suppression (§5.1.2).
  bool HasEventExtensionFor(uint64_t client, const std::string& kind,
                            const std::string& path) const;

  // Increment strike count; true if the extension crossed `limit` and should
  // be evicted (caller performs the actual deregistration).
  bool RecordStrike(const std::string& name, int limit);

  static bool SubscriptionMatches(const Subscription& sub, bool is_event,
                                  const std::string& kind, const std::string& path);

  // Cross-extension lint findings (EDC-W010..W012: shadowed triggers,
  // redundant subscriptions, conflicting-type writes), recomputed over the
  // whole registry after every Load/Unload. Warnings only — they never
  // reject a registration. Diagnostic::handler carries the extension name.
  const std::vector<Diagnostic>& lint_warnings() const { return lint_warnings_; }

 private:
  void RefreshLint();

  std::map<std::string, LoadedExtension> extensions_;
  std::vector<Diagnostic> lint_warnings_;
  uint64_t next_order_ = 1;
};

// Registration payload stored in the extension's surrogate data object:
// the owner id plus the verified source (§3.8 makes the manager stateless).
std::string EncodeRegistration(uint64_t owner, const std::string& source);
Result<std::pair<uint64_t, std::string>> DecodeRegistration(const std::string& blob);

// Handler entry point the manager dispatches to for an op kind ("read" ->
// fn read, ...), or nullptr if only handle_op applies.
const char* OpHandlerFor(const std::string& kind);
const char* EventHandlerFor(const std::string& kind);

}  // namespace edc

#endif  // EDC_EXT_REGISTRY_H_
