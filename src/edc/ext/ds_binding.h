// EXTENSIBLE DEPSPACE binding (paper §5.2).
//
// The extension manager sits at the bottom of the replica stack: every
// ordered request passes it before policy enforcement and access control.
// Because the ordering protocol already executes every request on every
// replica, extensions simply run inline inside Execute — no multi-transaction
// machinery — but in exchange the verifier enforces full determinism: the
// EDS white list contains no now()/random() (§4.1.1).
//
// The /em tuple namespace is the manager's dedicated space: registrations,
// acknowledgments and deregistrations are ordinary out/inp operations on it
// (intercepted here), and the registry is rebuilt from those tuples after a
// restart (§3.8).

#ifndef EDC_EXT_DS_BINDING_H_
#define EDC_EXT_DS_BINDING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/ds/hooks.h"
#include "edc/ds/server.h"
#include "edc/ext/registry.h"
#include "edc/script/sandbox.h"

namespace edc {

class DsExtensionManager : public DsServerHooks {
 public:
  DsExtensionManager(DsServer* server, ExtensionLimits limits);

  // DsServerHooks.
  bool MatchesOperation(NodeId client, const DsOp& op) const override;
  DsExecOutcome HandleOperation(DsExecContext* ctx, NodeId client, const DsOp& op) override;
  void DispatchEvents(DsExecContext* ctx, const std::vector<DsEvent>& events) override;
  bool AllowUnblock(NodeId client, const DsTemplate& templ, const DsTuple& tuple) override;
  void OnStateReloaded() override;

  const ExtensionRegistry& registry() const { return registry_; }
  const VerifierConfig& verifier_config() const { return verifier_config_; }

 private:
  static std::string KindOf(const DsOp& op);
  // Target path of the operation in the object model (<path, data> tuples).
  static std::string PathOf(const DsOp& op);

  DsExecOutcome HandleEmTraffic(DsExecContext* ctx, NodeId client, const DsOp& op);
  DsExecOutcome RunOperationExtension(const LoadedExtension& ext, DsExecContext* ctx,
                                      NodeId client, const DsOp& op);
  void RunEventExtension(LoadedExtension* ext, DsExecContext* ctx, const std::string& kind,
                         const std::string& path);

  DsServer* server_;
  ExtensionLimits limits_;
  VerifierConfig verifier_config_;
  ExtensionRegistry registry_;
};

}  // namespace edc

#endif  // EDC_EXT_DS_BINDING_H_
