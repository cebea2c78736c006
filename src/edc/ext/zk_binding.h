// EXTENSIBLE ZOOKEEPER binding (paper §5.1).
//
// Plugs the extension manager into the ZkServer hook points:
//   * replica-side subscription matching routes extension-subscribed
//     operations (even reads) through the primary;
//   * at the primary's preprocessor stage, the matching extension executes
//     inside a sandbox whose state proxy is the leader's PrepSession — every
//     state change lands in one multi-transaction, and the extension result
//     is piggybacked on it (§5.1.2);
//   * registrations are standard creates under /em: verified, compiled, and
//     rewritten to carry the owner before replication; every replica's
//     manager rebuilds its registry from the applied transactions (or from a
//     snapshot), which is the paper's fault-tolerance story (§3.8);
//   * event extensions run at the primary when a transaction's events match;
//     their writes are proposed as follow-up internal transactions with a
//     bounded chain depth; matching client notifications are suppressed.
//
// Being primary-backup, EZK may expose nondeterministic host functions
// (now, random) — only the primary executes the script (§4.1.1).

#ifndef EDC_EXT_ZK_BINDING_H_
#define EDC_EXT_ZK_BINDING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/ext/registry.h"
#include "edc/script/sandbox.h"
#include "edc/zk/hooks.h"
#include "edc/zk/server.h"

namespace edc {

class ZkExtensionManager : public ZkServerHooks {
 public:
  ZkExtensionManager(ZkServer* server, ExtensionLimits limits);

  // ZkServerHooks.
  bool MatchesOperation(uint64_t session, const ZkOp& op) const override;
  Status PreprocessUpdate(uint64_t session, ZkOp* op, Duration* extra_cpu) override;
  ZkPrepOutcome HandleOperation(PrepSession* prep, uint64_t session, const ZkOp& op) override;
  void AfterApply(const ZkTxn& txn, const std::vector<ZkEvent>& events,
                  bool is_leader) override;
  bool SuppressNotification(uint64_t session, const ZkEvent& event) const override;
  void OnStateReloaded() override;

  const ExtensionRegistry& registry() const { return registry_; }
  const VerifierConfig& verifier_config() const { return verifier_config_; }

  // Maximum extension-triggered transaction chain length.
  static constexpr uint8_t kMaxEventDepth = 4;

 private:
  // Op type -> subscription kind ("read", "block", ...); empty = unmatchable.
  static std::string KindOf(const ZkOp& op);

  // Runs `handler` of `ext` against `prep`; fills outcome.
  ZkPrepOutcome RunOperationExtension(const LoadedExtension& ext, PrepSession* prep,
                                      uint64_t session, const ZkOp& op);
  void RunEventExtensions(const ZkEvent& event, const std::string& kind, uint8_t depth);
  void EvictExtension(const std::string& name);

  // Registry maintenance driven by applied transactions.
  void ObserveAppliedOp(const ZkTxnOp& op);

  ZkServer* server_;
  ExtensionLimits limits_;
  VerifierConfig verifier_config_;
  ExtensionRegistry registry_;
  Rng ext_rng_{0xE27};  // leader-only nondeterminism source for random()
};

}  // namespace edc

#endif  // EDC_EXT_ZK_BINDING_H_
