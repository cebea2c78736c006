// Pinned end-to-end digests for extension workloads on all three extensible
// planes: the EZK counter, the EDS counter and the sharded 2PC participant.
// Each scenario runs once and must reproduce the packet-trace digest and the
// replica-state digest (Zab applied log, or PBFT tuple space) recorded before
// the sandbox was reduced to a single engine. A handler's steps_used sets
// its simulated CPU charge, so any change in step accounting — or in what a
// handler does — moves a delivery time and with it the packet digest.
// The step limit itself must stay out of the digest: a handler well inside
// its budget produces the same run whatever max_steps is set to.

#include <gtest/gtest.h>

#include <string>

#include "edc/common/result.h"
#include "edc/harness/fixture.h"
#include "edc/recipes/scripts.h"
#include "edc/recipes/two_phase.h"

namespace edc {
namespace {

uint64_t Fnv1aMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

struct RunSig {
  uint64_t packet_digest = 0;
  uint64_t state_hash = 0;
  int64_t invocations = 0;
  int64_t certified = 0;
  int64_t vm_dispatches = 0;
};

// FNV-1a over every replica's applied (zxid, txn hash) log (ZK family) or
// every replica's tuple-space digest (DepSpace family), plus the counters.
RunSig Signature(ClusterFixture& fix, SystemKind system) {
  RunSig sig;
  sig.packet_digest = fix.faults().TraceDigest();
  uint64_t h = 1469598103934665603ull;
  if (IsZkFamily(system)) {
    for (auto& s : fix.zk_servers) {
      for (const auto& [zxid, txn_hash] : s->applied_log()) {
        h = Fnv1aMix(h, zxid);
        h = Fnv1aMix(h, txn_hash);
      }
    }
  } else {
    std::string why;
    EXPECT_TRUE(fix.CheckEdsInvariants(&why)) << why;
    for (auto& s : fix.ds_servers) {
      h = Fnv1aMix(h, s->space().Digest());
    }
  }
  sig.state_hash = h;
  sig.invocations = fix.obs().metrics.CounterValue("ext.invocations");
  sig.certified = fix.obs().metrics.CounterValue("ext.certified");
  sig.vm_dispatches = fix.obs().metrics.CounterValue("ext.vm_dispatches");
  return sig;
}

// Registers the counter extension and bumps it repeatedly.
RunSig RunCounterWorkload(SystemKind system, uint64_t seed,
                          const ExtensionLimits& limits = {}) {
  FixtureOptions options;
  options.system = system;
  options.num_clients = 1;
  options.seed = seed;
  options.limits = limits;
  options.observability = true;  // counters only; proven non-perturbing
  ClusterFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  fix.loop().Schedule(Millis(10), [&fix]() {
    fix.coord(0)->Create("/ctr", "0", [](Result<std::string>) {});
  });
  fix.loop().Schedule(Millis(200), [&fix]() {
    fix.coord(0)->RegisterExtension("ctr_increment", kCounterExtension, [](Status) {});
  });
  for (int i = 0; i < 8; ++i) {
    fix.loop().Schedule(Millis(500) + Millis(100) * i, [&fix]() {
      fix.coord(0)->Read("/ctr-increment", [](Result<std::string>) {});
    });
  }
  fix.Settle(Seconds(5));
  return Signature(fix, system);
}

// Two cross-shard multis through the 2PC participant extension: nested
// foreach over split() results, the heaviest recipe handler.
RunSig RunTwoPhaseWorkload(uint64_t seed) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = 1;
  options.num_shards = 2;
  options.seed = seed;
  options.observability = true;
  ClusterFixture fix(options);
  fix.faults().EnablePacketTrace();
  fix.Start();

  ZkTwoPhase tp(fix.zk_router(0));
  tp.Setup([](Status) {});
  fix.Settle(Seconds(3));
  tp.Attach([](Status) {});
  fix.Settle(Seconds(2));

  const ShardMap& map = fix.shard_map();
  std::string a = map.SubtreeForShard("/ta", 0);
  std::string b = map.SubtreeForShard("/tb", 1);
  tp.Multi({TwoPhaseOp::Create(a, "va"), TwoPhaseOp::Create(b, "vb")},
           [](Status) {});
  fix.Settle(Seconds(5));
  tp.Multi({TwoPhaseOp::Update(a, "va2"), TwoPhaseOp::Delete(b)}, [](Status) {});
  fix.Settle(Seconds(5));
  return Signature(fix, SystemKind::kExtensibleZooKeeper);
}

// Every invocation is certified and, like every invocation, runs on the VM.
void ExpectAllCertifiedOnVm(const RunSig& sig) {
  EXPECT_GT(sig.invocations, 0);
  EXPECT_EQ(sig.certified, sig.invocations);
  EXPECT_EQ(sig.vm_dispatches, sig.invocations);
}

TEST(PinnedDigestTest, EzkCounterMatchesPinnedDigests) {
  RunSig sig = RunCounterWorkload(SystemKind::kExtensibleZooKeeper, 71);
  ExpectAllCertifiedOnVm(sig);
  EXPECT_EQ(sig.packet_digest, 0x7660aa6679d2b8beull);
  EXPECT_EQ(sig.state_hash, 0xf65ebd62e60b17f0ull);
}

// Raising the step limit a hundredfold changes nothing the run can see:
// steps are counted the same way, and only an overrun consults the limit.
TEST(PinnedDigestTest, EzkCounterDigestsIndependentOfStepLimit) {
  ExtensionLimits roomy;
  roomy.max_steps = ExtensionLimits{}.max_steps * 100;
  RunSig sig = RunCounterWorkload(SystemKind::kExtensibleZooKeeper, 71, roomy);
  ExpectAllCertifiedOnVm(sig);
  EXPECT_EQ(sig.packet_digest, 0x7660aa6679d2b8beull);
  EXPECT_EQ(sig.state_hash, 0xf65ebd62e60b17f0ull);
}

TEST(PinnedDigestTest, EdsCounterMatchesPinnedDigests) {
  RunSig sig = RunCounterWorkload(SystemKind::kExtensibleDepSpace, 83);
  ExpectAllCertifiedOnVm(sig);
  EXPECT_EQ(sig.packet_digest, 0x7ce7f58617f600ddull);
  EXPECT_EQ(sig.state_hash, 0x58641ec600424a23ull);
}

TEST(PinnedDigestTest, EdsCounterDigestsIndependentOfStepLimit) {
  ExtensionLimits roomy;
  roomy.max_steps = ExtensionLimits{}.max_steps * 100;
  RunSig sig = RunCounterWorkload(SystemKind::kExtensibleDepSpace, 83, roomy);
  ExpectAllCertifiedOnVm(sig);
  EXPECT_EQ(sig.packet_digest, 0x7ce7f58617f600ddull);
  EXPECT_EQ(sig.state_hash, 0x58641ec600424a23ull);
}

TEST(PinnedDigestTest, TwoPhaseMatchesPinnedDigests) {
  RunSig sig = RunTwoPhaseWorkload(101);
  ExpectAllCertifiedOnVm(sig);
  EXPECT_EQ(sig.packet_digest, 0xf61e18a0f6bba2b0ull);
  EXPECT_EQ(sig.state_hash, 0x74c7268124fdb9d9ull);
}

}  // namespace
}  // namespace edc
