// Cross-shard atomic multi (recipes/two_phase.h) on a live sharded EZK
// fixture: commit across shards, abort on a lock conflict with no partial
// state, retry after the conflict clears — plus the prefix-parameterized
// counter/queue recipes pinned to a chosen shard via SubtreeForShard.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "edc/harness/fixture.h"
#include "edc/recipes/recipes.h"
#include "edc/recipes/two_phase.h"
#include "edc/route/shard_router.h"

namespace edc {
namespace {

FixtureOptions ShardedEzk(size_t shards, size_t clients) {
  FixtureOptions options;
  options.system = SystemKind::kExtensibleZooKeeper;
  options.num_clients = clients;
  options.num_shards = shards;
  return options;
}

// Registers + acknowledges the participant extension on every shard.
void SetupTwoPhase(CoordFixture& fixture, ZkTwoPhase& tp) {
  Status setup = Status(ErrorCode::kInternal, "unset");
  tp.Setup([&](Status s) { setup = s; });
  fixture.Settle(Seconds(3));
  ASSERT_TRUE(setup.ok()) << setup.ToString();
  Status attach = Status(ErrorCode::kInternal, "unset");
  tp.Attach([&](Status s) { attach = s; });
  fixture.Settle(Seconds(2));
  ASSERT_TRUE(attach.ok()) << attach.ToString();
}

std::string ReadVia(CoordFixture& fixture, ZkShardRouter* router, const std::string& path,
                    bool* exists = nullptr) {
  std::string data = "<unset>";
  bool found = false;
  bool done = false;
  router->GetData(path, false, [&](Result<ZkApi::NodeResult> r) {
    done = true;
    found = r.ok();
    if (r.ok()) {
      data = r->data;
    }
  });
  fixture.Settle(Seconds(2));
  EXPECT_TRUE(done);
  if (exists != nullptr) {
    *exists = found;
  }
  return found ? data : "";
}

TEST(TwoPhaseTest, CrossShardCommitIsAtomicAndVisible) {
  CoordFixture fixture(ShardedEzk(4, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  ZkTwoPhase tp(router);
  SetupTwoPhase(fixture, tp);

  const ShardMap& map = fixture.shard_map();
  std::string a = map.SubtreeForShard("/ta", 0);
  std::string b = map.SubtreeForShard("/tb", 1);
  std::string c = map.SubtreeForShard("/tc", 2);
  ASSERT_NE(map.IndexFor(CoordKey::ForPath(a)), map.IndexFor(CoordKey::ForPath(b)));

  Status multi = Status(ErrorCode::kInternal, "unset");
  tp.Multi({TwoPhaseOp::Create(a, "va"), TwoPhaseOp::Create(b, "vb"),
            TwoPhaseOp::Create(c, "vc")},
           [&](Status s) { multi = s; });
  fixture.Settle(Seconds(5));
  ASSERT_TRUE(multi.ok()) << multi.ToString();
  EXPECT_EQ(tp.transactions(), 1);

  EXPECT_EQ(ReadVia(fixture, router, a), "va");
  EXPECT_EQ(ReadVia(fixture, router, b), "vb");
  EXPECT_EQ(ReadVia(fixture, router, c), "vc");

  // Second round: update + delete across the same shards, same atomicity.
  Status round2 = Status(ErrorCode::kInternal, "unset");
  tp.Multi({TwoPhaseOp::Update(a, "va2"), TwoPhaseOp::Delete(b)},
           [&](Status s) { round2 = s; });
  fixture.Settle(Seconds(5));
  ASSERT_TRUE(round2.ok()) << round2.ToString();

  EXPECT_EQ(ReadVia(fixture, router, a), "va2");
  bool b_exists = true;
  ReadVia(fixture, router, b, &b_exists);
  EXPECT_FALSE(b_exists);
  EXPECT_EQ(ReadVia(fixture, router, c), "vc");
}

TEST(TwoPhaseTest, LockConflictAbortsWithoutPartialState) {
  CoordFixture fixture(ShardedEzk(4, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  ZkTwoPhase tp(router);
  SetupTwoPhase(fixture, tp);

  const ShardMap& map = fixture.shard_map();
  std::string free_path = map.SubtreeForShard("/fa", 0);
  std::string locked_path = map.SubtreeForShard("/fb", 1);

  // Plant a foreign lock for locked_path directly on its owning shard (the
  // participant flattens "/fb<salt>" to "_fb<salt>" under /2pc-locks). This
  // is exactly the state a concurrent coordinator's prepare leaves behind.
  uint32_t owner_shard = map.entry(map.IndexFor(CoordKey::ForPath(locked_path))).shard_id;
  ZkClient* sub = router->shard_client(owner_shard);
  ASSERT_NE(sub, nullptr);
  std::string flat = "_" + locked_path.substr(1);  // single component
  Status planted = Status(ErrorCode::kInternal, "unset");
  sub->Create("/2pc-locks", "", false, false, [](Result<std::string>) {});
  sub->Create("/2pc-locks/" + flat, "t9999-1", false, false,
              [&](Result<std::string> r) { planted = r.status(); });
  fixture.Settle(Seconds(2));
  ASSERT_TRUE(planted.ok()) << planted.ToString();

  // The transaction must abort everywhere: no created nodes on either shard,
  // no staged bodies left behind, and the foreign lock untouched.
  Status multi = Status::Ok();
  tp.Multi({TwoPhaseOp::Create(free_path, "x"), TwoPhaseOp::Create(locked_path, "y")},
           [&](Status s) { multi = s; });
  fixture.Settle(Seconds(5));
  EXPECT_FALSE(multi.ok());

  bool exists = true;
  ReadVia(fixture, router, free_path, &exists);
  EXPECT_FALSE(exists) << "aborted txn leaked a node on the unlocked shard";
  ReadVia(fixture, router, locked_path, &exists);
  EXPECT_FALSE(exists);
  EXPECT_EQ(ReadVia(fixture, router, "/2pc-locks/" + flat), "t9999-1");

  // No staged slice may survive the abort on any shard.
  for (size_t s = 0; s < map.size(); ++s) {
    ZkClient* shard_sub = router->shard_client(map.entry(s).shard_id);
    if (shard_sub == nullptr) {
      continue;
    }
    std::vector<std::string> staged;
    bool listed = false;
    shard_sub->GetChildren("/2pc-stage", false,
                           [&](Result<std::vector<std::string>> r) {
                             listed = true;
                             if (r.ok()) {
                               staged = *r;
                             }
                           });
    fixture.Settle(Seconds(1));
    EXPECT_TRUE(listed);
    EXPECT_TRUE(staged.empty()) << "shard " << s << " kept a staged txn";
  }

  // Once the foreign lock clears, the same ops go through.
  Status unlock = Status(ErrorCode::kInternal, "unset");
  sub->Delete("/2pc-locks/" + flat, -1, [&](Status s) { unlock = s; });
  fixture.Settle(Seconds(1));
  ASSERT_TRUE(unlock.ok()) << unlock.ToString();

  Status retry = Status(ErrorCode::kInternal, "unset");
  tp.Multi({TwoPhaseOp::Create(free_path, "x"), TwoPhaseOp::Create(locked_path, "y")},
           [&](Status s) { retry = s; });
  fixture.Settle(Seconds(5));
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(ReadVia(fixture, router, free_path), "x");
  EXPECT_EQ(ReadVia(fixture, router, locked_path), "y");
}

TEST(TwoPhaseTest, SingleShardTransactionWorks) {
  CoordFixture fixture(ShardedEzk(2, 1));
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  ZkTwoPhase tp(router);
  SetupTwoPhase(fixture, tp);

  const ShardMap& map = fixture.shard_map();
  std::string p1 = map.SubtreeForShard("/sa", 1);
  std::string p2 = map.SubtreeForShard("/sb", 1);

  Status multi = Status(ErrorCode::kInternal, "unset");
  tp.Multi({TwoPhaseOp::Create(p1, "one"), TwoPhaseOp::Create(p2, "two")},
           [&](Status s) { multi = s; });
  fixture.Settle(Seconds(5));
  ASSERT_TRUE(multi.ok()) << multi.ToString();
  EXPECT_EQ(ReadVia(fixture, router, p1), "one");
  EXPECT_EQ(ReadVia(fixture, router, p2), "two");
}

// The participant handler's certification is what the interval/length
// analysis layer exists for: every 2PC prepare/commit on every shard must be
// a certified invocation (docs/static_analysis.md), and like every
// invocation it runs on the bytecode VM. A precision regression that
// decertifies the handler shows up here as certified < invocations.
TEST(TwoPhaseTest, ParticipantHandlerIsCertifiedAndRunsOnVm) {
  FixtureOptions options = ShardedEzk(4, 1);
  options.observability = true;
  CoordFixture fixture(options);
  fixture.Start();
  ZkShardRouter* router = fixture.zk_router(0);
  ZkTwoPhase tp(router);
  SetupTwoPhase(fixture, tp);

  const ShardMap& map = fixture.shard_map();
  std::string a = map.SubtreeForShard("/ma", 0);
  std::string b = map.SubtreeForShard("/mb", 1);
  Status multi = Status(ErrorCode::kInternal, "unset");
  tp.Multi({TwoPhaseOp::Create(a, "va"), TwoPhaseOp::Create(b, "vb")},
           [&](Status s) { multi = s; });
  fixture.Settle(Seconds(5));
  ASSERT_TRUE(multi.ok()) << multi.ToString();

  // Registration compiled the handler on every shard, and every invocation
  // (prepare + commit on two shards) was certified and VM-dispatched.
  int64_t invocations = fixture.obs().metrics.CounterValue("ext.invocations");
  EXPECT_GT(fixture.obs().metrics.CounterValue("ext.compiled"), 0);
  EXPECT_GT(invocations, 0);
  EXPECT_EQ(fixture.obs().metrics.CounterValue("ext.certified"), invocations);
  EXPECT_EQ(fixture.obs().metrics.CounterValue("ext.vm_dispatches"), invocations);
}

// --- Prefix-parameterized recipes pinned to a shard ----------------------

TEST(ShardedRecipesTest, PrefixedCountersRunIndependentlyPerShard) {
  CoordFixture fixture(ShardedEzk(4, 2));
  fixture.Start();
  const ShardMap& map = fixture.shard_map();

  // One counter per shard, each namespaced under a subtree pinned to that
  // shard; increments on one never touch the others.
  std::vector<std::unique_ptr<SharedCounter>> counters;
  for (size_t s = 0; s < 2; ++s) {
    std::string prefix = map.SubtreeForShard("/g" + std::to_string(s), s);
    counters.push_back(std::make_unique<SharedCounter>(fixture.coord(0), true, prefix));
    Status setup = Status(ErrorCode::kInternal, "unset");
    counters[s]->Setup([&](Status st) { setup = st; });
    fixture.Settle(Seconds(3));
    ASSERT_TRUE(setup.ok()) << "shard " << s << ": " << setup.ToString();
  }

  std::vector<int64_t> finals(2, 0);
  for (size_t s = 0; s < 2; ++s) {
    int target = s == 0 ? 5 : 3;
    for (int i = 0; i < target; ++i) {
      counters[s]->Increment([&, s](Result<int64_t> r) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        finals[s] = *r;
      });
    }
    fixture.Settle(Seconds(3));
  }
  EXPECT_EQ(finals[0], 5);
  EXPECT_EQ(finals[1], 3);

  // A second client attaches to shard 0's counter and continues the count —
  // the extension is shared per-namespace, not per-client.
  std::string prefix0 = map.SubtreeForShard("/g0", 0);
  SharedCounter other(fixture.coord(1), true, prefix0);
  Status attach = Status(ErrorCode::kInternal, "unset");
  other.Attach([&](Status st) { attach = st; });
  fixture.Settle(Seconds(2));
  ASSERT_TRUE(attach.ok()) << attach.ToString();
  int64_t value = 0;
  other.Increment([&](Result<int64_t> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    value = *r;
  });
  fixture.Settle(Seconds(2));
  EXPECT_EQ(value, 6);
}

TEST(ShardedRecipesTest, PrefixedQueueOnPinnedShard) {
  CoordFixture fixture(ShardedEzk(2, 2));
  fixture.Start();
  const ShardMap& map = fixture.shard_map();
  std::string prefix = map.SubtreeForShard("/q", 1);

  DistributedQueue producer(fixture.coord(0), true, prefix);
  Status setup = Status(ErrorCode::kInternal, "unset");
  producer.Setup([&](Status st) { setup = st; });
  fixture.Settle(Seconds(3));
  ASSERT_TRUE(setup.ok()) << setup.ToString();

  for (int i = 0; i < 3; ++i) {
    producer.Add("e" + std::to_string(i), "item" + std::to_string(i), [](Status st) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    });
    fixture.Settle(Millis(300));  // distinct creation timestamps
  }
  fixture.Settle(Seconds(2));

  DistributedQueue consumer(fixture.coord(1), true, prefix);
  Status attach = Status(ErrorCode::kInternal, "unset");
  consumer.Attach([&](Status st) { attach = st; });
  fixture.Settle(Seconds(2));
  ASSERT_TRUE(attach.ok()) << attach.ToString();

  std::vector<std::string> drained;
  for (int i = 0; i < 3; ++i) {
    consumer.Remove([&](Result<std::string> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      drained.push_back(*r);
    });
    fixture.Settle(Seconds(2));
  }
  EXPECT_EQ(drained, (std::vector<std::string>{"item0", "item1", "item2"}));
}

}  // namespace
}  // namespace edc
