// One run of one benchmark workload on the deterministic simulator.
//
//   edc_perf --workload <name> --seed <n> [--sub <k>] [--traced]
//
// --sub picks one of several independent inputs derived from one --seed, so
// that a run can take its simulated-time metrics over several inputs.
//
// Boots the workload's fixture, drives it through the public recipe/client
// APIs, checks the outputs, and prints one JSON line with the simulated-clock
// metrics (identical for a given build and seed), the native-clock costs of
// this process, and - with --traced - the per-layer numbers. perfbench/run.py
// runs this binary once per repetition and aggregates; the workloads and the
// layers each one loads are described in perfbench/README.md.
//
// Every layer is measured from outside: through the fixture's public
// accessors, the MetricsRegistry the fixture wires when observability is on,
// and the Tracer, whose FinishTrace this program calls itself. It only
// splits EventLoop::RunUntil into slices and reads state between them, so it
// adds no simulated events beyond the workload's own operations and the
// open-loop generator, which run identically traced and untraced.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "edc/check/conformance.h"
#include "edc/check/history.h"
#include "edc/ext/ds_binding.h"
#include "edc/ext/registry.h"
#include "edc/ext/zk_binding.h"
#include "edc/harness/fixture.h"
#include "edc/harness/invariants.h"
#include "edc/recipes/recipes.h"
#include "edc/recipes/scripts.h"
#include "edc/recipes/two_phase.h"

namespace edc {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// SplitMix64 finaliser: the fixture seed and the generator seed are two
// independent streams derived from the one --seed argument.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Per-op bookkeeping for one run. An op is attempted when it is issued inside
// the window; it fails on an error reply, an abort, or no reply by the end of
// the drain. Latency is taken from the time the op was due, which for both
// loops is the simulated time it was issued (the open-loop generator runs on
// the simulated clock and cannot fall behind).
struct Meter {
  CoordFixture* fx = nullptr;
  SimTime start = 0;
  SimTime end = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t outstanding = 0;  // attempted ops still without a reply
  int64_t outstanding_writes = 0;
  Recorder latency;  // successful ops issued and completed inside the window, ns
  Recorder read_latency;
  Recorder write_latency;
  std::vector<SimTime> write_done;  // successful write completions inside the window
  // Stage attribution of the same ops (traced runs only).
  int64_t stage_ns[kStageCount] = {};
  int64_t stage_latency_ns = 0;
  int64_t stage_ops = 0;
  // Native cost of Tracer::FinishTrace, measured around the call.
  int64_t finish_calls = 0;
  double finish_s = 0;

  struct Op {
    SimTime due = 0;
    TraceContext root;
    bool write = false;
    bool counted = false;
  };

  // Opens the op (and its trace when the tracer is on). The caller issues the
  // request, then calls Issued() to restore the ambient trace context.
  Op Begin(size_t client, bool write, TraceContext* prev) {
    Op op;
    op.due = fx->loop().now();
    op.write = write;
    op.counted = op.due >= start && op.due < end;
    if (op.counted) {
      ++attempted;
      ++outstanding;
      outstanding_writes += write ? 1 : 0;
    }
    Tracer& tracer = fx->obs().tracer;
    *prev = tracer.current();
    if (tracer.enabled()) {
      op.root = tracer.BeginTrace("client.op", static_cast<uint32_t>(fx->client_node(client)),
                                  op.due);
    }
    return op;
  }
  void Issued(const Op& op, const TraceContext& prev) {
    if (op.root.active()) {
      fx->obs().tracer.SetCurrent(prev);
    }
  }

  void End(const Op& op, bool ok) {
    SimTime done = fx->loop().now();
    StageBreakdown breakdown;
    if (op.root.active()) {
      auto t0 = Clock::now();
      breakdown = fx->obs().tracer.FinishTrace(op.root, done);
      finish_s += SecondsSince(t0);
      ++finish_calls;
    }
    if (ok && op.write && done >= start && done <= end) {
      write_done.push_back(done);
    }
    if (!op.counted) {
      return;
    }
    --outstanding;
    outstanding_writes -= op.write ? 1 : 0;
    if (!ok) {
      ++failed;
      return;
    }
    if (done > end) {
      return;
    }
    int64_t lat = done - op.due;
    latency.Record(lat);
    (op.write ? write_latency : read_latency).Record(lat);
    if (op.root.active()) {
      for (size_t i = 0; i < kStageCount; ++i) {
        stage_ns[i] += breakdown.ns[i];
      }
      stage_latency_ns += lat;
      ++stage_ops;
    }
  }

  // Called once the drain is over: ops still open never got a reply.
  void CloseDrain() { failed += outstanding; }

  int64_t ok_ops() const { return static_cast<int64_t>(latency.count()); }

  // Longest gap between consecutive successful write completions.
  int64_t MaxWriteGap() const {
    int64_t gap = 0;
    for (size_t i = 1; i < write_done.size(); ++i) {
      gap = std::max(gap, write_done[i] - write_done[i - 1]);
    }
    return gap;
  }
};

// One closed-loop client population: each client re-issues `op` as soon as
// the previous one completes, until the window ends. Every closed-loop op
// here writes, so each counts for unavail_ms.
class ClosedLoopRun {
 public:
  using OpFn = std::function<void(size_t client, std::function<void(bool ok)> done)>;

  ClosedLoopRun(Meter* meter, OpFn op) : meter_(meter), op_(std::move(op)) {}

  void StartAll() {
    for (size_t i = 0; i < meter_->fx->num_clients(); ++i) {
      Issue(i);
    }
  }

 private:
  void Issue(size_t i) {
    if (meter_->fx->loop().now() >= meter_->end) {
      return;
    }
    TraceContext prev;
    Meter::Op op = meter_->Begin(i, /*write=*/true, &prev);
    op_(i, [this, i, op](bool ok) {
      meter_->End(op, ok);
      Issue(i);
    });
    meter_->Issued(op, prev);
  }

  Meter* meter_;
  OpFn op_;
};

// Counters, CPU busy time and link totals at a window boundary.
struct Snapshot {
  uint64_t events = 0;
  int64_t client_bytes = 0;
  std::map<std::string, int64_t> counters;
  std::vector<int64_t> busy;  // per server, zk_servers then ds_servers
  int64_t server_packets = 0;  // inter-server links only
  int64_t server_bytes = 0;

  int64_t CounterValue(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

bool IsServerNode(NodeId id) { return id < 100; }

Snapshot TakeSnapshot(CoordFixture& fx) {
  Snapshot s;
  s.events = fx.loop().events_processed();
  s.client_bytes = fx.ClientBytesSent();
  for (const auto& [name, counter] : fx.obs().metrics.counters()) {
    s.counters[name] = counter.total();
  }
  for (const auto& server : fx.zk_servers) {
    s.busy.push_back(server->cpu().busy_ns());
  }
  for (const auto& server : fx.ds_servers) {
    s.busy.push_back(server->cpu().busy_ns());
  }
  fx.CollectMetrics();
  // Gauges are "net.link.<src>-><dst>.packets|bytes".
  for (const auto& [name, value] : fx.obs().metrics.gauges()) {
    unsigned long src = 0;
    unsigned long dst = 0;
    char field[16] = {};
    if (std::sscanf(name.c_str(), "net.link.%lu->%lu.%15s", &src, &dst, field) != 3) {
      continue;
    }
    if (!IsServerNode(static_cast<NodeId>(src)) || !IsServerNode(static_cast<NodeId>(dst))) {
      continue;
    }
    if (std::strcmp(field, "packets") == 0) {
      s.server_packets += value;
    } else if (std::strcmp(field, "bytes") == 0) {
      s.server_bytes += value;
    }
  }
  return s;
}

// Window-only histograms: cleared at the window start, read at its end.
const char* const kWindowHistograms[] = {"cpu.queue_wait_ns", "logstore.batch_records",
                                         "logstore.inflight"};

// ---------------------------------------------------------------- results

struct JsonOut {
  std::string body;
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Add(key, buf);
  }
  void Int(const std::string& key, int64_t value) { Add(key, std::to_string(value)); }
  void Add(const std::string& key, const std::string& raw) {
    if (!body.empty()) {
      body += ", ";
    }
    body += "\"" + key + "\": " + raw;
  }
  std::string Object() const { return "{" + body + "}"; }
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

struct Run {
  std::vector<std::string> errors;
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  }

  // Filled by the workload.
  Meter meter;
  Duration window = 0;
  double setup_s = 0;
  double boot_s = 0;
  double recipe_s = 0;
  double wall_s = 0;
  Snapshot begin;
  Snapshot end;
  int64_t retries = 0;           // recipe-level retries (traditional paths)
  int64_t aborts = 0;            // failed 2PC transactions
  int64_t stale_refreshes = 0;   // shard-map refreshes by the routers
  std::vector<std::vector<size_t>> shard_servers;  // server indices per shard
  int64_t leaderless_ns = 0;
  // Window-only histograms, read at the window end.
  double queue_wait_p99_ms = 0;
  double batch_records_mean = 0;
  double inflight_max = 0;
  std::string script_name;    // extension whose load/dispatch cost is replayed
  std::string script_source;
  bool script_ds = false;     // verify under the EDS (deterministic) config
};

// --------------------------------------------------------------- helpers

bool WaitUntil(CoordFixture& fx, const std::function<bool()>& pred, Duration max) {
  SimTime deadline = fx.loop().now() + max;
  while (!pred() && fx.loop().now() < deadline) {
    fx.Settle(Millis(10));
  }
  return pred();
}

// Setup on client 0 (owner), Attach on every other client.
template <typename Recipe>
bool SetupAll(CoordFixture& fx, std::vector<std::unique_ptr<Recipe>>& recipes, Run& run) {
  Status setup(ErrorCode::kInternal, "pending");
  bool setup_done = false;
  recipes[0]->Setup([&](Status s) {
    setup = s;
    setup_done = true;
  });
  if (!WaitUntil(fx, [&] { return setup_done; }, Seconds(30)) || !setup.ok()) {
    run.Check(false, "recipe setup failed: " + setup.ToString());
    return false;
  }
  size_t attached = 1;
  bool attach_ok = true;
  for (size_t i = 1; i < recipes.size(); ++i) {
    recipes[i]->Attach([&](Status s) {
      attach_ok = attach_ok && s.ok();
      ++attached;
    });
  }
  bool ok = WaitUntil(fx, [&] { return attached == recipes.size(); }, Seconds(30));
  run.Check(ok && attach_ok, "recipe attach failed");
  return ok && attach_ok;
}

// Runs warm-up, window and drain, snapshotting at the window boundaries.
// `during` runs the window itself (default: one RunUntil).
void Measure(CoordFixture& fx, Run& run, Duration drain,
             const std::function<void()>& during = nullptr) {
  Meter& m = run.meter;
  fx.loop().RunUntil(m.start);
  run.begin = TakeSnapshot(fx);
  for (const char* name : kWindowHistograms) {
    fx.obs().metrics.GetHistogram(name)->Clear();
  }
  if (during) {
    during();
  } else {
    fx.loop().RunUntil(m.end);
  }
  run.end = TakeSnapshot(fx);
  const MetricsRegistry& metrics = fx.obs().metrics;
  if (const Recorder* r = metrics.Histogram("cpu.queue_wait_ns")) {
    run.queue_wait_p99_ms = Ms(r->Percentile(0.99));
  }
  if (const Recorder* r = metrics.Histogram("logstore.batch_records")) {
    run.batch_records_mean = r->empty() ? 0.0 : r->Mean();
  }
  if (const Recorder* r = metrics.Histogram("logstore.inflight")) {
    run.inflight_max = r->empty() ? 0.0 : static_cast<double>(r->Max());
  }
  fx.loop().RunUntil(m.end + drain);
  m.CloseDrain();
}

FixtureOptions BaseOptions(SystemKind system, size_t clients, uint64_t seed, bool traced) {
  FixtureOptions options;
  options.system = system;
  options.num_clients = clients;
  options.seed = DeriveSeed(seed, 1);
  options.observability = traced;
  const char* dir = std::getenv("EDC_TRACE_DIR");
  options.retain_spans = traced && dir != nullptr && *dir != '\0';
  return options;
}

void ExportSpans(CoordFixture& fx, const std::string& workload, uint64_t seed) {
  const char* dir = std::getenv("EDC_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path =
      std::string(dir) + "/TRACE_perfbench_" + workload + "_s" + std::to_string(seed) + ".json";
  if (!fx.obs().tracer.ExportJson(path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
}

std::string ZkData(const ZkServer& server, const std::string& path, bool* found) {
  auto node = server.tree().Get(path);
  *found = node.ok();
  return node.ok() ? node->data : std::string();
}

// ------------------------------------------------------------- workloads

constexpr Duration kDrain = Seconds(2);

// EZK, 3 replicas, 50 clients incrementing one shared counter through the
// counter extension, observability on (as bench/fig06_counter runs it).
void RunEzkCounter(uint64_t seed, bool traced, Run& run) {
  constexpr size_t kClients = 50;
  constexpr Duration kWarmup = Millis(200);
  constexpr Duration kWindow = Millis(600);
  auto t0 = Clock::now();
  FixtureOptions options = BaseOptions(SystemKind::kExtensibleZooKeeper, kClients, seed, true);
  CoordFixture fx(options);
  fx.Start();
  run.boot_s = SecondsSince(t0);
  auto t1 = Clock::now();
  std::vector<std::unique_ptr<SharedCounter>> counters;
  for (size_t i = 0; i < kClients; ++i) {
    counters.push_back(std::make_unique<SharedCounter>(fx.coord(i), true));
  }
  if (!SetupAll(fx, counters, run)) {
    return;
  }
  run.recipe_s = SecondsSince(t1);
  run.setup_s = SecondsSince(t0);
  run.script_name = "ctr_increment";
  run.script_source = kCounterExtension;

  Meter& m = run.meter;
  m.fx = &fx;
  m.start = fx.loop().now() + kWarmup;
  m.end = m.start + kWindow;
  run.window = kWindow;
  std::vector<int64_t> values;
  ClosedLoopRun loop(&m, [&](size_t i, std::function<void(bool)> done) {
    counters[i]->Increment([&values, done = std::move(done)](Result<int64_t> r) {
      if (r.ok()) {
        values.push_back(*r);
      }
      done(r.ok());
    });
  });
  auto t2 = Clock::now();
  loop.StartAll();
  Measure(fx, run, kDrain);
  run.wall_s = SecondsSince(t2);

  for (const auto& counter : counters) {
    run.retries += counter->retries();
  }
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  run.Check(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
            "ezk_counter: two increments returned the same value");
  for (const auto& server : fx.zk_servers) {
    bool found = false;
    std::string data = ZkData(*server, "/ctr", &found);
    run.Check(found && data == std::to_string(values.size()),
              "ezk_counter: replica " + std::to_string(server->id()) + " holds /ctr=" + data +
                  " after " + std::to_string(values.size()) + " successful increments");
  }
  if (traced) {
    ExportSpans(fx, "ezk_counter", seed);
  }
}

// EDS, 4 BFT replicas, 20 clients each adding one element and removing the
// queue head through the queue extension; one op = one add+remove pair.
void RunEdsQueue(uint64_t seed, bool traced, Run& run) {
  constexpr size_t kClients = 20;
  constexpr Duration kWarmup = Millis(200);
  constexpr Duration kWindow = Millis(500);
  auto t0 = Clock::now();
  FixtureOptions options = BaseOptions(SystemKind::kExtensibleDepSpace, kClients, seed, traced);
  CoordFixture fx(options);
  fx.Start();
  run.boot_s = SecondsSince(t0);
  auto t1 = Clock::now();
  std::vector<std::unique_ptr<DistributedQueue>> queues;
  for (size_t i = 0; i < kClients; ++i) {
    queues.push_back(std::make_unique<DistributedQueue>(fx.coord(i), true));
  }
  if (!SetupAll(fx, queues, run)) {
    return;
  }
  run.recipe_s = SecondsSince(t1);
  run.setup_s = SecondsSince(t0);
  run.script_name = "queue_remove";
  run.script_source = kQueueExtension;
  run.script_ds = true;

  Meter& m = run.meter;
  m.fx = &fx;
  m.start = fx.loop().now() + kWarmup;
  m.end = m.start + kWindow;
  run.window = kWindow;
  std::vector<int64_t> next_id(kClients, 0);
  std::set<std::string> added;
  std::set<std::string> removed;
  bool duplicate_remove = false;
  bool unknown_remove = false;
  ClosedLoopRun loop(&m, [&](size_t i, std::function<void(bool)> done) {
    std::string id = "c" + std::to_string(i) + "-" + std::to_string(++next_id[i]);
    queues[i]->Add(id, id, [&, i, id, done = std::move(done)](Status s) {
      if (!s.ok()) {
        done(false);
        return;
      }
      added.insert(id);
      // The add is a write of its own, so it counts for unavail_ms.
      SimTime now = fx.loop().now();
      if (now >= m.start && now <= m.end) {
        m.write_done.push_back(now);
      }
      queues[i]->Remove([&, done](Result<std::string> r) {
        if (r.ok()) {
          unknown_remove = unknown_remove || added.count(*r) == 0;
          duplicate_remove = duplicate_remove || !removed.insert(*r).second;
        }
        done(r.ok());
      });
    });
  });
  auto t2 = Clock::now();
  loop.StartAll();
  Measure(fx, run, kDrain);
  run.wall_s = SecondsSince(t2);

  for (const auto& queue : queues) {
    run.retries += queue->retries();
  }
  run.Check(!unknown_remove, "eds_queue: removed an element that was never added");
  run.Check(!duplicate_remove, "eds_queue: an element was removed twice");
  std::string why;
  run.Check(fx.CheckEdsInvariants(&why), "eds_queue: " + why);
  if (traced) {
    ExportSpans(fx, "eds_queue", seed);
  }
}

// Four EZK shards, 16 clients; each op is one ZkTwoPhase::Multi that
// upserts the client's two private keys, which live on two different shards.
void RunShard2pc(uint64_t seed, bool traced, Run& run) {
  constexpr size_t kClients = 16;
  constexpr size_t kShards = 4;
  constexpr Duration kWarmup = Millis(300);
  constexpr Duration kWindow = Millis(600);
  auto t0 = Clock::now();
  FixtureOptions options = BaseOptions(SystemKind::kExtensibleZooKeeper, kClients, seed, traced);
  options.num_shards = kShards;
  CoordFixture fx(options);
  fx.Start();
  run.boot_s = SecondsSince(t0);
  auto t1 = Clock::now();
  std::vector<std::unique_ptr<ZkTwoPhase>> txns;
  for (size_t i = 0; i < kClients; ++i) {
    txns.push_back(std::make_unique<ZkTwoPhase>(fx.zk_router(i)));
  }
  if (!SetupAll(fx, txns, run)) {
    return;
  }
  run.recipe_s = SecondsSince(t1);
  run.setup_s = SecondsSince(t0);
  run.script_name = "two_phase";
  run.script_source = kTwoPhaseExtension;
  for (size_t s = 0; s < kShards; ++s) {
    std::vector<size_t> indices;
    for (size_t k = 0; k < fx.zk_servers.size(); ++k) {
      if (CoordFixture::ServerShardOf(fx.zk_servers[k]->id()) == s) {
        indices.push_back(k);
      }
    }
    run.shard_servers.push_back(indices);
  }

  // Client i owns one key on shard i%4 and one on shard (i+1)%4.
  const ShardMap& map = fx.shard_map();
  struct Keys {
    std::string a;
    std::string b;
    size_t shard_a = 0;
    size_t shard_b = 0;
    int64_t seq = 0;
    int64_t committed = 0;  // last committed sequence number
  };
  std::vector<Keys> keys(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    keys[i].shard_a = i % kShards;
    keys[i].shard_b = (i + 1) % kShards;
    keys[i].a = map.SubtreeForShard("/ka" + std::to_string(i), keys[i].shard_a);
    keys[i].b = map.SubtreeForShard("/kb" + std::to_string(i), keys[i].shard_b);
  }
  auto value = [](size_t i, int64_t seq) {
    return "c" + std::to_string(i) + "-" + std::to_string(seq);
  };

  Meter& m = run.meter;
  m.fx = &fx;
  m.start = fx.loop().now() + kWarmup;
  m.end = m.start + kWindow;
  run.window = kWindow;
  ClosedLoopRun loop(&m, [&](size_t i, std::function<void(bool)> done) {
    int64_t seq = ++keys[i].seq;
    std::string v = value(i, seq);
    txns[i]->Multi({TwoPhaseOp::Update(keys[i].a, v), TwoPhaseOp::Update(keys[i].b, v)},
                   [&, i, seq, done = std::move(done)](Status s) {
                     if (s.ok()) {
                       keys[i].committed = std::max(keys[i].committed, seq);
                     } else {
                       ++run.aborts;
                     }
                     done(s.ok());
                   });
  });
  auto t2 = Clock::now();
  loop.StartAll();
  Measure(fx, run, kDrain);
  run.wall_s = SecondsSince(t2);

  for (size_t i = 0; i < kClients; ++i) {
    run.stale_refreshes += fx.zk_router(i)->stale_refreshes();
  }
  run.Check(run.aborts == 0,
            "shard_2pc: " + std::to_string(run.aborts) + " aborts on disjoint keys");
  for (size_t i = 0; i < kClients; ++i) {
    if (keys[i].committed == 0) {
      continue;
    }
    std::string want = value(i, keys[i].committed);
    for (auto [path, shard] : {std::pair{keys[i].a, keys[i].shard_a},
                               std::pair{keys[i].b, keys[i].shard_b}}) {
      for (size_t k : run.shard_servers[shard]) {
        bool found = false;
        std::string got = ZkData(*fx.zk_servers[k], path, &found);
        run.Check(found && got == want, "shard_2pc: " + path + " holds '" + got +
                                            "', committed '" + want + "'");
      }
    }
  }
  for (size_t s = 0; s < kShards; ++s) {
    std::string why;
    run.Check(PrefixConsistentLogs(fx.ZkShardServers(static_cast<uint32_t>(s)), &why),
              "shard_2pc: shard " + std::to_string(s) + ": " + why);
  }
  if (traced) {
    ExportSpans(fx, "shard_2pc", seed);
  }
}

// EZK, 3 replicas, 30 clients each owning one 256-byte object; an open-loop
// generator on the simulated clock issues 20k ops/s, 90% reads, round-robin
// over the clients. The leader crashes 2 s into the window and restarts 2 s
// later.
//
// Not a workload of BENCHMARK.json: the server fails this workload's history
// check on every input (perfbench/README.md, "Known defects"). It stays here,
// runnable as `edc_perf --workload zk_failover`, to reproduce those defects.
void RunZkFailover(uint64_t seed, bool traced, Run& run) {
  constexpr size_t kClients = 30;
  constexpr size_t kObjectBytes = 256;
  constexpr Duration kWarmup = Millis(500);
  constexpr Duration kWindow = Seconds(6);
  constexpr Duration kCrashAt = Seconds(2);
  constexpr Duration kDowntime = Seconds(2);
  constexpr Duration kInterval = Micros(50);  // 20k ops/s
  constexpr uint64_t kReadPercent = 90;
  auto t0 = Clock::now();
  FixtureOptions options = BaseOptions(SystemKind::kExtensibleZooKeeper, kClients, seed, traced);
  HistoryRecorder history;  // outlives the fixture: its observers capture it
  CoordFixture fx(options);
  fx.Start();
  history.Attach(fx);
  run.boot_s = SecondsSince(t0);
  auto t1 = Clock::now();
  auto path = [](size_t i) { return "/obj" + std::to_string(i); };
  auto payload = [](size_t i, int64_t seq) {
    std::string v = "c" + std::to_string(i) + "-" + std::to_string(seq) + "-";
    v.resize(kObjectBytes, 'x');
    return v;
  };
  size_t created = 0;
  bool create_ok = true;
  for (size_t i = 0; i < kClients; ++i) {
    fx.zk_client(i)->Create(path(i), payload(i, 0), false, false, [&](Result<std::string> r) {
      create_ok = create_ok && r.ok();
      ++created;
    });
  }
  bool ready = WaitUntil(fx, [&] { return created == kClients; }, Seconds(10));
  run.Check(ready && create_ok, "zk_failover: object creation failed");
  if (!ready || !create_ok) {
    return;
  }
  run.recipe_s = SecondsSince(t1);
  run.setup_s = SecondsSince(t0);

  Meter& m = run.meter;
  m.fx = &fx;
  m.start = fx.loop().now() + kWarmup;
  m.end = m.start + kWindow;
  run.window = kWindow;
  Rng rng(DeriveSeed(seed, 2));
  std::vector<int64_t> next_seq(kClients, 0);
  std::vector<int64_t> acked(kClients, 0);  // highest acknowledged write per client
  uint64_t k = 0;
  std::function<void()> generate = [&]() {
    SimTime now = fx.loop().now();
    if (now >= m.end) {
      return;
    }
    size_t i = k++ % kClients;
    bool write = rng.NextU64() % 100 >= kReadPercent;
    TraceContext prev;
    Meter::Op op = m.Begin(i, write, &prev);
    if (write) {
      int64_t seq = ++next_seq[i];
      fx.zk_client(i)->SetData(path(i), payload(i, seq), -1, [&, i, seq, op](Status s) {
        if (s.ok()) {
          acked[i] = std::max(acked[i], seq);
        }
        m.End(op, s.ok());
      });
    } else {
      fx.zk_client(i)->GetData(path(i), false, [&, op](Result<ZkApi::NodeResult> r) {
        m.End(op, r.ok());
      });
    }
    m.Issued(op, prev);
    fx.loop().ScheduleAt(now + kInterval, generate);
  };
  fx.loop().ScheduleAt(fx.loop().now(), generate);

  NodeId crashed = 0;
  auto t2 = Clock::now();
  Measure(fx, run, kDrain, [&] {
    fx.loop().RunUntil(m.start + kCrashAt);
    for (const auto& server : fx.zk_servers) {
      if (server->running() && server->IsLeader()) {
        crashed = server->id();
      }
    }
    run.Check(crashed != 0, "zk_failover: no leader to crash");
    if (crashed == 0) {
      fx.loop().RunUntil(m.end);
      return;
    }
    fx.faults().Crash(crashed);
    SimTime crash_time = fx.loop().now();
    SimTime restart_time = crash_time + kDowntime;
    // Leaderless time, sampled between 10 us slices.
    bool leader = false;
    while (!leader && fx.loop().now() < restart_time) {
      fx.loop().RunUntil(fx.loop().now() + Micros(10));
      for (const auto& server : fx.zk_servers) {
        leader = leader || (server->running() && server->IsLeader());
      }
    }
    run.leaderless_ns = fx.loop().now() - crash_time;
    fx.loop().RunUntil(restart_time);
    fx.faults().Restart(crashed);
    fx.loop().RunUntil(m.end);
  });
  run.wall_s = SecondsSince(t2);

  CheckReport report = CheckZkHistory(history);
  run.Check(report.ok(), "zk_failover: history check: " + report.ToString());
  std::string why;
  run.Check(PrefixConsistentLogs(fx.zk_servers, &why), "zk_failover: " + why);
  for (const auto& server : fx.zk_servers) {
    if (!server->running()) {
      continue;
    }
    for (size_t i = 0; i < kClients; ++i) {
      bool found = false;
      std::string data = ZkData(*server, path(i), &found);
      int64_t seq = found ? std::atoll(data.c_str() + data.find('-') + 1) : -1;
      run.Check(seq >= acked[i], "zk_failover: replica " + std::to_string(server->id()) +
                                     " lost acknowledged write " + std::to_string(acked[i]) +
                                     " of " + path(i));
    }
  }
  if (traced) {
    ExportSpans(fx, "zk_failover", seed);
  }
}

// -------------------------------------------------- script layer replays

// In-memory coordination state with the bindings' host-function contract,
// so the extension's handler runs without consensus or networking.
class MapHost : public ScriptHost {
 public:
  bool HasFunction(const std::string& name) const override {
    return name == "exists" || name == "create" || name == "update" ||
           name == "delete_object" || name == "read_object" || name == "sub_objects";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    const std::string& path = args[0].AsStr();
    if (name == "exists") {
      return Value(store_.count(path) > 0);
    }
    if (name == "read_object") {
      auto it = store_.find(path);
      return it == store_.end() ? Value() : Node(it->first, it->second);
    }
    if (name == "sub_objects") {
      ValueList items;
      for (auto it = store_.lower_bound(path + "/");
           it != store_.end() && it->first.compare(0, path.size() + 1, path + "/") == 0; ++it) {
        items.push_back(Node(it->first, it->second));
      }
      return Value::List(std::move(items));
    }
    if (name == "create" || name == "update") {
      Put(path, args.size() > 1 && args[1].is_str() ? args[1].AsStr() : "");
      return Value(true);
    }
    store_.erase(path);
    return Value(true);
  }

  void Put(const std::string& path, const std::string& data) {
    auto [it, inserted] = store_.insert_or_assign(path, data);
    if (inserted) {
      ctime_[path] = ++clock_;
    }
  }

 private:
  Value Node(const std::string& path, const std::string& data) {
    ValueMap node;
    node.emplace("path", Value(path));
    node.emplace("data", Value(data));
    node.emplace("ctime", Value(ctime_[path]));
    return Value::Map(std::move(node));
  }

  std::map<std::string, std::string> store_;
  std::map<std::string, int64_t> ctime_;
  int64_t clock_ = 0;
};

// The verifier config the EZK or EDS binding builds, taken from a manager on
// a throwaway, never-started server (the host-function lists are private to
// the bindings).
VerifierConfig BindingVerifierConfig(bool ds, const ExtensionLimits& limits) {
  EventLoop loop;
  Network net(&loop, Rng(1), LinkParams{});
  if (ds) {
    DsServer server(&loop, &net, 1, {1, 2, 3, 4}, CostModel{}, DsServerOptions{});
    DsExtensionManager manager(&server, limits);
    return manager.verifier_config();
  }
  ZkServer server(&loop, &net, 1, {1, 2, 3}, CostModel{}, ZkServerOptions{});
  ZkExtensionManager manager(&server, limits);
  return manager.verifier_config();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Native ms per ExtensionRegistry::Load of the workload's recipe source
// (parse, verify, analyse, compile), median of repeated loads.
double ScriptLoadMs(Run& run) {
  ExtensionLimits limits;
  VerifierConfig config = BindingVerifierConfig(run.script_ds, limits);
  std::vector<double> samples;
  for (int rep = 0; rep < 30; ++rep) {
    ExtensionRegistry registry;
    auto t0 = Clock::now();
    Status s = registry.Load(run.script_name, 1, run.script_source, config);
    samples.push_back(SecondsSince(t0) * 1e3);
    if (!s.ok()) {
      run.Check(false, "script load failed: " + s.ToString());
      return 0;
    }
  }
  return Median(samples);
}

// Native us per RunExtensionHandler call, replaying the workload's own
// handler and arguments against MapHost; median over batches.
double ScriptHandlerUs(Run& run) {
  ExtensionLimits limits;
  VerifierConfig config = BindingVerifierConfig(run.script_ds, limits);
  ExtensionRegistry registry;
  Status s = registry.Load(run.script_name, 1, run.script_source, config);
  const LoadedExtension* ext = registry.Find(run.script_name);
  if (!s.ok() || ext == nullptr) {
    run.Check(false, "script load failed: " + s.ToString());
    return 0;
  }
  MapHost host;
  // One workload op's worth of handler calls; returns calls made.
  std::function<int()> op;
  int64_t counter = 0;
  if (run.script_name == "ctr_increment") {
    host.Put("/ctr", "0");
    op = [&] {
      HandlerRun r = RunExtensionHandler(*ext, "read", {Value("/ctr-increment")}, &host, limits);
      run.Check(r.result.ok() && r.result->AsInt() == ++counter, "counter replay diverged");
      return 1;
    };
  } else if (run.script_name == "queue_remove") {
    op = [&] {
      std::string id = "e" + std::to_string(++counter);
      host.Put("/queue/" + id, id);
      HandlerRun r = RunExtensionHandler(*ext, "read", {Value("/queue/head")}, &host, limits);
      run.Check(r.result.ok() && r.result->AsStr() == id, "queue replay diverged");
      return 1;
    };
  } else {
    // One participant's prepare + commit, with the path shape shard_2pc uses.
    op = [&] {
      std::string txid = "t1000-" + std::to_string(++counter);
      std::string v = "c0-" + std::to_string(counter);
      HandlerRun prep = RunExtensionHandler(
          *ext, "update", {Value("/2pc-prepare~7"), Value(txid + "|u:/ka0~3:" + v)}, &host,
          limits);
      HandlerRun commit = RunExtensionHandler(
          *ext, "update", {Value("/2pc-commit~5"), Value(txid)}, &host, limits);
      run.Check(prep.result.ok() && commit.result.ok() &&
                       commit.result->AsStr() == "committed",
                   "two_phase replay diverged");
      return 2;
    };
  }
  std::vector<double> batches;
  for (int b = 0; b < 15; ++b) {
    int calls = 0;
    auto t0 = Clock::now();
    for (int j = 0; j < 200; ++j) {
      calls += op();
    }
    batches.push_back(SecondsSince(t0) * 1e6 / calls);
  }
  return Median(batches);
}

// ------------------------------------------------------------------ main

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string PerLayerJson(Run& run) {
  const Meter& m = run.meter;
  double ops = static_cast<double>(std::max<int64_t>(m.ok_ops(), 1));
  auto delta = [&](const std::string& name) {
    return static_cast<double>(run.end.CounterValue(name) - run.begin.CounterValue(name));
  };
  auto per_op = [&](const std::string& name) { return delta(name) / ops; };
  auto safe_ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double window_ns = static_cast<double>(run.window);
  JsonOut j;
  double events = static_cast<double>(run.end.events - run.begin.events);
  j.Num("sim.events_per_op", events / ops);
  j.Num("net.packets_per_op",
        static_cast<double>(run.end.server_packets - run.begin.server_packets) / ops);
  j.Num("net.bytes_per_op",
        static_cast<double>(run.end.server_bytes - run.begin.server_bytes) / ops);
  double util_max = 0;
  std::vector<double> busy(run.end.busy.size());
  for (size_t k = 0; k < busy.size(); ++k) {
    busy[k] = static_cast<double>(run.end.busy[k] - run.begin.busy[k]);
    util_max = std::max(util_max, busy[k] / window_ns);
  }
  j.Num("cpu.util_max", util_max);
  j.Num("cpu.queue_wait_p99_ms", run.queue_wait_p99_ms);
  j.Num("logstore.syncs_per_op", per_op("logstore.syncs"));
  j.Num("logstore.batch_records_mean", run.batch_records_mean);
  j.Num("logstore.inflight_max", run.inflight_max);
  j.Num("zab.proposals_per_op", per_op("zab.proposals"));
  j.Num("zab.commits_per_op", per_op("zab.commits"));
  j.Num("zab.leaderless_ms", Ms(run.leaderless_ns));
  j.Num("bft.prepares_per_op", per_op("bft.prepares"));
  j.Num("bft.commits_per_op", per_op("bft.commits"));
  j.Num("client.ds.retransmits_per_op", per_op("client.ds.retransmits"));
  j.Num("zk.read_p50_ms", Ms(m.read_latency.Percentile(0.5)));
  j.Num("zk.read_p99_ms", Ms(m.read_latency.Percentile(0.99)));
  j.Num("zk.write_p50_ms", Ms(m.write_latency.Percentile(0.5)));
  j.Num("zk.write_p99_ms", Ms(m.write_latency.Percentile(0.99)));
  // Session-level events are counted over the whole run: setup has none.
  j.Num("client.zk.failovers", static_cast<double>(run.end.CounterValue("client.zk.failovers")));
  j.Num("client.zk.reconnect_attempts",
        static_cast<double>(run.end.CounterValue("client.zk.reconnect_attempts")));
  j.Num("client.zk.sessions_expired",
        static_cast<double>(run.end.CounterValue("client.zk.sessions_expired")));
  j.Num("zk.unanswered", static_cast<double>(m.outstanding));
  j.Num("zk.unanswered_writes", static_cast<double>(m.outstanding_writes));
  double invocations = delta("ext.invocations");
  j.Num("ext.invocations_per_op", invocations / ops);
  j.Num("ext.steps_per_invocation", safe_ratio(delta("ext.steps"), invocations));
  j.Num("ext.vm_share", safe_ratio(delta("ext.vm_dispatches"), invocations));
  j.Num("recipes.retries_per_op", static_cast<double>(run.retries) / ops);
  j.Num("twopc.aborts_per_txn",
        safe_ratio(static_cast<double>(run.aborts), static_cast<double>(m.attempted)));
  j.Num("route.stale_refreshes", static_cast<double>(run.stale_refreshes));
  double shard_ratio = 0;
  if (!run.shard_servers.empty()) {
    std::vector<double> per_shard;
    for (const auto& indices : run.shard_servers) {
      double sum = 0;
      for (size_t k : indices) {
        sum += busy[k];
      }
      per_shard.push_back(sum);
    }
    double mean = 0;
    for (double v : per_shard) {
      mean += v / static_cast<double>(per_shard.size());
    }
    shard_ratio = safe_ratio(*std::max_element(per_shard.begin(), per_shard.end()), mean);
  }
  j.Num("route.shard_busy_max_over_mean", shard_ratio);
  j.Num("obs.finish_trace_us",
        m.finish_calls > 0 ? m.finish_s * 1e6 / static_cast<double>(m.finish_calls) : 0.0);
  static const Stage kStages[] = {Stage::kQueue, Stage::kCpu, Stage::kNetwork, Stage::kFsync,
                                  Stage::kOther};
  for (Stage stage : kStages) {
    double mean_ms = m.stage_ops > 0 ? Ms(m.stage_ns[static_cast<size_t>(stage)]) /
                                           static_cast<double>(m.stage_ops)
                                     : 0.0;
    j.Num(std::string("stage.") + StageName(stage) + "_ms", mean_ms);
  }
  j.Num("setup.boot_s", run.boot_s);
  j.Num("setup.recipe_s", run.recipe_s);
  // Bases of the ratios above.
  j.Num("base.ops", static_cast<double>(m.ok_ops()));
  j.Num("base.events", events);
  j.Num("base.ext_invocations", invocations);
  j.Num("base.traced_ops", static_cast<double>(m.stage_ops));
  if (!run.script_name.empty()) {
    j.Num("script.load_ms", ScriptLoadMs(run));
    j.Num("script.handler_us", ScriptHandlerUs(run));
  } else {
    j.Num("script.load_ms", 0.0);
    j.Num("script.handler_us", 0.0);
  }
  return j.Object();
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  uint64_t sub = 0;
  bool traced = false;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--workload" && a + 1 < argc) {
      workload = argv[++a];
    } else if (arg == "--seed" && a + 1 < argc) {
      seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--sub" && a + 1 < argc) {
      sub = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr,
                   "usage: edc_perf --workload <name> --seed <n> [--sub <k>] [--traced]\n");
      return 2;
    }
  }
  static const std::map<std::string, void (*)(uint64_t, bool, Run&)> kWorkloads = {
      {"ezk_counter", RunEzkCounter},
      {"eds_queue", RunEdsQueue},
      {"shard_2pc", RunShard2pc},
      {"zk_failover", RunZkFailover},
  };
  auto it = kWorkloads.find(workload);
  if (it == kWorkloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  // Heap-allocated: the fixture's straggler callbacks are gone once the
  // workload function returns, but Run's recorders can be large.
  auto run = std::make_unique<Run>();
  it->second(DeriveSeed(seed, 100 + sub), traced, *run);
  Meter& m = run->meter;

  if (traced) {
    // Zero-perturbation: every stage bucket of every traced op adds up to
    // exactly its latency, and every successful op in the window was traced.
    int64_t stage_sum = 0;
    for (int64_t ns : m.stage_ns) {
      stage_sum += ns;
    }
    run->Check(stage_sum == m.stage_latency_ns,
               "stage buckets sum to " + std::to_string(stage_sum) + " ns, latencies to " +
                   std::to_string(m.stage_latency_ns) + " ns");
    run->Check(m.stage_ops == m.ok_ops(), "not every measured op was traced");
  }
  run->Check(m.ok_ops() > 0, "no op completed in the window");

  JsonOut sim;
  double window_s = ToSeconds(run->window);
  double ok_ops = static_cast<double>(m.ok_ops());
  sim.Num("ops_per_s", window_s > 0 ? ok_ops / window_s : 0.0);
  sim.Num("p50_ms", Ms(m.latency.Percentile(0.5)));
  sim.Num("p99_ms", Ms(m.latency.Percentile(0.99)));
  sim.Num("kb_per_op", ok_ops > 0 ? static_cast<double>(run->end.client_bytes -
                                                        run->begin.client_bytes) /
                                        1024.0 / ok_ops
                                  : 0.0);
  sim.Num("ok_ratio", m.attempted > 0 ? static_cast<double>(m.attempted - m.failed) /
                                            static_cast<double>(m.attempted)
                                      : 0.0);
  sim.Num("unavail_ms", Ms(m.MaxWriteGap()));
  sim.Int("latency_samples", m.ok_ops());
  sim.Int("unanswered", m.outstanding);
  sim.Int("events", static_cast<int64_t>(run->end.events - run->begin.events));

  JsonOut native;
  native.Num("wall_s", run->wall_s);
  native.Num("setup_s", run->setup_s);
  native.Num("peak_rss_mb", PeakRssMb());

  JsonOut out;
  out.Add("workload", Quote(workload));
  out.Int("seed", static_cast<int64_t>(seed));
  out.Int("sub", static_cast<int64_t>(sub));
  out.Add("traced", traced ? "true" : "false");
  out.Int("attempted", m.attempted);
  out.Int("failed", m.failed);
  out.Add("sim", sim.Object());
  out.Add("native", native.Object());
  if (traced && m.fx != nullptr) {  // fx is set once set-up succeeded
    out.Add("layers", PerLayerJson(*run));
  }
  std::string errors = "[";
  for (size_t e = 0; e < run->errors.size(); ++e) {
    errors += (e > 0 ? ", " : "") + Quote(run->errors[e]);
  }
  out.Add("errors", errors + "]");
  out.Add("correct", run->errors.empty() ? "true" : "false");
  std::printf("%s\n", out.Object().c_str());
  return 0;
}

}  // namespace
}  // namespace edc

int main(int argc, char** argv) { return edc::Main(argc, argv); }
