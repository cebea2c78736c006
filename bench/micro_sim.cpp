// Microbenchmarks of the simulator core (real CPU time, via google-benchmark):
// the event loop's schedule/cancel/pop path and Network::Send. Every
// simulated request runs through these, so they bound how fast the figure
// and perfbench workloads can run.
//
//   BM_ScheduleCancelPop/N  N events pending; each iteration schedules two,
//                           cancels one and runs one.
//   BM_RearmTimer           ZabNode::ResetLeaderTimeout: a proposal every
//                           10 us cancels and re-arms a 250 ms timeout.
//   BM_NetworkSend          one 64-byte packet sent and delivered.
//
// scripts/micro_sim_before_after.sh builds this file a second time against
// the event loop of an older commit and merges both runs into
// bench_results/BENCH_micro_sim.json.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"
#include "edc/common/rng.h"
#include "edc/sim/event_loop.h"
#include "edc/sim/network.h"

namespace edc {
namespace {

void BM_ScheduleCancelPop(benchmark::State& state) {
  EventLoop loop;
  Rng rng(1);
  const auto n = static_cast<uint64_t>(state.range(0));
  auto delay = [&] { return Micros(1 + static_cast<int64_t>(rng.UniformU64(2 * n))); };
  auto stop = [&loop] { loop.Stop(); };
  for (uint64_t i = 0; i < n; ++i) {
    loop.Schedule(delay(), stop);
  }
  for (auto _ : state) {
    TimerId doomed = loop.Schedule(delay(), stop);
    loop.Schedule(delay(), stop);
    loop.Cancel(doomed);
    loop.Run();  // the callback stops the loop after one live event
  }
  state.counters["pending"] = static_cast<double>(loop.pending());
}
BENCHMARK(BM_ScheduleCancelPop)->Arg(1 << 10)->Arg(1 << 16);

void BM_RearmTimer(benchmark::State& state) {
  EventLoop loop;
  TimerId timeout = kInvalidTimer;
  auto proposal = [&] {
    loop.Cancel(timeout);
    timeout = loop.Schedule(Millis(250), [] {});
  };
  for (auto _ : state) {
    loop.Schedule(Micros(10), proposal);
    loop.RunUntil(loop.now() + Micros(10));
  }
  state.counters["pending"] = static_cast<double>(loop.pending());
}
BENCHMARK(BM_RearmTimer);

class SinkNode : public NetworkNode {
 public:
  void HandlePacket(Packet&& pkt) override { bytes += pkt.payload.size(); }
  uint64_t bytes = 0;
};

void BM_NetworkSend(benchmark::State& state) {
  EventLoop loop;
  Network net(&loop, Rng(1), LinkParams{});
  SinkNode a;
  SinkNode b;
  net.Register(1, &a);
  net.Register(2, &b);
  const std::vector<uint8_t> payload(64, 0x5a);
  for (auto _ : state) {
    Packet pkt;
    pkt.src = 1;
    pkt.dst = 2;
    pkt.payload = payload;
    net.Send(std::move(pkt));
    loop.Run();
  }
  benchmark::DoNotOptimize(b.bytes);
}
BENCHMARK(BM_NetworkSend);

}  // namespace
}  // namespace edc

int main(int argc, char** argv) {
  return edc::GBenchMainWithJson("micro_sim", argc, argv);
}
