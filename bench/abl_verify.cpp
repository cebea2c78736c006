// Ablation (§4.2): registration-time verification vs execution-time cost.
// The paper's design verifies once at registration so execution pays
// nothing; this microbenchmark quantifies both sides: parse+verify cost of a
// realistic extension vs a single sandboxed invocation, plus the per-request
// subscription-match check every operation pays.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"
#include "edc/ext/registry.h"
#include "edc/script/analysis/analyzer.h"
#include "edc/recipes/scripts.h"
#include "edc/script/builtins.h"
#include "edc/script/parser.h"
#include "edc/script/verifier.h"

namespace edc {
namespace {

VerifierConfig BenchConfig() {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  for (const char* fn : {"create", "create_ephemeral", "create_sequential", "delete_object",
                         "update", "cas", "read_object", "exists", "children",
                         "sub_objects", "block", "monitor", "client_id"}) {
    cfg.allowed_functions[fn] = true;
  }
  return cfg;
}

// A host returning canned objects so the sandbox can run the real queue
// extension without a server.
class CannedHost : public ScriptHost {
 public:
  bool HasFunction(const std::string& name) const override {
    return name == "sub_objects" || name == "delete_object" || name == "read_object" ||
           name == "update";
  }
  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    (void)args;
    if (name == "sub_objects") {
      ValueList objs;
      for (int i = 0; i < 10; ++i) {
        objs.push_back(Value::Map({{"path", Value("/queue/e" + std::to_string(i))},
                                   {"data", Value("payload")},
                                   {"ctime", Value(int64_t{100 + i})}}));
      }
      return Value::List(std::move(objs));
    }
    if (name == "read_object") {
      return Value::Map({{"path", Value("/ctr")}, {"data", Value("41")}});
    }
    return Value(true);
  }
};

void BM_ParseAndVerify(benchmark::State& state) {
  VerifierConfig cfg = BenchConfig();
  for (auto _ : state) {
    auto program = ParseProgram(kQueueExtension);
    benchmark::DoNotOptimize(program);
    Status s = VerifyProgram(**program, cfg);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ParseAndVerify);

void BM_AnalyzeProgram(benchmark::State& state) {
  // The full registration-time analysis: CFG + dataflow + cost bounding +
  // determinism taint (docs/static_analysis.md): part of the one-time price
  // BM_RegistryLoad pays.
  VerifierConfig cfg = BenchConfig();
  cfg.collection_functions = {"children", "sub_objects"};
  auto program = ParseProgram(kQueueExtension);
  for (auto _ : state) {
    AnalysisReport report = AnalyzeProgram(**program, cfg);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_AnalyzeProgram);

void BM_RegistryLoad(benchmark::State& state) {
  VerifierConfig cfg = BenchConfig();
  for (auto _ : state) {
    ExtensionRegistry registry;
    Status s = registry.Load("queue_remove", 1, kQueueExtension, cfg);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RegistryLoad);

void BM_ExtensionInvocation(benchmark::State& state) {
  // One sandboxed invocation of the registered queue extension: the
  // recurring per-request cost, against the one-time BM_RegistryLoad.
  ExtensionRegistry registry;
  VerifierConfig cfg = BenchConfig();
  cfg.collection_functions = {"children", "sub_objects"};
  if (!registry.Load("queue_remove", 1, kQueueExtension, cfg).ok()) {
    state.SkipWithError("queue extension failed to load");
    return;
  }
  const LoadedExtension* ext = registry.Find("queue_remove");
  CannedHost host;
  for (auto _ : state) {
    HandlerRun run = RunExtensionHandler(*ext, "read", {Value("/queue/head")}, &host,
                                         cfg.limits);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_ExtensionInvocation);

void BM_SubscriptionMatch(benchmark::State& state) {
  // The per-request cost every operation pays on an extensible server.
  ExtensionRegistry registry;
  VerifierConfig cfg = BenchConfig();
  for (int i = 0; i < state.range(0); ++i) {
    (void)registry.Load("ext" + std::to_string(i), 1,
                        "extension e { on op read \"/p" + std::to_string(i) +
                            "\"; fn read(o) { return 1; } }",
                        cfg);
  }
  for (auto _ : state) {
    auto* match = registry.MatchOperation(1, "read", "/p0");
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_SubscriptionMatch)->Arg(1)->Arg(8)->Arg(64);

}  // namespace
}  // namespace edc

int main(int argc, char** argv) { return edc::GBenchMainWithJson("abl_verify", argc, argv); }
