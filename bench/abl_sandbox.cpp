// Ablation: cost of the sandbox's per-step metering and value-size
// accounting (§4.1.2). Every handler runs on the always-metered bytecode VM
// (docs/bytecode_vm.md); these rows measure its raw throughput on
// compute-heavy and string-heavy scripts, and what tripping the step limit
// costs.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/gbench_json.h"
#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"

namespace edc {
namespace {

class NullHost : public ScriptHost {
 public:
  bool HasFunction(const std::string&) const override { return false; }
  Result<Value> Call(const std::string&, std::vector<Value>&) override {
    return Status(ErrorCode::kExtensionError, "no host");
  }
};

constexpr char kComputeScript[] = R"(
extension compute {
  on op read "/x";
  fn read(oid) {
    let sum = 0;
    foreach (a in [1,2,3,4,5,6,7,8,9,10]) {
      foreach (b in [1,2,3,4,5,6,7,8,9,10]) {
        sum = sum + a * b - (a % (b + 1));
      }
    }
    return sum;
  }
}
)";

constexpr char kStringScript[] = R"(
extension strings {
  on op read "/x";
  fn read(oid) {
    let out = "";
    foreach (i in [1,2,3,4,5,6,7,8]) {
      out = out + "segment-" + i + ";";
    }
    return len(out);
  }
}
)";

// Compiles the single handler of `source` into a one-entry module; aborts if
// the compiler refuses.
CompiledModule CompileBenchModule(const char* source) {
  auto program = ParseProgram(source);
  CompiledModule module;
  for (const auto& [name, handler] : (*program)->handlers) {
    CompiledHandler compiled;
    if (!CompileHandler(handler, &compiled)) {
      std::abort();
    }
    module.handlers.emplace(name, std::move(compiled));
  }
  return module;
}

void BM_VmArithmetic(benchmark::State& state) {
  // The production hot path: registration compiled the handler to register
  // bytecode, and the VM checks the step limit on every instruction.
  CompiledModule module = CompileBenchModule(kComputeScript);
  NullHost host;
  int64_t steps = 0;
  for (auto _ : state) {
    Vm vm(&module, &host, ExtensionLimits{});
    auto out = vm.Invoke("read", {Value("/x")});
    benchmark::DoNotOptimize(out);
    steps += vm.stats().steps_used;
  }
  state.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmArithmetic);

void BM_VmStrings(benchmark::State& state) {
  CompiledModule module = CompileBenchModule(kStringScript);
  NullHost host;
  for (auto _ : state) {
    Vm vm(&module, &host, ExtensionLimits{});
    auto out = vm.Invoke("read", {Value("/x")});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VmStrings);

void BM_BudgetExhaustion(benchmark::State& state) {
  // Hitting the step limit must be cheap (it is the defense, not the attack).
  CompiledModule module = CompileBenchModule(kComputeScript);
  NullHost host;
  ExtensionLimits tight;
  tight.max_steps = state.range(0);
  for (auto _ : state) {
    Vm vm(&module, &host, tight);
    auto out = vm.Invoke("read", {Value("/x")});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BudgetExhaustion)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace edc

int main(int argc, char** argv) { return edc::GBenchMainWithJson("abl_sandbox", argc, argv); }
