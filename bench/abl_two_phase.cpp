// Ablation: 2PC participant throughput on the bytecode VM.
//
// The two_phase recipe (prepare/commit/abort over split()-encoded op lists)
// is the heaviest built-in handler: nested foreach over split() results,
// with a 66,882-step certified bound (docs/static_analysis.md). Like every
// handler it runs on the always-metered register VM; these rows measure one
// transaction's prepare+commit and prepare+abort.
//
// The host is a plain in-memory map mirroring the binding's read_object/
// exists/create/update/delete_object contract, so the numbers isolate script
// execution from consensus and networking.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <map>
#include <string>

#include "bench/gbench_json.h"
#include "edc/recipes/scripts.h"
#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"

namespace edc {
namespace {

// Minimal coordination-state host: the same observable behavior the EZK
// binding gives the two_phase handler, minus consensus.
class MapHost : public ScriptHost {
 public:
  bool HasFunction(const std::string& name) const override {
    return name == "exists" || name == "create" || name == "update" ||
           name == "delete_object" || name == "read_object";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    const std::string& path = args[0].AsStr();
    if (name == "exists") {
      return Value(store_.count(path) > 0);
    }
    if (name == "read_object") {
      auto it = store_.find(path);
      if (it == store_.end()) {
        return Value();  // missing object reads as null
      }
      ValueMap node;
      node.emplace("path", Value(it->first));
      node.emplace("data", Value(it->second));
      return Value::Map(std::move(node));
    }
    if (name == "create" || name == "update") {
      store_[path] = args.size() > 1 && args[1].is_str() ? args[1].AsStr() : "";
      return Value(true);
    }
    // delete_object
    store_.erase(path);
    return Value(true);
  }

 private:
  std::map<std::string, std::string> store_;
};

// One cross-object transaction: two creates and a delete, paths deep enough
// that the lock-flattening inner loops (split by '/') do real work.
constexpr char kPrepareSpec[] =
    "t42|c:/app/accounts/alice:90;c:/app/accounts/bob:110;d:/app/pending/x1";
constexpr char kTxid[] = "t42";

CompiledModule CompileTwoPhase() {
  auto program = ParseProgram(kTwoPhaseExtension);
  CompiledModule module;
  for (const auto& [name, handler] : (*program)->handlers) {
    CompiledHandler compiled;
    if (!CompileHandler(handler, &compiled)) {
      std::abort();  // the 2PC handler must stay compilable
    }
    module.handlers.emplace(name, std::move(compiled));
  }
  return module;
}

// Runs one prepare+commit (or prepare+abort) cycle; returns the steps both
// invocations used. The same txid repeats: commit/abort release every lock
// and delete the stage entry, so each cycle sees the same state and the loop
// is steady-state by construction.
int64_t RunCycle(Vm& vm, const char* finish_oid, const char* finish_spec) {
  auto prep = vm.Invoke("update", {Value("/2pc-prepare"), Value(std::string(kPrepareSpec))});
  if (!prep.ok() || prep->AsStr() != "prepared") {
    std::abort();
  }
  int64_t steps = vm.stats().steps_used;
  auto fin = vm.Invoke("update", {Value(std::string(finish_oid)), Value(std::string(finish_spec))});
  if (!fin.ok()) {
    std::abort();
  }
  return steps + vm.stats().steps_used;
}

void BM_VmPrepareCommit(benchmark::State& state) {
  CompiledModule module = CompileTwoPhase();
  MapHost host;
  int64_t steps = 0;
  int64_t txns = 0;
  for (auto _ : state) {
    Vm vm(&module, &host, ExtensionLimits{});
    steps += RunCycle(vm, "/2pc-commit", kTxid);
    ++txns;
  }
  state.counters["txns_per_s"] =
      benchmark::Counter(static_cast<double>(txns), benchmark::Counter::kIsRate);
  state.counters["steps_per_s"] =
      benchmark::Counter(static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmPrepareCommit);

void BM_VmPrepareAbort(benchmark::State& state) {
  CompiledModule module = CompileTwoPhase();
  MapHost host;
  int64_t txns = 0;
  for (auto _ : state) {
    Vm vm(&module, &host, ExtensionLimits{});
    RunCycle(vm, "/2pc-abort", kTxid);
    ++txns;
  }
  state.counters["txns_per_s"] =
      benchmark::Counter(static_cast<double>(txns), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmPrepareAbort);

}  // namespace
}  // namespace edc

int main(int argc, char** argv) {
  return edc::GBenchMainWithJson("abl_two_phase", argc, argv);
}
