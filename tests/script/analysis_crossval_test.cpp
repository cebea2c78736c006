// Cross-validation of the static analyzer against the interpreter.
//
// A seeded generator produces hundreds of random CoordScript handlers from a
// small grammar (lets, assigns, ifs, foreach over literals and capped host
// collections, host mutations, nondeterministic calls). For every program:
//
//  * Cost soundness: if the analyzer certified the handler, its actual
//    interpreted step count — against a host that returns collections at the
//    full configured cap — must never exceed the proven static bound.
//  * Determinism soundness: if two executions that differ only in their
//    nondeterministic environment (now/random) diverge in replicated effects
//    (mutation log, return value, outcome), the determinism taint pass must
//    have flagged the program. Divergence with no EDC-E013 is a missed bug.
//
// The generator's distribution is checked for non-vacuity: enough certified
// handlers, enough genuinely divergent programs, enough clean ones. The same
// corpus drives the VM-vs-oracle differential tests, including one at every
// step budget.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "edc/common/rng.h"
#include "edc/script/analysis/analyzer.h"
#include "edc/script/parser.h"
#include "edc/script/verifier.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"
#include "script/oracle/interpreter.h"

namespace edc {
namespace {

constexpr size_t kCollectionCap = 4;
constexpr int kNumSeeds = 220;

VerifierConfig CrossValConfig(bool deterministic) {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  for (const char* fn : {"children", "update", "create"}) {
    cfg.allowed_functions[fn] = true;
  }
  cfg.allowed_functions["now"] = false;
  cfg.allowed_functions["random"] = false;
  cfg.require_deterministic = deterministic;
  cfg.collection_functions = {"children"};
  cfg.limits.max_collection_items = kCollectionCap;
  return cfg;
}

// Host mirroring the sandbox contract: collections capped at kCollectionCap,
// mutations logged, nondeterminism parameterized so two "replicas" can be
// fed different environments.
class CrossValHost : public ScriptHost {
 public:
  CrossValHost(int64_t now_value, uint64_t random_seed)
      : now_value_(now_value), rng_(random_seed) {}

  const std::vector<std::string>& mutations() const { return mutations_; }
  const std::vector<std::string>& calls() const { return calls_; }

  bool HasFunction(const std::string& name) const override {
    return name == "children" || name == "update" || name == "create" ||
           name == "now" || name == "random";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    std::string entry = name;
    for (const Value& a : args) {
      entry += "|" + a.ToString();
    }
    calls_.push_back(entry);
    if (name == "now") {
      return Value(now_value_);
    }
    if (name == "random") {
      int64_t bound = !args.empty() && args[0].is_int() ? args[0].AsInt() : 8;
      return Value(static_cast<int64_t>(rng_.UniformU64(
          static_cast<uint64_t>(bound > 0 ? bound : 8))));
    }
    if (name == "children") {
      ValueList names;
      for (size_t i = 0; i < kCollectionCap; ++i) {
        names.emplace_back("c" + std::to_string(i));
      }
      return Value::List(std::move(names));
    }
    // update / create: replicated-state effects, logged for divergence
    // comparison.
    mutations_.push_back(std::move(entry));
    return Value(true);
  }

 private:
  int64_t now_value_;
  Rng rng_;
  std::vector<std::string> mutations_;
  std::vector<std::string> calls_;  // every host call, for the step sweep
};

// ---- Random program generation ----

class ProgramGen {
 public:
  explicit ProgramGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    src_ = "extension gen {\n  on op read \"/x\";\n  fn read(oid) {\n";
    vars_ = {"oid_len"};
    src_ += "    let oid_len = len(oid);\n";
    size_t n = 2 + rng_.UniformU64(5);
    for (size_t i = 0; i < n; ++i) {
      EmitStmt(2, 0);
    }
    if (rng_.UniformU64(2) == 0) {
      src_ += "    return " + IntExpr(0) + ";\n";
    }
    src_ += "  }\n}\n";
    return src_;
  }

 private:
  void Indent(int depth) { src_ += std::string(static_cast<size_t>(depth) * 2, ' '); }

  std::string NewVar() {
    std::string name = "v" + std::to_string(var_counter_++);
    vars_.push_back(name);
    return name;
  }

  std::string PickVar() { return vars_[rng_.UniformU64(vars_.size())]; }

  // Integer-typed expression. Depth-limited so programs stay small.
  std::string IntExpr(int depth) {
    switch (rng_.UniformU64(depth >= 2 ? 4 : 6)) {
      case 0:
        return std::to_string(rng_.UniformU64(10));
      case 1:
      case 2:
        return PickVar();
      case 3:
        return rng_.UniformU64(2) == 0 ? "now()" : "random(8)";
      case 4:
        return "(" + IntExpr(depth + 1) + " + " + IntExpr(depth + 1) + ")";
      default:
        return "(" + IntExpr(depth + 1) + " * " + IntExpr(depth + 1) + ")";
    }
  }

  std::string CondExpr() {
    return IntExpr(1) + (rng_.UniformU64(2) == 0 ? " < " : " == ") + IntExpr(1);
  }

  void EmitBlock(int depth, int nest) {
    size_t saved = vars_.size();
    size_t n = 1 + rng_.UniformU64(2);
    for (size_t i = 0; i < n; ++i) {
      EmitStmt(depth, nest);
    }
    vars_.resize(saved);  // interpreter block scoping
  }

  void EmitStmt(int depth, int nest) {
    uint64_t pick = rng_.UniformU64(nest >= 2 ? 4 : 6);
    switch (pick) {
      case 0: {
        Indent(depth);
        src_ += "let " + NewVar() + " = " + IntExpr(0) + ";\n";
        return;
      }
      case 1: {
        Indent(depth);
        src_ += PickVar() + " = " + IntExpr(0) + ";\n";
        return;
      }
      case 2: {
        Indent(depth);
        src_ += "update(\"/sink\", str(" + IntExpr(0) + "));\n";
        return;
      }
      case 3: {
        Indent(depth);
        src_ += "create(\"/out/" + std::to_string(rng_.UniformU64(4)) +
                "\", str(" + IntExpr(0) + "));\n";
        return;
      }
      case 4: {
        Indent(depth);
        src_ += "if (" + CondExpr() + ") {\n";
        EmitBlock(depth + 1, nest + 1);
        Indent(depth);
        if (rng_.UniformU64(2) == 0) {
          src_ += "} else {\n";
          EmitBlock(depth + 1, nest + 1);
          Indent(depth);
        }
        src_ += "}\n";
        return;
      }
      default: {
        Indent(depth);
        std::string loop_var = "it" + std::to_string(var_counter_++);
        if (rng_.UniformU64(2) == 0) {
          size_t len = rng_.UniformU64(4);
          std::string lit = "[";
          for (size_t i = 0; i < len; ++i) {
            lit += (i > 0 ? ", " : "") + std::to_string(rng_.UniformU64(10));
          }
          lit += "]";
          src_ += "foreach (" + loop_var + " in " + lit + ") {\n";
          vars_.push_back(loop_var);  // int-typed loop variable
        } else {
          src_ += "foreach (" + loop_var + " in children(\"/dir\")) {\n";
          // String-typed loop variable: not added to the int-var pool.
        }
        EmitBlock(depth + 1, nest + 1);
        vars_.erase(std::remove(vars_.begin(), vars_.end(), loop_var), vars_.end());
        Indent(depth);
        src_ += "}\n";
        return;
      }
    }
  }

  Rng rng_;
  std::string src_;
  std::vector<std::string> vars_;
  int var_counter_ = 0;
};

struct ExecOutcome {
  bool ok = false;
  std::string result;  // rendered value, or Status code + message
  std::vector<std::string> mutations;
  std::vector<std::string> calls;
  int64_t steps = 0;

  bool Diverges(const ExecOutcome& o) const {
    return ok != o.ok || result != o.result || mutations != o.mutations;
  }
};

ExecOutcome Outcome(const Result<Value>& out, const CrossValHost& host, int64_t steps) {
  ExecOutcome o;
  o.ok = out.ok();
  o.result = out.ok() ? out->ToString() : out.status().ToString();
  o.mutations = host.mutations();
  o.calls = host.calls();
  o.steps = steps;
  return o;
}

// Runs `read` on the reference interpreter (the oracle).
ExecOutcome Execute(const Program& program, int64_t now_value, uint64_t random_seed,
                    const ExtensionLimits& limits = ExtensionLimits{}) {
  CrossValHost host(now_value, random_seed);
  Interpreter interp(&program, &host, limits);
  auto out = interp.Invoke("read", {Value("/x")});
  return Outcome(out, host, interp.stats().steps_used);
}

// Compiles the program the way ExtensionRegistry::Load does.
CompiledModule CompileCrossVal(const Program& program) {
  auto module = CompileProgram(program);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  return module.ok() ? std::move(*module) : CompiledModule{};
}

// Bytecode-VM twin of Execute().
ExecOutcome ExecuteVm(const CompiledModule& module, int64_t now_value,
                      uint64_t random_seed,
                      const ExtensionLimits& limits = ExtensionLimits{}) {
  CrossValHost host(now_value, random_seed);
  Vm vm(&module, &host, limits);
  auto out = vm.Invoke("read", {Value("/x")});
  return Outcome(out, host, vm.stats().steps_used);
}

void ExpectSameOutcome(const ExecOutcome& a, const ExecOutcome& b,
                       const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.result, b.result) << what;
  EXPECT_EQ(a.mutations, b.mutations) << what;
  EXPECT_EQ(a.calls, b.calls) << what;
  EXPECT_EQ(a.steps, b.steps) << "step accounting diverged\n" << what;
}

TEST(AnalysisCrossValTest, CertifiedBoundsAreSoundAndDivergenceIsFlagged) {
  int certified = 0;
  int divergent = 0;
  int flagged = 0;
  int clean_runs = 0;

  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ProgramGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed << ": " << program.status().ToString()
                              << "\n" << src;

    // ---- Cost-bound soundness (EZK-style permissive config) ----
    AnalysisReport report = AnalyzeProgram(**program, CrossValConfig(false));
    ASSERT_EQ(report.handlers.count("read"), 1u) << src;
    const HandlerReport& hr = report.handlers.at("read");
    ExecOutcome run = Execute(**program, 1000, 1);
    if (hr.certified) {
      ++certified;
      EXPECT_LE(run.steps, hr.step_bound)
          << "seed " << seed << ": certified handler exceeded its bound\n" << src;
    }

    // ---- Determinism soundness (EDS-style strict config) ----
    AnalysisReport det = AnalyzeProgram(**program, CrossValConfig(true));
    bool is_flagged = false;
    for (const Diagnostic& d : det.diagnostics) {
      is_flagged = is_flagged || d.code == kDiagNondeterminism;
    }
    ExecOutcome replica_b = Execute(**program, 7777, 99);
    bool diverges = run.Diverges(replica_b);
    if (is_flagged) {
      ++flagged;
    }
    if (diverges) {
      ++divergent;
      EXPECT_TRUE(is_flagged)
          << "seed " << seed
          << ": replicas diverged but the determinism pass did not flag it\n"
          << src << "\nrun A: " << run.result << "\nrun B: " << replica_b.result;
    }
    if (!is_flagged && !diverges) {
      ++clean_runs;
    }
  }

  // Non-vacuity: the grammar must actually exercise every verdict.
  EXPECT_GE(certified, kNumSeeds / 2) << "generator stopped producing bounded handlers";
  EXPECT_GE(divergent, 10) << "generator stopped producing divergent programs";
  EXPECT_GE(clean_runs, 10) << "generator stopped producing clean programs";
  EXPECT_GE(flagged, divergent);
}

// The compiled engine must be observationally identical to the tree walker on
// the full generated corpus: same outcome, same rendered result/error, same
// mutation log and host-call trace, and — load-bearing for replica digests —
// the same steps_used. The generator covers folding-heavy arithmetic,
// shadowing, nested control flow, host mutations and nondeterministic calls,
// so this is the volume backstop behind the hand-written parity cases in
// vm_test.cpp. The generator only emits resolvable variables, so every
// program must compile.
TEST(AnalysisCrossValTest, VmMatchesInterpreterOnGeneratedCorpus) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ProgramGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed;
    CompiledModule module = CompileCrossVal(**program);
    ExpectSameOutcome(Execute(**program, 1000, 1), ExecuteVm(module, 1000, 1),
                      "seed " + std::to_string(seed) + "\n" + src);
  }
}

// The VM is always metered: at every max_steps from 0 up to the unlimited
// run's step count, it must trip (or finish) exactly where the oracle does —
// same Status code and message (the line of the node the budget ran out
// on), steps_used == max_steps + 1 on a trip, and the same host calls made
// before it. steps_used sets the simulated CPU charge, so an over-count
// here would move simulated timing.
TEST(AnalysisCrossValTest, VmMatchesOracleAtEveryStepBudget) {
  int64_t budgets = 0;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ProgramGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed;
    CompiledModule module = CompileCrossVal(**program);
    int64_t full = Execute(**program, 1000, 1).steps;
    ExtensionLimits limits;
    for (limits.max_steps = 0; limits.max_steps <= full; ++limits.max_steps) {
      ExecOutcome a = Execute(**program, 1000, 1, limits);
      ExecOutcome b = ExecuteVm(module, 1000, 1, limits);
      ExpectSameOutcome(a, b, "seed " + std::to_string(seed) + " max_steps " +
                                  std::to_string(limits.max_steps) + "\n" + src);
      if (limits.max_steps < full) {
        ASSERT_EQ(b.steps, limits.max_steps + 1) << "seed " << seed << "\n" << src;
      }
      ++budgets;
    }
  }
  EXPECT_GE(budgets, kNumSeeds * 10) << "corpus stopped exercising step budgets";
}

// ---- split()-heavy arm ----
//
// The interval/length domain's headline precision win is the amortized bound
// for foreach-over-split() (the 2PC shape), so it gets its own generator arm:
// strings come from a host fetch() at worst-case ingest size, separators are
// sprinkled densely enough that split() fans out hard, and loops nest. The
// analyzer's bound must dominate the real step count on every certified
// program, and the VM must stay observationally identical on the corpus.

constexpr size_t kSplitCap = 64;       // builtin collection cap for this arm
constexpr size_t kSplitInputCap = 512; // host-result ingest cap for this arm

VerifierConfig SplitArmConfig() {
  VerifierConfig cfg;
  cfg.allowed_functions = CoreAllowedFunctions();
  cfg.allowed_functions["fetch"] = true;
  cfg.allowed_functions["update"] = true;
  cfg.limits.max_collection_items = kSplitCap;
  cfg.limits.max_input_bytes = kSplitInputCap;
  return cfg;
}

// Host whose fetch() returns a deterministic pseudo-random string (seeded, so
// interpreter and VM replays see the identical sequence) with separator
// characters mixed in. Lengths push against the ingest cap; the Value header
// overhead (16 bytes) is left as headroom.
class SplitHost : public ScriptHost {
 public:
  explicit SplitHost(uint64_t seed) : rng_(seed) {}

  const std::vector<std::string>& mutations() const { return mutations_; }

  bool HasFunction(const std::string& name) const override {
    return name == "fetch" || name == "update";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    if (name == "fetch") {
      static constexpr char kAlphabet[] = "abcdefgh;:./";
      size_t len = 32 + rng_.UniformU64(kSplitInputCap - 64);
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        s += kAlphabet[rng_.UniformU64(sizeof(kAlphabet) - 1)];
      }
      return Value(std::move(s));
    }
    std::string entry = name;
    for (const Value& a : args) {
      entry += "|" + a.ToString();
    }
    mutations_.push_back(std::move(entry));
    return Value(true);
  }

 private:
  Rng rng_;
  std::vector<std::string> mutations_;
};

class SplitGen {
 public:
  explicit SplitGen(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    src_ =
        "extension sgen {\n  on op read \"/x\";\n  fn read(oid) {\n"
        "    let total = 0;\n"
        "    let blob = fetch(\"/blob\");\n";
    size_t n = 1 + rng_.UniformU64(3);
    for (size_t i = 0; i < n; ++i) {
      EmitSplitLoop(2, 0, i == 0 ? "blob" : StrSource());
    }
    src_ += "    return total;\n  }\n}\n";
    return src_;
  }

 private:
  void Indent(int depth) { src_ += std::string(static_cast<size_t>(depth) * 2, ' '); }

  std::string Sep() {
    static constexpr const char* kSeps[] = {"\";\"", "\":\"", "\".\"", "\"/\""};
    return kSeps[rng_.UniformU64(4)];
  }

  std::string StrSource() {
    switch (rng_.UniformU64(3)) {
      case 0:
        return "oid";
      case 1:
        return "blob";
      default:
        return "substr(blob, 0, " + std::to_string(8 + rng_.UniformU64(200)) + ")";
    }
  }

  void EmitSplitLoop(int depth, int nest, const std::string& source) {
    std::string v = "p" + std::to_string(var_counter_++);
    Indent(depth);
    src_ += "foreach (" + v + " in split(" + source + ", " + Sep() + ")) {\n";
    size_t n = 1 + rng_.UniformU64(2);
    for (size_t i = 0; i < n; ++i) {
      EmitBodyStmt(depth + 1, nest, v);
    }
    Indent(depth);
    src_ += "}\n";
  }

  void EmitBodyStmt(int depth, int nest, const std::string& piece) {
    uint64_t pick = rng_.UniformU64(nest >= 1 ? 4 : 5);
    switch (pick) {
      case 0:
        Indent(depth);
        src_ += "total = total + len(" + piece + ");\n";
        return;
      case 1:
        Indent(depth);
        src_ += "if (len(" + piece + ") > " + std::to_string(rng_.UniformU64(8)) +
                ") {\n";
        Indent(depth + 1);
        src_ += "total = total + 1;\n";
        Indent(depth);
        src_ += "}\n";
        return;
      case 2:
        Indent(depth);
        src_ += "update(\"/sink\", " + piece + ");\n";
        return;
      case 3: {
        // Guarded get(): index provably in range after the len() check, so
        // this must never trip EDC-W008 or a runtime OOB.
        std::string parts = "q" + std::to_string(var_counter_++);
        size_t idx = rng_.UniformU64(3);
        Indent(depth);
        src_ += "let " + parts + " = split(" + piece + ", " + Sep() + ");\n";
        Indent(depth);
        src_ += "if (len(" + parts + ") > " + std::to_string(idx) + ") {\n";
        Indent(depth + 1);
        src_ += "total = total + len(get(" + parts + ", " + std::to_string(idx) +
                "));\n";
        Indent(depth);
        src_ += "}\n";
        return;
      }
      default:
        // Nested foreach over a split of the current piece: the amortized
        // (total-length) accounting is what keeps this certifiable.
        EmitSplitLoop(depth, nest + 1, piece);
        return;
    }
  }

  Rng rng_;
  std::string src_;
  int var_counter_ = 0;
};

TEST(AnalysisCrossValTest, SplitHeavyBoundsAreSoundAndVmMatches) {
  int certified = 0;
  int completed = 0;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    SplitGen gen(seed);
    std::string src = gen.Generate();
    auto program = ParseProgram(src);
    ASSERT_TRUE(program.ok()) << "seed " << seed << ": "
                              << program.status().ToString() << "\n" << src;

    AnalysisReport report = AnalyzeProgram(**program, SplitArmConfig());
    ASSERT_EQ(report.handlers.count("read"), 1u) << src;
    const HandlerReport& hr = report.handlers.at("read");
    // split() always yields a finite (capped) list, so every program in this
    // arm must get a finite bound; precision may only affect certification.
    EXPECT_TRUE(hr.cost_bounded) << "seed " << seed << "\n" << src;
    for (const Diagnostic& d : report.diagnostics) {
      EXPECT_NE(d.code, kDiagIndexOutOfRange)
          << "seed " << seed << ": guarded get() flagged\n" << src;
    }

    SplitHost host(seed * 7919);
    Interpreter interp(program->get(), &host, SplitArmConfig().limits);
    auto out = interp.Invoke("read", {Value("/req/part.a;part.b:tail")});
    int64_t steps = interp.stats().steps_used;
    if (out.ok()) {
      ++completed;
    }
    if (hr.certified) {
      ++certified;
      EXPECT_LE(steps, hr.step_bound)
          << "seed " << seed << ": certified split handler exceeded its bound\n"
          << src;
    }

    // VM twin under the identical budget and an identically-seeded host: the
    // corpus is all builtins + host calls, so everything must compile, and
    // outcome/result/mutations/steps must match byte for byte.
    auto module = CompileProgram(**program);
    ASSERT_TRUE(module.ok()) << "seed " << seed << ": compiler refused a split-arm program\n"
                             << src;
    SplitHost vm_host(seed * 7919);
    Vm vm(&*module, &vm_host, SplitArmConfig().limits);
    auto vm_out = vm.Invoke("read", {Value("/req/part.a;part.b:tail")});
    EXPECT_EQ(out.ok(), vm_out.ok()) << "seed " << seed << "\n" << src;
    EXPECT_EQ(out.ok() ? out->ToString() : out.status().ToString(),
              vm_out.ok() ? vm_out->ToString() : vm_out.status().ToString())
        << "seed " << seed << "\n" << src;
    EXPECT_EQ(host.mutations(), vm_host.mutations()) << "seed " << seed << "\n" << src;
    EXPECT_EQ(steps, vm.stats().steps_used)
        << "seed " << seed << ": step accounting diverged\n" << src;
  }

  // Non-vacuity: the arm must mostly certify (that is the point of the
  // amortized bound) and mostly run to completion (the caps are load-bearing
  // but not the common case).
  EXPECT_GE(certified, (kNumSeeds * 9) / 10)
      << "split-heavy programs stopped certifying";
  EXPECT_GE(completed, kNumSeeds / 2)
      << "split-heavy programs stopped completing under the caps";
}

}  // namespace
}  // namespace edc
