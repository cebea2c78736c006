// Unit tests for the bytecode compiler + register VM (ctest -L vm).
//
// The conformance suite (vm_conformance_test.cpp) sweeps whole scripts; this
// file pins the individual contracts: builtin index resolution, compile
// refusal on unlowerable constructs, step-accounting parity on success and on
// every abort path, the INT64_MIN wrap-around fixes, and the host-result
// size-limit enforcement — each checked on the VM against the reference
// interpreter (tests/script/oracle/), at the default budget and at every
// step budget below the run's step count.

#include "edc/script/vm/vm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edc/script/builtins.h"
#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "script/oracle/interpreter.h"

namespace edc {
namespace {

// Host exposing a tiny key->string store, a call trace, and an `oversized`
// function whose result must be caught by the value-size limit.
class VmFakeHost : public ScriptHost {
 public:
  bool HasFunction(const std::string& name) const override {
    return name == "read_object" || name == "update" || name == "oversized";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    calls.push_back(name);
    if (name == "oversized") {
      return Value(std::string(1 << 20, 'x'));
    }
    if (name == "read_object") {
      auto it = store.find(args[0].AsStr());
      if (it == store.end()) {
        return Value();
      }
      return Value::Map({{"path", Value(it->first)}, {"data", Value(it->second)}});
    }
    if (name == "update") {
      store[args[0].AsStr()] = args[1].AsStr();
      return Value(true);
    }
    return Status(ErrorCode::kExtensionError, "unknown host fn");
  }

  std::map<std::string, std::string> store;
  std::vector<std::string> calls;
};

struct EngineRun {
  bool ok = false;
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  std::string result;
  int64_t steps = 0;
  std::vector<std::string> calls;
  std::map<std::string, std::string> store;
};

EngineRun RunInterp(const Program& program, const std::string& handler,
                    std::vector<Value> args, const ExtensionLimits& limits) {
  VmFakeHost host;
  Interpreter interp(&program, &host, limits);
  auto out = interp.Invoke(handler, std::move(args));
  EngineRun r;
  r.ok = out.ok();
  r.code = out.ok() ? ErrorCode::kOk : out.status().code();
  r.message = out.ok() ? "" : out.status().message();
  r.result = out.ok() ? out->ToString() : "";
  r.steps = interp.stats().steps_used;
  r.calls = host.calls;
  r.store = host.store;
  return r;
}

EngineRun RunVm(const Program& program, const std::string& handler,
                std::vector<Value> args, const ExtensionLimits& limits) {
  const Handler& h = program.handlers.at(handler);
  CompiledHandler compiled;
  EXPECT_TRUE(CompileHandler(h, &compiled))
      << "handler '" << handler << "' failed to compile";
  VmFakeHost host;
  CompiledModule module;
  module.handlers.emplace(handler, std::move(compiled));
  Vm vm(&module, &host, limits);
  auto out = vm.Invoke(handler, std::move(args));
  EngineRun r;
  r.ok = out.ok();
  r.code = out.ok() ? ErrorCode::kOk : out.status().code();
  r.message = out.ok() ? "" : out.status().message();
  r.result = out.ok() ? out->ToString() : "";
  r.steps = vm.stats().steps_used;
  r.calls = host.calls;
  r.store = host.store;
  return r;
}

void ExpectSameRun(const EngineRun& a, const EngineRun& b, const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.code, b.code) << what;
  EXPECT_EQ(a.message, b.message) << what;
  EXPECT_EQ(a.result, b.result) << what;
  EXPECT_EQ(a.steps, b.steps) << "step accounting diverged\n" << what;
  EXPECT_EQ(a.calls, b.calls) << what;
  EXPECT_EQ(a.store, b.store) << what;
}

// Runs `handler` on the oracle and the VM and requires bit-identical
// outcomes: result, Status code + message, steps_used, host-call trace,
// final state — under `limits`, and again at every max_steps from 0 up to
// the step count of that run, so every step-limit trip point is covered.
EngineRun ExpectBothEngines(const char* src, const std::string& handler,
                            std::vector<Value> args,
                            const ExtensionLimits& limits = ExtensionLimits{}) {
  auto program = ParseProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  EngineRun a = RunInterp(**program, handler, args, limits);
  ExpectSameRun(a, RunVm(**program, handler, args, limits), src);
  ExtensionLimits tight = limits;
  for (tight.max_steps = 0; tight.max_steps <= a.steps; ++tight.max_steps) {
    ExpectSameRun(RunInterp(**program, handler, args, tight),
                  RunVm(**program, handler, args, tight),
                  std::string(src) + "\nmax_steps=" + std::to_string(tight.max_steps));
  }
  return a;
}

// ---- Builtin index resolution ----

TEST(BuiltinIndexTest, IndexRoundTripsForEveryBuiltin) {
  const auto& by_index = BuiltinsByIndex();
  ASSERT_EQ(by_index.size(), CoreBuiltins().size());
  for (const auto& [name, info] : CoreBuiltins()) {
    int idx = BuiltinIndexOf(name);
    ASSERT_GE(idx, 0) << name;
    EXPECT_EQ(by_index[static_cast<size_t>(idx)], &info) << name;
  }
  EXPECT_EQ(BuiltinIndexOf("no_such_builtin"), -1);
}

// ---- Compile refusal ----

TEST(VmCompilerTest, RefusesUnresolvableVariable) {
  auto program = ParseProgram(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return missing_var; } })");
  ASSERT_TRUE(program.ok());
  CompiledHandler out;
  EXPECT_FALSE(CompileHandler((*program)->handlers.at("handle_op"), &out));
}

TEST(VmCompilerTest, RefusesAssignToUndeclared) {
  auto program = ParseProgram(R"(
    extension m { on op any "/x";
      fn handle_op(r) { ghost = 1; return 0; } })");
  ASSERT_TRUE(program.ok());
  CompiledHandler out;
  EXPECT_FALSE(CompileHandler((*program)->handlers.at("handle_op"), &out));
}

TEST(VmCompilerTest, CompilesEveryRecipeShape) {
  // Representative of every construct the recipes use: host calls, builtins,
  // foreach over a collection function, nested ifs, short-circuits, concat.
  auto program = ParseProgram(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let obj = read_object("/a");
        if (obj != null && get(obj, "data") != "") {
          update("/a", get(obj, "data") + "!");
        }
        let sum = 0;
        foreach (x in [1, 2, 3]) { sum = sum + x; }
        return str(sum) + r;
      } })");
  ASSERT_TRUE(program.ok());
  CompiledHandler out;
  EXPECT_TRUE(CompileHandler((*program)->handlers.at("handle_op"), &out));
  EXPECT_GT(out.code.size(), 0u);
}

// ---- Dual-engine semantics ----

TEST(VmParityTest, ArithmeticPrecedenceAndFolding) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return (2 + 3) * 4 - 10 / 2 % 3; } })", "handle_op", {});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.result, "18");
}

TEST(VmParityTest, ShortCircuitSkipsRhs) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let o = read_object("/missing");
        if (o != null && get(o, "data") == "x") { return 1; }
        if (o == null || get(o, "data") == "x") { return 2; }
        return 0;
      } })", "handle_op", {});
  EXPECT_EQ(r.result, "2");
}

TEST(VmParityTest, ForeachScopingAndShadowing) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let sum = 100;
        foreach (x in [1, 2, 3]) {
          let sum = x;      // shadows outer sum inside the loop body
          r = r + sum;
        }
        foreach (x in [10, 20]) { sum = sum + x; }
        return str(sum) + ":" + r;
      } })", "handle_op", {Value(static_cast<int64_t>(0))});
  EXPECT_EQ(r.result, "130:6");
}

TEST(VmParityTest, IndexingListsMapsStrings) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let l = [7, 8, 9];
        let s = "abc";
        let o = read_object("/k");
        return str(l[1]) + s[2] + get(o, "data");
      } })", "handle_op", {});
  EXPECT_EQ(r.code, ErrorCode::kExtensionError);  // get(null, ...) errors
}

TEST(VmParityTest, RuntimeErrorsMatchByteForByte) {
  const char* cases[] = {
      "return -\"s\";",                  // unary '-' on non-int
      "return 1 + [1];",                 // '+' needs int+int or str
      "return [1] - 2;",                 // arithmetic on non-int
      "return 1 / 0;",                   // division by zero
      "return 1 % 0;",                   // modulo by zero
      "return 1 < \"s\";",               // ordering on mixed types
      "return [1, 2][\"k\"];",           // list index must be int
      "return [1, 2][5];",               // list index out of range
      "return \"ab\"[9];",               // string index out of range
      "return 4[0];",                    // indexing non-collection
      "foreach (x in 5) { return 1; }",  // foreach over non-list
      "return nosuchfn(1);",             // unknown function
  };
  for (const char* stmt : cases) {
    std::string src = std::string(R"(
      extension m { on op any "/x";
        fn handle_op(r) { )") + stmt + " } }";
    EngineRun r = ExpectBothEngines(src.c_str(), "handle_op", {});
    EXPECT_FALSE(r.ok) << stmt;
    EXPECT_EQ(r.code, ErrorCode::kExtensionError) << stmt;
  }
}

TEST(VmParityTest, MissingParamsBecomeNullAndExtrasAreDropped) {
  const char* src = R"(
    extension m { on op any "/x";
      fn handle_op(a, b) { if (b == null) { return "null-b"; } return b; } })";
  EngineRun one = ExpectBothEngines(src, "handle_op", {Value("x")});
  EXPECT_EQ(one.result, "null-b");
  EngineRun three = ExpectBothEngines(src, "handle_op",
                                      {Value("x"), Value("y"), Value("z")});
  EXPECT_EQ(three.result, "y");
}

TEST(VmParityTest, FallOffEndReturnsNull) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) { let x = 1; } })", "handle_op", {});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.result, Value().ToString());
}

// ---- INT64_MIN wrap-around (the negation-UB bugfix), both engines ----

TEST(VmParityTest, UnaryNegationAtInt64MinWraps) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(n) { return -n; } })", "handle_op", {Value(INT64_MIN)});
  ASSERT_TRUE(r.ok);
  // Two's-complement: -INT64_MIN wraps back to INT64_MIN.
  EXPECT_EQ(r.result, std::to_string(INT64_MIN));
}

TEST(VmParityTest, FoldedNegationAtInt64MinWraps) {
  // The folded constant path (literal arithmetic) must wrap identically.
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return -(-9223372036854775807 - 1); } })", "handle_op", {});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.result, std::to_string(INT64_MIN));
}

TEST(VmParityTest, AbsAtInt64MinWraps) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(n) { return abs(n); } })", "handle_op", {Value(INT64_MIN)});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.result, std::to_string(INT64_MIN));
}

TEST(VmParityTest, DivisionOverflowAtInt64MinErrors) {
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(n) { return n / -1; } })", "handle_op", {Value(INT64_MIN)});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kExtensionError);
}

// ---- Host-result size limit (the bypass bugfix), both engines ----

TEST(VmParityTest, OversizedHostResultHitsValueSizeLimit) {
  // `oversized` returns a 1 MiB string; the default 64 KiB budget must
  // reject it on the host-call path exactly like on the builtin path.
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) { let big = oversized(); return len(big); } })",
                                  "handle_op", {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kExtensionLimit);
  EXPECT_NE(r.message.find("value size limit exceeded"), std::string::npos);
}

TEST(VmParityTest, OversizedConcatHitsValueSizeLimit) {
  ExtensionLimits tiny;
  tiny.max_value_bytes = 32;
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let s = "0123456789abcdef";
        return s + s + s;
      } })", "handle_op", {}, tiny);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kExtensionLimit);
}

TEST(VmParityTest, FoldedConcatStillChecksSizeAtRuntime) {
  // "aa...a" folds to a constant at compile time, but the interpreter checks
  // the concat's size against the *runtime* budget — the fold must not skip
  // that abort (kLoadConstChecked).
  ExtensionLimits tiny;
  tiny.max_value_bytes = 24;
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return "0123456789" + "0123456789"; } })",
                                  "handle_op", {}, tiny);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kExtensionLimit);
}

// ---- Step accounting under metering ----

TEST(VmParityTest, StepsMatchAcrossEnginesOnAbortPaths) {
  // Error mid-statement: steps charged up to the abort must agree.
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(n) {
        let a = 1 + 2;
        let b = a * n;
        let c = b / (a - 3);
        return c;
      } })", "handle_op", {Value(static_cast<int64_t>(5))});
  EXPECT_FALSE(r.ok);  // division by zero; ExpectBothEngines checked steps
}

TEST(VmParityTest, CompiledModuleContainsEveryHandler) {
  // Certification does not decide dispatch: every handler compiles.
  auto program = ParseProgram(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return 1; }
      fn read(oid) { return 2; } })");
  ASSERT_TRUE(program.ok());
  auto module = CompileProgram(**program);
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_NE(module->Find("handle_op"), nullptr);
  EXPECT_NE(module->Find("read"), nullptr);
}

TEST(VmCompilerTest, CompileProgramRejectsUnresolvableVariable) {
  auto program = ParseProgram(R"(
    extension m { on op any "/x";
      fn read(oid) { return 1; }
      fn handle_op(r) { return missing_var; } })");
  ASSERT_TRUE(program.ok());
  auto module = CompileProgram(**program);
  ASSERT_FALSE(module.ok());
  EXPECT_EQ(module.status().code(), ErrorCode::kExtensionRejected);
  EXPECT_NE(module.status().message().find("'handle_op'"), std::string::npos);
}

// ---- Step-limit trips ----

TEST(VmParityTest, StepLimitTripReportsBudgetPlusOne) {
  // The VM always meters. A trip leaves steps_used == max_steps + 1 — the
  // simulated CPU charge is computed from it — and names the line of the
  // node that ran out, exactly like the reference.
  ExtensionLimits tight;
  tight.max_steps = 20;
  EngineRun r = ExpectBothEngines(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let sum = 0;
        foreach (x in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) { sum = sum + x; }
        return sum;
      } })", "handle_op", {}, tight);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kExtensionLimit);
  EXPECT_EQ(r.steps, 21);
  EXPECT_EQ(r.message, "step budget exceeded at line 5");
}

TEST(VmParityTest, StepLimitInsideFoldedMultiLineExpression) {
  // `1 + 2 * 3` spans three source lines and folds into one kLoadConst
  // carrying six charges: the let statement and the five expression nodes.
  // A budget that runs out inside the fold must name the line of the exact
  // node, not the instruction's line.
  const char* src = R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let v = 1
          + 2
          * 3;
        return v;
      } })";
  auto program = ParseProgram(src);
  ASSERT_TRUE(program.ok());
  CompiledHandler compiled;
  ASSERT_TRUE(CompileHandler((*program)->handlers.at("handle_op"), &compiled));
  ASSERT_EQ(compiled.code[0].op, OpCode::kLoadConst);
  EXPECT_EQ(compiled.code[0].steps, 6u);
  // Charge order: let (4), + (5), 1 (4), * (6), 2 (5), 3 (6).
  const std::vector<int32_t> lines(compiled.step_lines.begin(),
                                   compiled.step_lines.begin() + 6);
  EXPECT_EQ(lines, (std::vector<int32_t>{4, 5, 4, 6, 5, 6}));
  const char* want[] = {"line 4", "line 5", "line 4", "line 6", "line 5", "line 6"};
  for (int64_t budget = 0; budget < 6; ++budget) {
    ExtensionLimits tight;
    tight.max_steps = budget;
    EngineRun r = ExpectBothEngines(src, "handle_op", {}, tight);
    EXPECT_EQ(r.steps, budget + 1);
    EXPECT_EQ(r.message, std::string("step budget exceeded at ") + want[budget]);
  }
}

TEST(VmParityTest, NegativeStepLimitBehavesLikeZero) {
  ExtensionLimits negative;
  negative.max_steps = -5;
  EngineRun empty = ExpectBothEngines(R"(
    extension m { on op any "/x"; fn handle_op(r) { } })", "handle_op", {}, negative);
  EXPECT_TRUE(empty.ok);
  EXPECT_EQ(empty.steps, 0);
  EngineRun one = ExpectBothEngines(R"(
    extension m { on op any "/x"; fn handle_op(r) { return 1; } })", "handle_op", {},
                                    negative);
  EXPECT_EQ(one.code, ErrorCode::kExtensionLimit);
  EXPECT_EQ(one.steps, 1);
}

}  // namespace
}  // namespace edc
