// Unit tests for the tree-walking reference interpreter (the VM's test
// oracle, tests/script/oracle/).

#include "script/oracle/interpreter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "edc/script/parser.h"

namespace edc {
namespace {

// Host exposing a tiny key->string store plus a call trace.
class FakeHost : public ScriptHost {
 public:
  bool HasFunction(const std::string& name) const override {
    return name == "read_object" || name == "update" || name == "now" ||
           name == "blob";
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    calls.push_back(name);
    if (name == "now") {
      return Value(static_cast<int64_t>(12345));
    }
    if (name == "blob") {
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

Result<Value> RunScript(const char* src, const char* handler, std::vector<Value> args,
                  FakeHost* host, const ExtensionLimits& limits = ExtensionLimits{}) {
  auto prog = ParseProgram(src);
  if (!prog.ok()) {
    return prog.status();
  }
  Interpreter interp(prog->get(), host, limits);
  auto out = interp.Invoke(handler, std::move(args));
  return out;
}

TEST(InterpreterTest, CounterIncrementEndToEnd) {
  FakeHost host;
  host.store["/ctr"] = "41";
  auto out = RunScript(R"(
    extension ctr {
      on op read "/ctr-increment";
      fn read(oid) {
        let c = parse_int(get(read_object("/ctr"), "data"));
        update("/ctr", str(c + 1));
        return c + 1;
      }
    })", "read", {Value("/ctr-increment")}, &host);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->AsInt(), 42);
  EXPECT_EQ(host.store["/ctr"], "42");
}

TEST(InterpreterTest, ArithmeticAndPrecedence) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return (2 + 3) * 4 - 10 / 2 % 3; } })", "handle_op", {}, &host);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->AsInt(), 18);  // 20 - (5 % 3) = 20 - 2
}

TEST(InterpreterTest, StringConcatenation) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return "/queue/" + r + "-" + 7; } })", "handle_op",
                 {Value("item")}, &host);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->AsStr(), "/queue/item-7");
}

TEST(InterpreterTest, ShortCircuitAvoidsRhsEvaluation) {
  FakeHost host;
  // read_object("missing") returns null; get(null, ...) would error, but &&
  // must short-circuit before evaluating it.
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let o = read_object("/missing");
        if (o != null && get(o, "data") == "x") { return 1; }
        return 0;
      } })", "handle_op", {}, &host);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->AsInt(), 0);
}

TEST(InterpreterTest, ForeachAccumulates) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let sum = 0;
        foreach (x in [1, 2, 3, 4, 5]) { sum = sum + x; }
        return sum;
      } })", "handle_op", {}, &host);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->AsInt(), 15);
}

TEST(InterpreterTest, ReturnInsideForeachExitsHandler) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        foreach (x in [1, 2, 3]) { if (x == 2) { return x * 10; } }
        return -1;
      } })", "handle_op", {}, &host);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->AsInt(), 20);
}

TEST(InterpreterTest, IfElseChains) {
  FakeHost host;
  const char* src = R"(
    extension m { on op any "/x";
      fn handle_op(n) {
        if (n < 0) { return "neg"; }
        else if (n == 0) { return "zero"; }
        else { return "pos"; }
      } })";
  EXPECT_EQ(RunScript(src, "handle_op", {Value(-5)}, &host)->AsStr(), "neg");
  EXPECT_EQ(RunScript(src, "handle_op", {Value(0)}, &host)->AsStr(), "zero");
  EXPECT_EQ(RunScript(src, "handle_op", {Value(3)}, &host)->AsStr(), "pos");
}

TEST(InterpreterTest, MissingHandlerFails) {
  FakeHost host;
  auto out = RunScript(R"(extension m { on op any "/x"; fn handle_op(r) { return 1; } })",
                 "no_such_handler", {}, &host);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionError);
}

TEST(InterpreterTest, MissingArgsBecomeNull) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(a, b) { if (b == null) { return "null"; } return "set"; } })",
                 "handle_op", {Value(1)}, &host);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->AsStr(), "null");
}

TEST(InterpreterTest, DivisionByZeroIsError) {
  FakeHost host;
  auto out = RunScript(R"(extension m { on op any "/x"; fn handle_op(r) { return 1 / 0; } })",
                 "handle_op", {}, &host);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionError);
}

TEST(InterpreterTest, TypeErrorsAreReported) {
  FakeHost host;
  auto out = RunScript(R"(extension m { on op any "/x"; fn handle_op(r) { return 1 - "x"; } })",
                 "handle_op", {}, &host);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionError);
}

TEST(InterpreterTest, IndexOutOfRangeIsError) {
  FakeHost host;
  auto out = RunScript(R"(extension m { on op any "/x"; fn handle_op(r) { return [1][5]; } })",
                 "handle_op", {}, &host);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionError);
}

TEST(InterpreterTest, StepBudgetEnforced) {
  FakeHost host;
  ExtensionLimits tight;
  tight.max_steps = 20;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let sum = 0;
        foreach (x in [1,2,3,4,5,6,7,8,9,10]) { sum = sum + x; }
        return sum;
      } })", "handle_op", {}, &host, tight);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionLimit);
}

TEST(InterpreterTest, ValueSizeBudgetEnforced) {
  FakeHost host;
  ExtensionLimits tiny;
  tiny.max_value_bytes = 64;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let s = "0123456789";
        s = s + s; s = s + s; s = s + s; s = s + s;
        return s;
      } })", "handle_op", {}, &host, tiny);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionLimit);
}

TEST(InterpreterTest, UnaryNegationAtInt64MinWraps) {
  // Regression: `-x` used to negate the signed value directly, which is UB
  // when x == INT64_MIN. The interpreter now wraps via unsigned negation.
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x"; fn handle_op(r) { return -r; } })",
                 "handle_op", {Value(INT64_MIN)}, &host);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->AsInt(), INT64_MIN);
}

TEST(InterpreterTest, OversizedHostResultIsRejected) {
  // Regression: host-function return values used to skip the value-size
  // check that every builtin result and concatenation already went through.
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x"; fn handle_op(r) { return blob(); } })",
                 "handle_op", {}, &host);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionLimit);
  EXPECT_NE(out.status().message().find("value size limit exceeded"),
            std::string::npos);
}

TEST(InterpreterTest, StepsUsedReported) {
  auto prog = ParseProgram(R"(
    extension m { on op any "/x"; fn handle_op(r) { return 1 + 1; } })");
  ASSERT_TRUE(prog.ok());
  FakeHost host;
  Interpreter interp(prog->get(), &host, ExtensionLimits{});
  ASSERT_TRUE(interp.Invoke("handle_op", {}).ok());
  EXPECT_GT(interp.stats().steps_used, 0);
  EXPECT_LT(interp.stats().steps_used, 20);
}

TEST(InterpreterTest, HostFunctionErrorPropagates) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x"; fn handle_op(r) { return unknown_host(); } })",
                 "handle_op", {}, &host);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionError);
}

TEST(InterpreterTest, ErrorBuiltinAborts) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) { error("queue empty"); return 1; } })", "handle_op", {}, &host);
  EXPECT_EQ(out.code(), ErrorCode::kExtensionError);
  EXPECT_NE(out.status().message().find("queue empty"), std::string::npos);
}

TEST(InterpreterTest, FallOffEndReturnsNull) {
  FakeHost host;
  auto out = RunScript(R"(extension m { on op any "/x"; fn handle_op(r) { let a = 1; } })",
                 "handle_op", {}, &host);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->is_null());
}

TEST(InterpreterTest, ScopesShadowAndRestore) {
  FakeHost host;
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) {
        let x = 1;
        if (true) { let x = 2; }
        foreach (x in [9]) { let y = x; }
        return x;
      } })", "handle_op", {}, &host);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->AsInt(), 1);
}

TEST(InterpreterTest, MapIndexMissingKeyIsNull) {
  FakeHost host;
  host.store["/o"] = "d";
  auto out = RunScript(R"(
    extension m { on op any "/x";
      fn handle_op(r) { return read_object("/o")["nope"] == null; } })",
                 "handle_op", {}, &host);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->AsBool());
}

}  // namespace
}  // namespace edc
