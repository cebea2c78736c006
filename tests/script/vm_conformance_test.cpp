// Differential conformance: bytecode VM vs the reference interpreter
// (tests/script/oracle/; ctest -L vm).
//
// Every handler of every loadable example script (examples/scripts/*.edc)
// and every built-in recipe extension (recipes/scripts.h) runs on the VM and
// on the oracle against the same deterministic object-store host, across
// success paths, script-level error paths and empty-state edge cases — with
// the default budget and again at every max_steps from 0 up to the run's
// step count. The two must agree on: return value, Status code AND message,
// steps_used, the host-call trace, and the final store contents. Any
// divergence means the compiler or VM forked the language's semantics.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "edc/ext/registry.h"
#include "edc/recipes/scripts.h"
#include "edc/script/analysis/analyzer.h"
#include "edc/script/analysis/lint.h"
#include "edc/script/parser.h"
#include "edc/script/vm/compiler.h"
#include "edc/script/vm/vm.h"
#include "script/oracle/interpreter.h"

namespace edc {
namespace {

// Deterministic object store mirroring the sandbox host surface the recipes
// use. ctime is assigned by insertion order so min_by("ctime") is stable.
class StoreHost : public ScriptHost {
 public:
  using Store = std::map<std::string, std::pair<std::string, int64_t>>;

  explicit StoreHost(Store store) : store_(std::move(store)) {
    for (const auto& [path, entry] : store_) {
      next_ctime_ = std::max(next_ctime_, entry.second + 1);
    }
  }

  const Store& store() const { return store_; }
  const std::vector<std::string>& trace() const { return trace_; }

  bool HasFunction(const std::string& name) const override {
    for (const char* fn : {"read_object", "exists", "create", "update",
                           "delete_object", "sub_objects", "children", "block",
                           "monitor"}) {
      if (name == fn) {
        return true;
      }
    }
    return false;
  }

  Result<Value> Call(const std::string& name, std::vector<Value>& args) override {
    std::string entry = name;
    for (const Value& a : args) {
      entry += "|" + a.ToString();
    }
    trace_.push_back(std::move(entry));

    if (name == "read_object") {
      auto it = store_.find(args[0].AsStr());
      return it == store_.end() ? Value() : ObjectOf(it);
    }
    if (name == "exists") {
      return Value(store_.count(args[0].AsStr()) > 0);
    }
    if (name == "create") {
      store_[args[0].AsStr()] = {args.size() > 1 ? args[1].ToString() : "",
                                 next_ctime_++};
      return Value(true);
    }
    if (name == "update") {
      auto it = store_.find(args[0].AsStr());
      if (it == store_.end()) {
        store_[args[0].AsStr()] = {args[1].ToString(), next_ctime_++};
      } else {
        it->second.first = args[1].ToString();
      }
      return Value(true);
    }
    if (name == "delete_object") {
      store_.erase(args[0].AsStr());
      return Value(true);
    }
    if (name == "sub_objects") {
      std::string prefix = args[0].AsStr() + "/";
      ValueList objs;
      for (auto it = store_.begin(); it != store_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) == 0) {
          objs.push_back(ObjectOf(it));
        }
      }
      return Value::List(std::move(objs));
    }
    if (name == "children") {
      std::string prefix = args[0].AsStr() + "/";
      ValueList names;
      for (const auto& [path, e] : store_) {
        if (path.compare(0, prefix.size(), prefix) == 0) {
          names.emplace_back(path.substr(prefix.size()));
        }
      }
      return Value::List(std::move(names));
    }
    // block / monitor: side-effect-free acknowledgments in this fake.
    return Value(true);
  }

 private:
  Value ObjectOf(Store::const_iterator it) const {
    return Value::Map({{"path", Value(it->first)},
                       {"data", Value(it->second.first)},
                       {"ctime", Value(it->second.second)}});
  }

  Store store_;
  std::vector<std::string> trace_;
  int64_t next_ctime_ = 1;
};

struct Scenario {
  const char* label;
  std::string handler;
  std::vector<Value> args;
  StoreHost::Store store;
};

struct EngineRun {
  bool ok = false;
  std::string status;  // code + message rendering
  std::string result;
  int64_t steps = 0;
  std::vector<std::string> trace;
  StoreHost::Store store;
};

EngineRun Finish(Result<Value> out, int64_t steps, const StoreHost& host) {
  EngineRun r;
  r.ok = out.ok();
  r.status = out.ok() ? "OK" : out.status().ToString();
  r.result = out.ok() ? out->ToString() : "";
  r.steps = steps;
  r.trace = host.trace();
  r.store = host.store();
  return r;
}

EngineRun RunInterp(const Program& program, const Scenario& sc,
                    const ExtensionLimits& limits) {
  StoreHost host(sc.store);
  Interpreter interp(&program, &host, limits);
  auto out = interp.Invoke(sc.handler, sc.args);
  return Finish(std::move(out), interp.stats().steps_used, host);
}

EngineRun RunVm(const CompiledModule& module, const Scenario& sc,
                const ExtensionLimits& limits) {
  StoreHost host(sc.store);
  Vm vm(&module, &host, limits);
  auto out = vm.Invoke(sc.handler, sc.args);
  return Finish(std::move(out), vm.stats().steps_used, host);
}

void ExpectSameRun(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.steps, b.steps) << "step accounting diverged";
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.store, b.store);
}

// Parses and compiles `source` the way ExtensionRegistry::Load does, then
// checks each scenario on both engines: once with the default limits, then
// at every max_steps from 0 up to the default run's step count (every
// step-limit trip point the handler has on that path). Returns the number of
// handlers compiled.
size_t CheckConformance(const std::string& unit, const std::string& source,
                        const std::vector<Scenario>& scenarios) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << unit << ": " << program.status().ToString();
  if (!program.ok()) {
    return 0;
  }
  auto module = CompileProgram(**program);
  EXPECT_TRUE(module.ok()) << unit << ": " << module.status().ToString();
  if (!module.ok()) {
    return 0;
  }
  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(unit + " / " + sc.label);
    ExtensionLimits limits;
    EngineRun a = RunInterp(**program, sc, limits);
    ExpectSameRun(a, RunVm(*module, sc, limits));
    for (limits.max_steps = 0; limits.max_steps <= a.steps; ++limits.max_steps) {
      SCOPED_TRACE("max_steps=" + std::to_string(limits.max_steps));
      ExpectSameRun(RunInterp(**program, sc, limits), RunVm(*module, sc, limits));
    }
  }
  return module->handlers.size();
}

StoreHost::Store QueueStore() {
  return {{"/queue/a", {"first", 1}},
          {"/queue/b", {"second", 2}},
          {"/queue/c", {"third", 3}}};
}

TEST(VmConformanceTest, RecipeCounter) {
  EXPECT_EQ(CheckConformance(
                "recipe_counter", kCounterExtension,
                {{"increments", "read", {Value("/ctr-increment")}, {{"/ctr", {"41", 1}}}},
                 {"missing counter errors", "read", {Value("/ctr-increment")}, {}},
                 {"non-numeric data", "read", {Value("/ctr-increment")},
                  {{"/ctr", {"zzz", 1}}}}}),
            1u);
}

TEST(VmConformanceTest, RecipeQueue) {
  EXPECT_EQ(CheckConformance(
                "recipe_queue", kQueueExtension,
                {{"removes oldest", "read", {Value("/queue/head")}, QueueStore()},
                 {"empty queue errors", "read", {Value("/queue/head")}, {}}}),
            1u);
}

TEST(VmConformanceTest, RecipeBarrier) {
  StoreHost::Store incomplete = {{"/barrier-size", {"3", 1}}, {"/barrier/c0", {"", 2}}};
  StoreHost::Store complete = {{"/barrier-size", {"2", 1}},
                               {"/barrier/c0", {"", 2}},
                               {"/barrier/c1", {"", 3}}};
  EXPECT_EQ(CheckConformance(
                "recipe_barrier", kBarrierExtension,
                {{"first entrant blocks", "block", {Value("/enter/c1")}, incomplete},
                 {"group complete releases", "block", {Value("/enter/c1")}, complete},
                 {"missing size errors", "block", {Value("/enter/c1")}, {}}}),
            1u);
}

TEST(VmConformanceTest, RecipeElection) {
  StoreHost::Store clients = {{"/clients/a", {"", 1}}, {"/clients/b", {"", 2}}};
  StoreHost::Store with_leader = {{"/clients/a", {"", 1}},
                                  {"/clients/b", {"", 2}},
                                  {"/leader/a", {"", 3}}};
  EXPECT_EQ(CheckConformance(
                "recipe_election", kElectionExtension,
                {{"appoints first client", "block", {Value("/leader/a")}, clients},
                 {"non-leader blocks", "block", {Value("/leader/b")}, with_leader},
                 {"successor on deletion", "on_deleted", {Value("/clients/a")},
                  with_leader},
                 {"deletion with no clients", "on_deleted", {Value("/clients/a")}, {}}}),
            2u);
}

TEST(VmConformanceTest, RecipeRename) {
  StoreHost::Store tree = {{"/dir", {"root", 1}},
                           {"/dir/x", {"vx", 2}},
                           {"/dir/y", {"vy", 3}}};
  StoreHost::Store clash = {{"/dir", {"root", 1}}, {"/moved", {"", 2}}};
  EXPECT_EQ(CheckConformance(
                "recipe_rename", kRenameExtension,
                {{"renames subtree", "update", {Value("/scfs-rename"), Value("/dir|/moved")},
                  tree},
                 {"bad spec errors", "update", {Value("/scfs-rename"), Value("nosep")}, {}},
                 {"missing source errors", "update",
                  {Value("/scfs-rename"), Value("/gone|/moved")}, {}},
                 {"existing target errors", "update",
                  {Value("/scfs-rename"), Value("/dir|/moved")}, clash}}),
            1u);
}

TEST(VmConformanceTest, RecipeTwoPhase) {
  StoreHost::Store staged = {{"/2pc-locks", {"", 1}},
                             {"/2pc-stage", {"", 2}},
                             {"/2pc-stage/t1", {"c:/a:va;d:/b", 3}},
                             {"/2pc-locks/_a", {"t1", 4}},
                             {"/2pc-locks/_b", {"t1", 5}},
                             {"/b", {"old", 6}}};
  StoreHost::Store locked = {{"/2pc-locks", {"", 1}},
                             {"/2pc-stage", {"", 2}},
                             {"/2pc-locks/_a", {"other", 3}}};
  EXPECT_EQ(CheckConformance(
                "recipe_two_phase", kTwoPhaseExtension,
                {{"prepare stages ops", "update",
                  {Value("/2pc-prepare0"), Value("t1|c:/a:va;u:/b:vb")}, {}},
                 {"conflicting lock rejects", "update",
                  {Value("/2pc-prepare0"), Value("t1|c:/a:va")}, locked},
                 {"commit applies and unlocks", "update",
                  {Value("/2pc-commit0"), Value("t1")}, staged},
                 {"abort drops stage", "update", {Value("/2pc-abort0"), Value("t1")},
                  staged},
                 {"idempotent commit", "update", {Value("/2pc-commit0"), Value("t9")}, {}},
                 {"bad spec errors", "update", {Value("/2pc-prepare0"), Value("nosep")},
                  {}}}),
            1u);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string ExamplePath(const std::string& name) {
  return std::string(EDC_SOURCE_DIR) + "/examples/scripts/" + name;
}

TEST(VmConformanceTest, ExampleAuditCount) {
  EXPECT_EQ(CheckConformance(
                "audit_count.edc", ReadFile(ExamplePath("audit_count.edc")),
                {{"first job", "on_created", {Value("/jobs/j1")}, {}},
                 {"increments count", "on_created", {Value("/jobs/j2")},
                  {{"/jobs-count", {"7", 1}}}}}),
            1u);
}

TEST(VmConformanceTest, ExampleQueueRemove) {
  EXPECT_EQ(CheckConformance(
                "queue_remove.edc", ReadFile(ExamplePath("queue_remove.edc")),
                {{"removes oldest", "read", {Value("/queue/head")}, QueueStore()},
                 {"empty queue errors", "read", {Value("/queue/head")}, {}}}),
            1u);
}

TEST(VmConformanceTest, ExampleBrokenSweeperRejectedAtLoad) {
  // `shell` is off the white list and `return total;` reads an undeclared
  // variable: the analyzer rejects the extension at registration, so there
  // is nothing to run and no engine to fall back to. The compiler refuses
  // the unresolvable variable too, which is what would turn a compile
  // failure into the same kExtensionRejected if the analyzer ever let one
  // through.
  std::string source = ReadFile(ExamplePath("broken_sweeper.edc"));
  ExtensionRegistry registry;
  Status s = registry.Load("broken_sweeper", 1, source, LintVerifierConfig());
  EXPECT_EQ(s.code(), ErrorCode::kExtensionRejected);
  EXPECT_FALSE(registry.Contains("broken_sweeper"));
  auto program = ParseProgram(source);
  ASSERT_TRUE(program.ok());
  auto module = CompileProgram(**program);
  ASSERT_FALSE(module.ok());
  EXPECT_EQ(module.status().code(), ErrorCode::kExtensionRejected);
}

// Every handler of every extension that loads must reach bytecode;
// certification stays a lint verdict (all shipped recipe and example
// handlers certify) but does not decide dispatch.
TEST(VmConformanceTest, AllLoadableHandlersCompile) {
  const std::pair<std::string, std::string> units[] = {
      {"counter", kCounterExtension},
      {"queue", kQueueExtension},
      {"barrier", kBarrierExtension},
      {"election", kElectionExtension},
      {"rename", kRenameExtension},
      {"two_phase", kTwoPhaseExtension},
      {"audit_count", ReadFile(ExamplePath("audit_count.edc"))},
      {"queue_remove", ReadFile(ExamplePath("queue_remove.edc"))},
  };
  for (const auto& [name, source] : units) {
    ExtensionRegistry registry;
    ASSERT_TRUE(registry.Load(name, 1, source, LintVerifierConfig()).ok()) << name;
    const LoadedExtension* ext = registry.Find(name);
    ASSERT_NE(ext, nullptr) << name;
    EXPECT_EQ(ext->compiled.handlers.size(), ext->program->handlers.size()) << name;
    for (const auto& [hname, hr] : ext->reports) {
      EXPECT_TRUE(hr.certified) << name << "/" << hname << " certification changed";
      EXPECT_NE(ext->compiled.Find(hname), nullptr)
          << name << "/" << hname << " did not compile";
    }
  }
}

}  // namespace
}  // namespace edc
