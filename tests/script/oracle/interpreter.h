// Tree-walking reference interpreter for CoordScript: the test oracle for
// the bytecode VM (src/edc/script/vm/), which is the only engine production
// code runs.
//
// It states the language semantics as directly as possible — one step per
// statement executed and per expression node evaluated, charged before the
// node runs; exhaustion returns kExtensionLimit with steps_used ==
// max_steps + 1 and the line of the node that ran out; oversized values
// abort with kExtensionLimit; script-level failures (type errors,
// error(...), out-of-range access) return kExtensionError. The differential
// tests (vm_test, vm_conformance_test, analysis_crossval_test) require the
// VM to match it byte for byte.

#ifndef EDC_TESTS_SCRIPT_ORACLE_INTERPRETER_H_
#define EDC_TESTS_SCRIPT_ORACLE_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/script/ast.h"
#include "edc/script/sandbox.h"
#include "edc/script/value.h"

namespace edc {

class Interpreter {
 public:
  // `program` and `host` must outlive the interpreter.
  Interpreter(const Program* program, ScriptHost* host, const ExtensionLimits& limits)
      : program_(program), host_(host), limits_(limits) {}

  // Runs handler `name` with `args` (missing parameters become null, extra
  // args are dropped). Returns the handler's return value, or null if it
  // falls off the end.
  Result<Value> Invoke(const std::string& name, std::vector<Value> args);

  const ExecStats& stats() const { return stats_; }

 private:
  enum class FlowKind { kNormal, kReturn };
  struct Flow {
    FlowKind kind = FlowKind::kNormal;
    Value value;
  };

  Result<Flow> ExecBlock(const Block& block);
  Result<Flow> ExecStmt(const Stmt& stmt);
  Result<Value> Eval(const Expr& expr);
  Result<Value> EvalBinary(const Expr& expr);
  Result<Value> EvalCall(const Expr& expr);

  // Hot path: counts the step and reports whether execution may continue.
  // The error Status is built out of line only on the (cold) failure path.
  bool StepOk() {
    ++stats_.steps_used;
    return stats_.steps_used <= limits_.max_steps;
  }
  Status StepLimitError(int line) const;
  Status CheckSize(const Value& v, int line);
  // Host results additionally obey the element-wise ingest cap
  // (max_input_bytes); builtin list results obey max_collection_items.
  Status CheckHostResult(const Value& v, int line);
  Status CheckBuiltinResult(const Value& v, int line);

  Value* FindVar(const std::string& name);

  const Program* program_;
  ScriptHost* host_;
  ExtensionLimits limits_;
  ExecStats stats_;
  std::vector<std::map<std::string, Value>> scopes_;
};

}  // namespace edc

#endif  // EDC_TESTS_SCRIPT_ORACLE_INTERPRETER_H_
