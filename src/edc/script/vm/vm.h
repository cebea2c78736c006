// Register-machine executor for compiled CoordScript handlers: the sandbox
// engine every extension handler runs on (paper §4.1.2).
//
// Execution is always metered: each instruction charges the steps of the
// AST nodes it stands for before it executes, and a run that exceeds
// ExtensionLimits::max_steps stops with kExtensionLimit ("step budget
// exceeded at line N") and steps_used == max_steps + 1, N being the line of
// the node the budget ran out on — even inside an instruction that folds
// several nodes. Oversized intermediate values abort with kExtensionLimit;
// script-level failures (type errors, error(...), out-of-range access)
// return kExtensionError. State access goes exclusively through the
// ScriptHost, which the bindings guard.

#ifndef EDC_SCRIPT_VM_VM_H_
#define EDC_SCRIPT_VM_VM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/script/sandbox.h"
#include "edc/script/value.h"
#include "edc/script/vm/bytecode.h"

namespace edc {

class Vm {
 public:
  // `module` and `host` must outlive the VM.
  Vm(const CompiledModule* module, ScriptHost* host, const ExtensionLimits& limits)
      : module_(module), host_(host), limits_(limits) {}

  // Runs handler `name` with `args` (missing parameters become null, extra
  // args are dropped). Returns the handler's return value, or null if it
  // falls off the end. Each invocation gets the full step budget.
  Result<Value> Invoke(const std::string& name, std::vector<Value> args);

  // Accounting of the last Invoke.
  const ExecStats& stats() const { return stats_; }

 private:
  Result<Value> Run(const CompiledHandler& handler, std::vector<Value> args);
  // Cold path: settles steps_used at the exact charge that crossed the limit
  // inside instruction `pc` and names that charge's source line.
  Status StepLimitExceeded(const CompiledHandler& handler, uint32_t pc,
                           int64_t max_steps);

  const CompiledModule* module_;
  ScriptHost* host_;
  ExtensionLimits limits_;
  ExecStats stats_;
};

}  // namespace edc

#endif  // EDC_SCRIPT_VM_VM_H_
