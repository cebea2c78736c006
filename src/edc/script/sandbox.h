// The extension sandbox's contract with its host (paper §4.1.2): the
// service-state functions a binding injects, and the one set of resource
// bounds that the verifier's analyses assume and the VM enforces.

#ifndef EDC_SCRIPT_SANDBOX_H_
#define EDC_SCRIPT_SANDBOX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/script/value.h"

namespace edc {

// Service-state and environment functions injected by the extension sandbox.
class ScriptHost {
 public:
  virtual ~ScriptHost() = default;
  virtual bool HasFunction(const std::string& name) const = 0;
  virtual Result<Value> Call(const std::string& name, std::vector<Value>& args) = 0;
};

// Resource-consumption bounds enforced by the sandbox (§4.1.2). The static
// analyzer reads the same struct (VerifierConfig::limits), so the bounds it
// proves and the bounds the VM enforces cannot drift apart.
struct ExtensionLimits {
  int64_t max_steps = 100000;          // execution steps per invocation
  size_t max_value_bytes = 64 * 1024;  // largest intermediate value
  size_t max_state_ops = 256;          // coordination-state accesses per invocation
  size_t max_created_objects = 64;     // objects created per invocation
  // Consecutive runtime failures before the manager evicts the extension
  // (0 = never). Registration-time verification cannot prove absence of
  // runtime errors (§4.1.2); eviction bounds the damage of a crash-looping
  // extension.
  int strike_limit = 0;
  // Cap on list sizes returned by collection host functions (children,
  // sub_objects) and by list-returning builtins (split, append, keys,
  // sort_by). The cost pass's foreach bounds and cardinality transfer
  // functions assume this cap, so the sandbox enforces it at runtime.
  size_t max_collection_items = 256;
  // Ingest cap on values crossing into the sandbox: handler arguments and
  // host-call results (element-wise for lists) must fit in this many
  // ApproxSize bytes. The abstract-interpretation layer seeds its input
  // string-length intervals from this number, so handlers looping over
  // split() of their inputs get finite step bounds
  // (docs/static_analysis.md).
  size_t max_input_bytes = 2048;
};

struct ExecStats {
  int64_t steps_used = 0;
};

}  // namespace edc

#endif  // EDC_SCRIPT_SANDBOX_H_
