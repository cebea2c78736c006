// Register bytecode for CoordScript handlers: the one engine every
// extension handler runs on. Every handler is compiled once, at
// registration, and runs on a flat register machine on the hot path. The
// language semantics it implements are pinned by a tree-walking reference
// interpreter kept as a test oracle (tests/script/oracle/):
//
//   * Step accounting: the language charges one step per statement executed
//     and one per expression node evaluated. Every instruction carries the
//     steps of its own node plus any nodes folded into it, charged *before*
//     the instruction executes, and the source line of each of those charges
//     (CompiledHandler::step_lines). So steps_used agrees with the reference
//     at every observable exit — normal return, runtime error, value-size
//     abort, and a step-limit trip, which reports the exact node the budget
//     ran out on. Replica digests and simulated timing cannot move.
//   * Error Status codes, messages and line attribution replicate the
//     reference byte for byte.
//
// See docs/bytecode_vm.md for the instruction-set walkthrough and the
// step-accounting equivalence argument.

#ifndef EDC_SCRIPT_VM_BYTECODE_H_
#define EDC_SCRIPT_VM_BYTECODE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edc/script/value.h"

namespace edc {

enum class OpCode : uint8_t {
  // dst = constants[aux]
  kLoadConst,
  // dst = constants[aux], then value-size check (a folded expression whose
  // evaluation ends in a size check: string concat / list literal).
  kLoadConstChecked,
  // dst = reg[a]  (variable reads; charges the kVar node's step)
  kMove,
  // dst = -reg[a] (unsigned-wrap negation; type-checked) / !Truthy(reg[a])
  kNeg,
  kNot,
  // dst = reg[a] <op> reg[b], with the language's exact type checks,
  // wrap-around arithmetic and division/modulo guards. kAdd also handles
  // string concatenation (+ size check).
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  // dst = Truthy(reg[a]) as bool (closes short-circuit lowering).
  kTruthy,
  // pc = aux
  kJump,
  // if !Truthy(reg[a]) pc = aux
  kJumpIfFalse,
  // if Truthy(reg[a]) pc = aux
  kJumpIfTrue,
  // dst = reg[a][reg[b]] (list / map / string indexing, with bounds checks)
  kIndex,
  // dst = list(reg[a] .. reg[a + b - 1]), then value-size check
  kMakeList,
  // dst = builtins-by-index[aux](reg[a] .. reg[a + b - 1]), then size check.
  // The registry index is resolved at compile time: no per-call map lookup.
  kCallBuiltin,
  // dst = host->Call(host_names[aux], reg[a] .. reg[a + b - 1]), then size
  // check — host results obey max_value_bytes exactly like builtin results.
  kCallHost,
  // foreach header: type-check reg[a] as a list and snapshot it into
  // iterator slot b (cached data pointer + length; the snapshot keeps the
  // shared list alive even if the body rebinds the source variable).
  kIterInit,
  // As kIterInit but the compiler proved reg[a] is a list (it was built by a
  // list literal), so the runtime type check is elided.
  kIterInitList,
  // if slot b has items left: dst = next element, fall through; else pc = aux
  kIterNext,
  // return reg[a] / return null (handler falls off the end or bare return)
  kReturn,
  kReturnNull,
};

struct Instruction {
  OpCode op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t aux = 0;    // constant index / jump target / builtin / host name
  uint32_t steps = 0;  // execution steps charged before executing
  int32_t line = 0;    // source line for error attribution
};

struct CompiledHandler {
  std::string name;
  uint16_t num_params = 0;
  uint16_t num_registers = 0;
  uint16_t num_iter_slots = 0;
  std::vector<Instruction> code;
  std::vector<Value> constants;
  std::vector<std::string> host_names;  // kCallHost targets, by aux index
  // Source line of every step charge, in charge order: instruction pc's
  // code[pc].steps charges follow those of code[0..pc). Read only when the
  // step limit trips, to report the line of the node the budget ran out on.
  std::vector<int32_t> step_lines;
};

// Every handler of one extension, compiled at registration.
struct CompiledModule {
  std::map<std::string, CompiledHandler> handlers;

  const CompiledHandler* Find(const std::string& name) const {
    auto it = handlers.find(name);
    return it == handlers.end() ? nullptr : &it->second;
  }
};

}  // namespace edc

#endif  // EDC_SCRIPT_VM_BYTECODE_H_
