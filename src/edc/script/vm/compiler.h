// AST -> register bytecode compiler for CoordScript handlers.
//
// Lowering performed here (docs/bytecode_vm.md):
//   * static scope resolution — every variable becomes a register; shadowing
//     and block lifetimes mirror the tree-walking reference semantics exactly
//   * constant folding of pure literal subtrees, carrying the dynamic step
//     count (and source line) of every folded node, short-circuit aware, so
//     accounting is unchanged
//   * builtin calls resolved to BuiltinsByIndex() indices at compile time
//   * short-circuit && / || lowered to conditional jumps
//   * foreach lowered to cached-iterator instructions, type-check-free when
//     the source is a list literal
//
// Every handler that passes the analyzer compiles: the one construct the
// compiler cannot lower (a variable no scope declares) is the analyzer's
// EDC-E010/E011 error, which rejects the extension first.

#ifndef EDC_SCRIPT_VM_COMPILER_H_
#define EDC_SCRIPT_VM_COMPILER_H_

#include "edc/common/result.h"
#include "edc/script/ast.h"
#include "edc/script/vm/bytecode.h"

namespace edc {

// Compiles one handler. Returns false (leaving *out unspecified) if a
// variable cannot be resolved or the handler needs more than 65535
// registers.
bool CompileHandler(const Handler& handler, CompiledHandler* out);

// Compiles every handler of `program`. kExtensionRejected names the first
// handler that does not compile.
Result<CompiledModule> CompileProgram(const Program& program);

}  // namespace edc

#endif  // EDC_SCRIPT_VM_COMPILER_H_
