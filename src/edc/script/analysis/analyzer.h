// Registration-time static analysis driver for CoordScript (paper §4.1.1).
//
// AnalyzeProgram runs every pass — structural limits, lexical scoping,
// whitelist, CFG dataflow (liveness, reaching defs, dead store, unused
// variable, unreachable code), worst-case cost bounding, and determinism
// taint — and accumulates diagnostics instead of stopping at the first
// violation. Per-handler results carry the certification verdict: a
// certified handler has a proven step bound within the execution budget.
// Certification is a lint verdict (edc-lint, the `ext.certified` counter);
// every handler runs on the same always-metered VM either way.

#ifndef EDC_SCRIPT_ANALYSIS_ANALYZER_H_
#define EDC_SCRIPT_ANALYSIS_ANALYZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/script/analysis/diagnostics.h"
#include "edc/script/ast.h"
#include "edc/script/verifier.h"

namespace edc {

struct HandlerReport {
  bool cost_bounded = false;
  int64_t step_bound = 0;     // valid only when cost_bounded
  bool certified = false;     // cost_bounded && step_bound <= limits.max_steps
  bool deterministic = true;  // no nondeterministic taint reaches a sink
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;  // sorted by line/col/code
  std::map<std::string, HandlerReport> handlers;

  bool ok() const { return !HasErrors(diagnostics); }
  const Diagnostic* first_error() const;
};

AnalysisReport AnalyzeProgram(const Program& program, const VerifierConfig& config);

// Legacy accept/reject view of a report: Ok when error-free, otherwise
// kExtensionRejected with "verification failed at line N: <message> [CODE]"
// (the format VerifyProgram has always produced).
Status ToVerifierStatus(const AnalysisReport& report);

}  // namespace edc

#endif  // EDC_SCRIPT_ANALYSIS_ANALYZER_H_
