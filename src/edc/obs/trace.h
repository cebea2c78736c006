// Causal tracing for the simulator (Dapper-style spans over simulated time).
//
// A trace is a tree of spans rooted at one client operation. The current
// TraceContext is a piece of ambient state the event loop snapshots at
// Schedule() time and restores around each callback (see
// EventLoop::SetContextHooks), so causality follows the event graph — client
// issue -> network link -> server dispatch -> Zab/BFT ordering -> group-commit
// fsync -> extension sandbox -> reply — with zero changes to what the
// simulation does: the tracer only reads clocks, never schedules events or
// draws randomness. The determinism-under-observation test pins that.
//
// Every span carries a Stage used by StageBreakdown to attribute each instant
// of an operation's latency to exactly one bucket (queue-wait / cpu / network
// / fsync / other), via a priority sweep over the span intervals: at any
// instant the highest-priority active stage wins, and the root span keeps
// "other" active throughout, so the buckets sum exactly to the measured
// latency.

#ifndef EDC_OBS_TRACE_H_
#define EDC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "edc/sim/time.h"

namespace edc {

using TraceId = uint64_t;
using SpanId = uint64_t;

// The ambient causal context: which trace (client op) the currently running
// code is working for, and under which parent span. trace == 0 means "not
// inside any traced operation" and all instrumentation no-ops.
struct TraceContext {
  TraceId trace = 0;
  SpanId span = 0;
  bool active() const { return trace != 0; }
};

// Latency attribution bucket. Order is the sweep priority, lowest to highest:
// when spans overlap (e.g. a cpu span inside the root), the later enum wins.
enum class Stage : uint8_t {
  kOther = 0,    // in-protocol waiting not covered below (commit quorum, ...)
  kNetwork = 1,  // packet in flight (propagation + serialization + FIFO)
  kQueue = 2,    // waiting for a CPU core
  kCpu = 3,      // occupying a CPU core
  kFsync = 4,    // waiting for the group-commit fsync
};
constexpr size_t kStageCount = 5;
const char* StageName(Stage stage);

struct SpanRec {
  SpanId id = 0;
  TraceId trace = 0;
  SpanId parent = 0;
  const char* name = "";  // static string; spans never own their name
  Stage stage = Stage::kOther;
  uint32_t track = 0;  // Perfetto tid; we use the NodeId doing the work
  SimTime start = 0;
  SimTime end = -1;  // -1 while open
};

// Per-stage attribution of one operation's latency; ns[] sums to total.
struct StageBreakdown {
  int64_t ns[kStageCount] = {};
  int64_t total = 0;
  int64_t of(Stage stage) const { return ns[static_cast<size_t>(stage)]; }

  StageBreakdown& operator+=(const StageBreakdown& o) {
    for (size_t i = 0; i < kStageCount; ++i) {
      ns[i] += o.ns[i];
    }
    total += o.total;
    return *this;
  }
};

class Tracer {
 public:
  // Disabled tracers make every call a cheap no-op (BeginTrace returns an
  // inactive context, so downstream spans are skipped too).
  void Enable(bool retain_spans = false) {
    enabled_ = true;
    retain_ = retain_spans;
  }
  bool enabled() const { return enabled_; }
  // Keep spans of finished traces for ExportJson (otherwise FinishTrace
  // frees them after computing the breakdown, bounding memory).
  void SetRetain(bool retain) { retain_ = retain; }

  const TraceContext& current() const { return current_; }
  void SetCurrent(const TraceContext& ctx) { current_ = ctx; }

  // Opens a new trace with a root span and makes it the current context.
  TraceContext BeginTrace(const char* name, uint32_t track, SimTime now);

  // Opens a child span under `ctx` (or under current() for BeginSpan) and
  // returns its id; EndSpan closes it. Inactive contexts return 0 / no-op.
  SpanId BeginSpanIn(const TraceContext& ctx, const char* name, Stage stage, uint32_t track,
                     SimTime now);
  SpanId BeginSpan(const char* name, Stage stage, uint32_t track, SimTime now) {
    return BeginSpanIn(current_, name, stage, track, now);
  }
  void EndSpan(const TraceContext& ctx, SpanId span, SimTime now);

  // Records a fully-formed child span in one call — for stages whose end is
  // already known at creation time (network arrival, cpu start/finish).
  void RecordSpanIn(const TraceContext& ctx, const char* name, Stage stage, uint32_t track,
                    SimTime start, SimTime end);

  // Closes the root (and any span still open, e.g. a request cut short by a
  // fault) at `now`, computes the stage breakdown, and releases the trace's
  // spans unless retention is on.
  StageBreakdown FinishTrace(const TraceContext& root, SimTime now);

  // Chrome trace_event JSON ("X" complete events, ts/dur in microseconds),
  // loadable directly in Perfetto / chrome://tracing. Covers retained
  // finished traces plus any still-open ones. Returns false on I/O error.
  bool ExportJson(const std::string& path) const;

  size_t live_traces() const { return live_.size(); }
  size_t retained_spans() const { return retained_.size(); }

 private:
  // Appends a span under `ctx` with one trace lookup; null when inactive or
  // the trace already finished.
  SpanRec* AppendSpan(const TraceContext& ctx, const char* name, Stage stage, uint32_t track,
                      SimTime start);
  SpanRec* FindSpan(TraceId trace, SpanId span);

  bool enabled_ = false;
  bool retain_ = false;
  TraceContext current_;
  uint64_t next_id_ = 1;  // shared trace/span id counter; 0 stays invalid
  std::unordered_map<TraceId, std::vector<SpanRec>> live_;  // [0] is the root
  std::vector<SpanRec> retained_;
};

}  // namespace edc

#endif  // EDC_OBS_TRACE_H_
