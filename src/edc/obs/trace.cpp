#include "edc/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace edc {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kOther:
      return "other";
    case Stage::kNetwork:
      return "network";
    case Stage::kQueue:
      return "queue";
    case Stage::kCpu:
      return "cpu";
    case Stage::kFsync:
      return "fsync";
  }
  return "?";
}

TraceContext Tracer::BeginTrace(const char* name, uint32_t track, SimTime now) {
  if (!enabled_) {
    return TraceContext{};
  }
  TraceId trace = next_id_++;
  SpanId root = next_id_++;
  SpanRec rec;
  rec.id = root;
  rec.trace = trace;
  rec.parent = 0;
  rec.name = name;
  rec.stage = Stage::kOther;
  rec.track = track;
  rec.start = now;
  live_[trace].push_back(rec);
  current_ = TraceContext{trace, root};
  return current_;
}

SpanRec* Tracer::AppendSpan(const TraceContext& ctx, const char* name, Stage stage,
                            uint32_t track, SimTime start) {
  if (!enabled_ || !ctx.active()) {
    return nullptr;
  }
  auto it = live_.find(ctx.trace);
  if (it == live_.end()) {
    return nullptr;  // trace already finished (straggler work after the reply)
  }
  SpanRec& rec = it->second.emplace_back();
  rec.id = next_id_++;
  rec.trace = ctx.trace;
  rec.parent = ctx.span;
  rec.name = name;
  rec.stage = stage;
  rec.track = track;
  rec.start = start;
  return &rec;
}

SpanId Tracer::BeginSpanIn(const TraceContext& ctx, const char* name, Stage stage,
                           uint32_t track, SimTime now) {
  SpanRec* rec = AppendSpan(ctx, name, stage, track, now);
  return rec == nullptr ? 0 : rec->id;
}

void Tracer::EndSpan(const TraceContext& ctx, SpanId span, SimTime now) {
  if (span == 0) {
    return;
  }
  if (SpanRec* rec = FindSpan(ctx.trace, span)) {
    rec->end = now;
  }
}

void Tracer::RecordSpanIn(const TraceContext& ctx, const char* name, Stage stage,
                          uint32_t track, SimTime start, SimTime end) {
  if (SpanRec* rec = AppendSpan(ctx, name, stage, track, start)) {
    rec->end = end;
  }
}

SpanRec* Tracer::FindSpan(TraceId trace, SpanId span) {
  auto it = live_.find(trace);
  if (it == live_.end()) {
    return nullptr;
  }
  for (SpanRec& rec : it->second) {
    if (rec.id == span) {
      return &rec;
    }
  }
  return nullptr;
}

StageBreakdown Tracer::FinishTrace(const TraceContext& root, SimTime now) {
  StageBreakdown out;
  if (!root.active()) {
    return out;
  }
  auto it = live_.find(root.trace);
  if (it == live_.end()) {
    return out;
  }
  std::vector<SpanRec>& spans = it->second;
  for (SpanRec& rec : spans) {
    if (rec.end < 0) {
      rec.end = now;  // root, plus anything cut short by a fault
    }
  }
  const SimTime t0 = spans.front().start;
  const SimTime t1 = spans.front().end;
  out.total = t1 - t0;

  // Priority sweep: at every instant of [t0, t1] the highest-priority stage
  // with an active span owns that instant. The root keeps kOther active for
  // the whole interval, so the buckets partition the total exactly.
  struct Edge {
    SimTime at;
    int delta;  // +1 open, -1 close
    Stage stage;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size() * 2);
  for (const SpanRec& rec : spans) {
    SimTime s = std::max(rec.start, t0);
    SimTime e = std::min(rec.end, t1);
    if (s >= e) {
      continue;  // clipped away (work that outlived the reply)
    }
    edges.push_back(Edge{s, +1, rec.stage});
    edges.push_back(Edge{e, -1, rec.stage});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.at < b.at; });
  int active[kStageCount] = {};
  SimTime prev = t0;
  size_t i = 0;
  while (i < edges.size()) {
    SimTime at = edges[i].at;
    if (at > prev) {
      for (size_t s = kStageCount; s-- > 0;) {
        if (active[s] > 0) {
          out.ns[s] += at - prev;
          break;
        }
      }
      prev = at;
    }
    while (i < edges.size() && edges[i].at == at) {
      active[static_cast<size_t>(edges[i].stage)] += edges[i].delta;
      ++i;
    }
  }

  if (retain_) {
    retained_.insert(retained_.end(), spans.begin(), spans.end());
  }
  live_.erase(it);
  if (current_.trace == root.trace) {
    current_ = TraceContext{};
  }
  return out;
}

bool Tracer::ExportJson(const std::string& path) const {
  std::vector<SpanRec> all = retained_;
  for (const auto& [trace, spans] : live_) {
    all.insert(all.end(), spans.begin(), spans.end());
  }
  // unordered_map iteration order is not deterministic; sort so same-seed
  // runs export byte-identical files.
  std::sort(all.begin(), all.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.start != b.start) {
      return a.start < b.start;
    }
    if (a.track != b.track) {
      return a.track < b.track;
    }
    return a.id < b.id;
  });

  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const SpanRec& rec : all) {
    SimTime end = rec.end < 0 ? rec.start : rec.end;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"trace\": %llu, \"span\": %llu, \"parent\": %llu}}",
                  first ? "" : ",\n", rec.name, StageName(rec.stage),
                  static_cast<double>(rec.start) / 1e3,
                  static_cast<double>(end - rec.start) / 1e3, rec.track,
                  static_cast<unsigned long long>(rec.trace),
                  static_cast<unsigned long long>(rec.id),
                  static_cast<unsigned long long>(rec.parent));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace edc
