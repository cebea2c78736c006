// Differential test of EventLoop against a trivial reference loop, a std::map
// keyed by (at, seq). Seeded random scripts schedule (equal times, negative
// delays, nested schedules from callbacks), cancel live, fired and stale ids
// (including an event cancelling itself), and drive RunUntil/Run/Stop. Both
// loops must produce the same observation log: firing order, now(),
// pending(), events_processed() and every Run/RunUntil return value.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "edc/common/rng.h"
#include "edc/sim/event_loop.h"

namespace edc {
namespace {

class RefLoop {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }
  size_t pending() const { return events_.size(); }
  uint64_t events_processed() const { return processed_; }

  uint64_t Schedule(Duration delay, Callback cb) {
    SimTime at = now_ + (delay < 0 ? 0 : delay);
    uint64_t seq = next_seq_++;
    events_.emplace(std::make_pair(at, seq), std::move(cb));
    return seq;  // ids are the seqs; a fired or cancelled one is erased
  }
  void Cancel(uint64_t id) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->first.second == id) {
        events_.erase(it);
        return;
      }
    }
  }
  void Stop() { stopped_ = true; }
  uint64_t Run() { return RunUntil(INT64_MAX, /*advance=*/false); }
  uint64_t RunUntil(SimTime deadline) { return RunUntil(deadline, /*advance=*/true); }

 private:
  uint64_t RunUntil(SimTime deadline, bool advance) {
    stopped_ = false;
    uint64_t n = 0;
    while (!events_.empty() && !stopped_ && events_.begin()->first.first <= deadline) {
      auto it = events_.begin();
      now_ = it->first.first;
      Callback cb = std::move(it->second);
      events_.erase(it);
      cb();
      ++processed_;
      ++n;
    }
    if (advance && !stopped_ && now_ < deadline) {
      now_ = deadline;
    }
    return n;
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
  bool stopped_ = false;
  std::map<std::pair<SimTime, uint64_t>, Callback> events_;
};

// One random script, run against either loop. Events are named by labels in
// creation order; both runs create the same labels, so each keeps its own
// label -> id table and cancels by label. Every event's actions come from an
// Rng seeded by (script seed, label), so they do not depend on the loop.
template <typename Loop>
class Script {
 public:
  explicit Script(uint64_t seed) : seed_(seed) {}

  std::vector<int64_t> Execute(int steps) {
    Rng rng(seed_);
    for (int step = 0; step < steps; ++step) {
      uint64_t op = rng.UniformU64(10);
      if (op < 5) {
        ScheduleOne(rng);
      } else if (op < 7) {
        CancelOne(rng);
      } else if (op < 9) {
        Log(-2, static_cast<int64_t>(loop_.RunUntil(loop_.now() + rng.UniformInt(0, 8))));
      } else {
        Log(-3, static_cast<int64_t>(loop_.Run()));
      }
      Log(-4, loop_.now());
      Log(-5, static_cast<int64_t>(loop_.pending()));
      Log(-6, static_cast<int64_t>(loop_.events_processed()));
    }
    Log(-3, static_cast<int64_t>(loop_.Run()));
    Log(-5, static_cast<int64_t>(loop_.pending()));
    Log(-6, static_cast<int64_t>(loop_.events_processed()));
    return log_;
  }

 private:
  void Log(int64_t tag, int64_t value) {
    log_.push_back(tag);
    log_.push_back(value);
  }

  // Small delays so equal times are common; some negative (clamped to 0).
  void ScheduleOne(Rng& rng) {
    const int64_t label = static_cast<int64_t>(ids_.size());
    const Duration delay = rng.UniformInt(-3, 12);
    ids_.push_back(0);
    ids_[static_cast<size_t>(label)] = loop_.Schedule(delay, [this, label] { Fire(label); });
  }

  // Any label ever created: live, fired, cancelled, or one whose slot now
  // holds a newer event.
  void CancelOne(Rng& rng) {
    if (ids_.empty()) {
      return;
    }
    loop_.Cancel(ids_[rng.UniformU64(ids_.size())]);
  }

  void Fire(int64_t label) {
    Log(label, loop_.now());
    Rng rng(seed_ * 1000003 + static_cast<uint64_t>(label));
    const uint64_t actions = ids_.size() < 4000 ? rng.UniformU64(3) : 0;
    for (uint64_t i = 0; i < actions; ++i) {
      uint64_t op = rng.UniformU64(8);
      if (op < 4) {
        ScheduleOne(rng);
      } else if (op < 6) {
        CancelOne(rng);
      } else if (op < 7) {
        loop_.Cancel(ids_[static_cast<size_t>(label)]);  // itself: no-op
      } else {
        loop_.Stop();
      }
    }
  }

  uint64_t seed_;
  Loop loop_;
  std::vector<uint64_t> ids_;  // label -> this loop's id
  std::vector<int64_t> log_;
};

TEST(EventLoopDiffTest, MatchesMapReferenceOnRandomScripts) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::vector<int64_t> got = Script<EventLoop>(seed).Execute(400);
    std::vector<int64_t> want = Script<RefLoop>(seed).Execute(400);
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace edc
