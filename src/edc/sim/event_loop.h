// Deterministic discrete-event loop.
//
// Contract:
//  - Ordering. Events fire in (time, insertion-sequence) order, so two events
//    scheduled for the same instant run in the order they were scheduled —
//    this, plus the seeded Rng, is what makes whole-cluster runs replayable.
//  - Storage. Each pending event lives in a slot of a slab (callback plus
//    EventContext); freed slots are reused through a free list. The heap is a
//    dense binary heap of 16-byte keys (at, seq << 24 | slot), so it moves no
//    callbacks, and pos_[slot] is each pending slot's heap index.
//  - Ids. A TimerId is (generation << 32) | (slot + 1). A slot's generation
//    is bumped whenever it is freed, so an id names exactly one event, and
//    kInvalidTimer (0) names none.
//  - Eager cancel. Cancel() of a pending event removes its key from the heap
//    at once and frees its slot: the heap holds only live events, and
//    pending() is exactly the number of events still to run. Cancel() of an
//    id that already fired, was already cancelled, or whose slot now holds a
//    newer event is a no-op. An event's slot is freed before its callback
//    runs, so a callback cancelling its own id is a no-op too.

#ifndef EDC_SIM_EVENT_LOOP_H_
#define EDC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "edc/sim/time.h"

namespace edc {

using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` to run `delay` ns from now. Returns an id usable with
  // Cancel(). Negative delays are clamped to zero.
  TimerId Schedule(Duration delay, Callback cb);
  TimerId ScheduleAt(SimTime at, Callback cb);

  // Cancels a pending timer; no-op if it already fired, was cancelled, or its
  // slot now holds a newer event.
  void Cancel(TimerId id);

  // Runs until no events remain or Stop() is called. Returns events processed.
  uint64_t Run();

  // Runs events with timestamp <= deadline, then advances now() to deadline.
  uint64_t RunUntil(SimTime deadline);

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // Causal-context propagation (observability): `capture` runs at
  // Schedule()/ScheduleAt() time and its result is stored with the event;
  // `activate` runs with that value right before the event's callback and
  // with a default EventContext right after, restoring ambient state around
  // every hop of the event graph. The loop itself never interprets the
  // payload. Hooks must not schedule events — they exist precisely so that
  // tracing cannot perturb the simulation.
  struct EventContext {
    uint64_t a = 0;
    uint64_t b = 0;
  };
  using ContextCapture = std::function<EventContext()>;
  using ContextActivate = std::function<void(const EventContext&)>;
  void SetContextHooks(ContextCapture capture, ContextActivate activate) {
    capture_ = std::move(capture);
    activate_ = std::move(activate);
  }

  size_t pending() const { return heap_.size(); }
  uint64_t events_processed() const { return events_processed_; }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

  struct Key {
    SimTime at = 0;
    uint64_t order = 0;  // seq << kSlotBits | slot
    bool operator<(const Key& o) const { return at < o.at || (at == o.at && order < o.order); }
  };
  struct Slot {
    Callback cb;
    EventContext ctx;
    uint32_t gen = 0;
  };

  static uint32_t SlotOf(const Key& k) { return static_cast<uint32_t>(k.order & kSlotMask); }
  void FreeSlot(uint32_t slot);
  void RemoveAt(size_t i);
  void SiftUp(size_t i, Key k);
  void SiftDown(size_t i, Key k);
  void PopAndRun();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
  uint64_t events_processed_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> pos_;   // heap index of each pending slot
  std::vector<uint32_t> free_;  // reusable slots, most recently freed last
  ContextCapture capture_;
  ContextActivate activate_;
};

}  // namespace edc

#endif  // EDC_SIM_EVENT_LOOP_H_
