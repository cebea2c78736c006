#include "edc/sim/event_loop.h"

#include <cassert>
#include <utility>

namespace edc {

TimerId EventLoop::Schedule(Duration delay, Callback cb) {
  if (delay < 0) {
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(cb));
}

TimerId EventLoop::ScheduleAt(SimTime at, Callback cb) {
  assert(cb && "null callback scheduled");
  if (at < now_) {
    at = now_;
  }
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    assert(slot <= kSlotMask && "too many pending events");
    slots_.emplace_back();
    pos_.push_back(0);
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.ctx = capture_ ? capture_() : EventContext{};
  uint64_t seq = next_seq_++;
  assert(seq < (uint64_t{1} << (64 - kSlotBits)) && "event sequence overflow");
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Key{at, seq << kSlotBits | slot});
  return (uint64_t{s.gen} << 32) | (uint64_t{slot} + 1);
}

void EventLoop::Cancel(TimerId id) {
  // kInvalidTimer maps to slot 0xffffffff, which is never allocated.
  uint32_t slot = static_cast<uint32_t>(id) - 1;
  if (slot >= slots_.size() || slots_[slot].gen != id >> 32) {
    return;
  }
  RemoveAt(pos_[slot]);
  // Destroy the callback only once the loop is consistent again: its
  // captures' destructors may call back into the loop.
  Callback dead;
  dead.swap(slots_[slot].cb);
  FreeSlot(slot);
}

void EventLoop::FreeSlot(uint32_t slot) {
  ++slots_[slot].gen;
  free_.push_back(slot);
}

void EventLoop::RemoveAt(size_t i) {
  Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;
  }
  if (i > 0 && last < heap_[(i - 1) / 2]) {
    SiftUp(i, last);
  } else {
    SiftDown(i, last);
  }
}

// Both sifts move a hole from index i and drop `k` into it at the end.
void EventLoop::SiftUp(size_t i, Key k) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!(k < heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    pos_[SlotOf(heap_[i])] = static_cast<uint32_t>(i);
    i = parent;
  }
  heap_[i] = k;
  pos_[SlotOf(k)] = static_cast<uint32_t>(i);
}

void EventLoop::SiftDown(size_t i, Key k) {
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_[child + 1] < heap_[child]) {
      ++child;
    }
    if (!(heap_[child] < k)) {
      break;
    }
    heap_[i] = heap_[child];
    pos_[SlotOf(heap_[i])] = static_cast<uint32_t>(i);
    i = child;
  }
  heap_[i] = k;
  pos_[SlotOf(k)] = static_cast<uint32_t>(i);
}

void EventLoop::PopAndRun() {
  const Key top = heap_.front();
  const uint32_t slot = SlotOf(top);
  RemoveAt(0);
  assert(top.at >= now_);
  now_ = top.at;
  // Free the slot before running: the callback may schedule (and so reuse it
  // or grow slots_), and cancelling its own id must be a no-op.
  Callback cb;
  cb.swap(slots_[slot].cb);
  const EventContext ctx = slots_[slot].ctx;
  FreeSlot(slot);
  if (activate_) {
    activate_(ctx);
    cb();
    activate_(EventContext{});
  } else {
    cb();
  }
  ++events_processed_;
}

uint64_t EventLoop::Run() {
  stopped_ = false;
  uint64_t n = 0;
  while (!heap_.empty() && !stopped_) {
    PopAndRun();
    ++n;
  }
  return n;
}

uint64_t EventLoop::RunUntil(SimTime deadline) {
  stopped_ = false;
  uint64_t n = 0;
  while (!heap_.empty() && !stopped_ && heap_.front().at <= deadline) {
    PopAndRun();
    ++n;
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace edc
