#pragma once

/// Reference event queue for the calendar-queue differential tests: one
/// std::priority_queue ordered by (cycle, schedule sequence). It is the
/// plainest correct implementation of EventQueue's ordering contract —
/// earliest cycle first, schedule order within a cycle — and exists only
/// to check that the calendar queue's ring/overflow split pops exactly
/// the same sequence.

#include <cstdint>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "perf/event_queue.hpp"

namespace aqua::testutil {

class HeapEventQueue {
 public:
  using TypedFn = EventQueue::TypedFn;

  void schedule_typed(Cycle when, TypedFn fn, void* ctx, void* target,
                      const Message& msg) {
    require(when >= now_, "cannot schedule an event in the past");
    heap_.push(Entry{when, seq_++, fn, ctx, target, msg});
  }
  void schedule_typed_in(Cycle delay, TypedFn fn, void* ctx, void* target,
                         const Message& msg) {
    schedule_typed(now_ + delay, fn, ctx, target, msg);
  }

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  void step() {
    const Entry e = heap_.top();
    heap_.pop();
    now_ = e.when;
    e.fn(e.ctx, e.target, e.msg);
  }

  void run() {
    while (!heap_.empty()) step();
  }

 private:
  struct Entry {
    Cycle when;
    std::uint64_t seq;
    TypedFn fn;
    void* ctx;
    void* target;
    Message msg;

    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace aqua::testutil
