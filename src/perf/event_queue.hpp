#pragma once

/// Discrete-event core of the CMP simulator.
///
/// The DES schedule pattern is near-monotonic with short deltas: almost
/// every event lands within a few tens of cycles of `now` (pipeline
/// latencies, `schedule_typed_in(1)` pumps, L1/L2 tag latencies), with a
/// thin far-future tail (DRAM completions behind a busy controller). The
/// queue exploits this with a two-tier *calendar queue*:
///
///  - a ring of `kNearHorizon` buckets, one cycle per bucket, for events in
///    `[now, now + kNearHorizon)` — push is an append, pop is a bitmap scan
///    from `now`, both O(1) amortized;
///  - a binary-heap overflow for events at or beyond the horizon.
///
/// Events at the same cycle run in schedule order (a stable sequence number
/// breaks ties) so simulations are fully deterministic. The two tiers
/// preserve this exactly: an overflow entry for cycle `t` was necessarily
/// scheduled while `t` was still beyond the ring horizon, i.e. before every
/// ring entry for `t` existed, so draining the heap first on a tied cycle
/// is precisely FIFO order. tests/perf/test_event_queue_params.cpp checks
/// the pop order against a plain binary-heap reference queue.
///
/// Every event is typed: a bare function pointer plus two context pointers
/// and a Message payload stored inline in the entry, so scheduling never
/// allocates and entries move as plain bytes.

#include <array>
#include <cstdint>
#include <queue>
#include <type_traits>
#include <vector>

#include "perf/params.hpp"
#include "perf/protocol.hpp"

namespace aqua {

/// Deterministic discrete-event queue.
class EventQueue {
 public:
  /// Event handler, invoked as `fn(ctx, target, msg)`. The two pointers
  /// identify the simulator and the core/bank the event acts on; the
  /// Message rides inline.
  using TypedFn = void (*)(void* ctx, void* target, const Message& msg);

  /// Width of the calendar ring in cycles. Must be a power of two.
  static constexpr Cycle kNearHorizon = 1024;

  EventQueue();

  /// Schedules `fn` to run at absolute cycle `when` (>= now()).
  void schedule_typed(Cycle when, TypedFn fn, void* ctx, void* target,
                      const Message& msg);

  /// Schedules `fn` `delay` cycles from now.
  void schedule_typed_in(Cycle delay, TypedFn fn, void* ctx, void* target,
                         const Message& msg) {
    schedule_typed(now_ + delay, fn, ctx, target, msg);
  }

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Total events scheduled over the queue's lifetime.
  [[nodiscard]] std::uint64_t scheduled() const { return seq_; }

  /// High-water mark of pending(). Plain members, not atomics: the DES is
  /// single-threaded per instance and schedule_typed() is the hot path.
  [[nodiscard]] std::size_t max_pending() const { return max_pending_; }

  /// Cycle of the earliest pending event; only valid when !empty().
  [[nodiscard]] Cycle next_time() const;

  /// Runs the single earliest event (advancing now()).
  void step();

  /// Runs every event scheduled at the current next_time() cycle.
  void step_cycle();

  /// Runs events until the queue drains or `limit` cycles elapse.
  /// Returns true if the queue drained.
  bool run(Cycle limit = ~Cycle{0});

 private:
  struct Entry {
    Cycle when = 0;
    std::uint64_t seq = 0;
    TypedFn fn = nullptr;
    void* ctx = nullptr;
    void* target = nullptr;
    Message msg{};

    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  static_assert(std::is_trivially_copyable_v<Entry>,
                "entries must move as plain bytes");

  /// One cycle's events, consumed front-to-back through `next` so pops
  /// never shift the vector; storage is recycled once the bucket drains.
  struct Bucket {
    std::vector<Entry> entries;
    std::size_t next = 0;
  };

  static constexpr std::size_t kBitmapWords = kNearHorizon / 64;

  /// Earliest ring cycle; only valid when ring_count_ > 0.
  [[nodiscard]] Cycle next_ring_time() const;

  std::vector<Bucket> ring_;  ///< kNearHorizon buckets
  std::array<std::uint64_t, kBitmapWords> bitmap_{};  ///< non-empty buckets
  std::size_t ring_count_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t pending_ = 0;
  std::size_t max_pending_ = 0;
};

}  // namespace aqua
