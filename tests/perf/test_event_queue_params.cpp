#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "heap_event_queue.hpp"
#include "perf/event_queue.hpp"
#include "perf/params.hpp"

namespace aqua {
namespace {

// ---------------------------------------------------------- event queue ----

/// Event log for the ordering tests: handlers append their payload tag.
struct Log {
  EventQueue* q = nullptr;
  std::vector<int> order;
};

Message tag(std::uint64_t v) {
  Message m;
  m.line = v;
  return m;
}

void record(void* ctx, void*, const Message& msg) {
  static_cast<Log*>(ctx)->order.push_back(static_cast<int>(msg.line));
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  Log log;
  q.schedule_typed(30, record, &log, nullptr, tag(3));
  q.schedule_typed(10, record, &log, nullptr, tag(1));
  q.schedule_typed(20, record, &log, nullptr, tag(2));
  EXPECT_TRUE(q.run());
  EXPECT_EQ(log.order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameCycleFifo) {
  EventQueue q;
  Log log;
  for (int i = 0; i < 10; ++i) {
    q.schedule_typed(5, record, &log, nullptr, tag(i));
  }
  q.run();
  ASSERT_EQ(log.order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(log.order[i], i);
}

/// Reschedules itself two cycles ahead until it has fired five times.
void chain_hop(void* ctx, void* target, const Message& msg) {
  auto* l = static_cast<Log*>(ctx);
  l->order.push_back(0);
  if (l->order.size() < 5) {
    l->q->schedule_typed_in(2, chain_hop, ctx, target, msg);
  }
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  Log log{&q, {}};
  q.schedule_typed(0, chain_hop, &log, nullptr, Message{});
  q.run();
  EXPECT_EQ(log.order.size(), 5u);
  EXPECT_EQ(q.now(), 8u);
}

TEST(EventQueue, RunLimitStopsEarly) {
  EventQueue q;
  Log log;
  q.schedule_typed(1, record, &log, nullptr, tag(1));
  q.schedule_typed(100, record, &log, nullptr, tag(2));
  EXPECT_FALSE(q.run(50));
  EXPECT_EQ(log.order.size(), 1u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, SchedulingInPastThrows) {
  EventQueue q;
  Log log;
  q.schedule_typed(10, record, &log, nullptr, tag(0));
  q.step();
  EXPECT_THROW(q.schedule_typed(5, record, &log, nullptr, tag(0)), Error);
}

TEST(EventQueue, StepCycleRunsAllAtSameTime) {
  EventQueue q;
  Log log;
  q.schedule_typed(4, record, &log, nullptr, tag(1));
  q.schedule_typed(4, record, &log, nullptr, tag(2));
  q.schedule_typed(9, record, &log, nullptr, tag(3));
  q.step_cycle();
  EXPECT_EQ(log.order.size(), 2u);
  EXPECT_EQ(q.next_time(), 9u);
}

// Far-future events overflow the calendar ring into the heap tier; they
// must still fire in time order, including when the queue fast-forwards
// across several empty horizons.
TEST(EventQueue, FarFutureOverflowOrder) {
  EventQueue q;
  Log log;
  q.schedule_typed(5 * EventQueue::kNearHorizon, record, &log, nullptr,
                   tag(3));
  q.schedule_typed(EventQueue::kNearHorizon + 7, record, &log, nullptr,
                   tag(2));
  q.schedule_typed(3, record, &log, nullptr, tag(1));
  q.schedule_typed(9 * EventQueue::kNearHorizon + 1, record, &log, nullptr,
                   tag(4));
  EXPECT_TRUE(q.run());
  EXPECT_EQ(log.order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 9 * EventQueue::kNearHorizon + 1);
}

// When a cycle holds both overflow-heap entries (scheduled while the cycle
// was beyond the horizon) and ring entries (scheduled once it was near),
// the heap entries were necessarily scheduled first, so they must fire
// first to preserve global FIFO order.
TEST(EventQueue, HeapRingTieIsFifo) {
  EventQueue q;
  Log log{&q, {}};
  const Cycle target = EventQueue::kNearHorizon + 6;
  q.schedule_typed(target, record, &log, nullptr, tag(1));  // -> overflow
  // At now == 10 the target is inside the horizon: lands in the ring.
  q.schedule_typed(
      10,
      [](void* ctx, void*, const Message& msg) {
        auto* l = static_cast<Log*>(ctx);
        l->q->schedule_typed(msg.line, record, ctx, nullptr, tag(2));
      },
      &log, nullptr, tag(target));
  EXPECT_TRUE(q.run());
  EXPECT_EQ(log.order, (std::vector<int>{1, 2}));
}

// A handler receives exactly the context, target and payload it was
// scheduled with, and scheduled()/max_pending() count every event.
TEST(EventQueue, TypedEventsPassContextTargetAndPayload) {
  EventQueue q;
  struct Seen {
    std::vector<std::pair<void*, int>> calls;
  } seen;
  int a = 0;
  int b = 0;
  const EventQueue::TypedFn fn = [](void* ctx, void* target,
                                    const Message& msg) {
    static_cast<Seen*>(ctx)->calls.emplace_back(target,
                                                static_cast<int>(msg.line));
  };
  q.schedule_typed(7, fn, &seen, &a, tag(0));
  q.schedule_typed(7, fn, &seen, &b, tag(1));
  q.schedule_typed(7, fn, &seen, &a, tag(2));
  q.schedule_typed(3, fn, &seen, &b, tag(3));
  EXPECT_EQ(q.max_pending(), 4u);
  EXPECT_TRUE(q.run());
  const std::vector<std::pair<void*, int>> expected = {
      {&b, 3}, {&a, 0}, {&b, 1}, {&a, 2}};
  EXPECT_EQ(seen.calls, expected);
  EXPECT_EQ(q.scheduled(), 4u);
  EXPECT_EQ(q.max_pending(), 4u);
}

// ------------------------------------------- calendar vs heap reference ----

std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// A randomized up-front schedule (mixed deltas, same-cycle ties) fires in
/// the same global order on the calendar queue and on the heap reference.
template <class Queue>
std::vector<std::pair<Cycle, int>> run_random_schedule() {
  struct Ctx {
    Queue q;
    std::vector<std::pair<Cycle, int>> fired;
  } c;
  std::uint64_t state = 12345;
  for (int i = 0; i < 200; ++i) {
    const Cycle when = lcg(state) % (3 * EventQueue::kNearHorizon);
    c.q.schedule_typed(
        when,
        [](void* ctx, void*, const Message& msg) {
          auto* self = static_cast<Ctx*>(ctx);
          self->fired.emplace_back(self->q.now(),
                                   static_cast<int>(msg.line));
        },
        &c, nullptr, tag(i));
  }
  c.q.run();
  return c.fired;
}

TEST(EventQueue, CalendarMatchesHeapOnRandomSchedule) {
  EXPECT_EQ(run_random_schedule<EventQueue>(),
            run_random_schedule<testutil::HeapEventQueue>());
}

/// A DES-shaped self-scheduling stream: every fired event spawns 0-2
/// children at the delays the simulator produces — same cycle (`now`),
/// the next cycle (pumps, core advances), short pipeline and tag
/// latencies, the last ring slot (kNearHorizon - 1), the first overflow
/// cycle (kNearHorizon), DRAM tails behind a busy controller and a
/// far-future tail several horizons out. The last two ring/overflow
/// delays, drawn from neighbouring cycles, put heap and ring entries on
/// the same cycle. The stream's random draws happen inside the handlers,
/// so two queues produce the same stream only if they pop in the same
/// order.
template <class Queue>
struct DesStream {
  static constexpr Cycle kHorizon = EventQueue::kNearHorizon;

  Queue q;
  std::uint64_t rng;
  std::uint64_t budget;
  std::uint64_t next_id = 0;
  std::vector<std::pair<Cycle, std::uint64_t>> fired;
  /// Cycle -> bit 0: has an overflow-tier entry, bit 1: a ring entry.
  std::unordered_map<Cycle, int> tiers;

  DesStream(std::uint64_t seed, std::uint64_t events)
      : rng(seed), budget(events) {}

  Cycle pick_delay() {
    const std::uint64_t r = lcg(rng) % 100;
    if (r < 15) return 0;
    if (r < 40) return 1;
    if (r < 65) return 1 + lcg(rng) % 12;
    if (r < 75) return kHorizon - 1;
    if (r < 85) return kHorizon;
    if (r < 94) return 160 + lcg(rng) % 400;
    return kHorizon + lcg(rng) % (8 * kHorizon);
  }

  void spawn(Cycle delay) {
    if (budget == 0) return;
    --budget;
    tiers[q.now() + delay] |= delay >= kHorizon ? 1 : 2;
    q.schedule_typed_in(delay, &DesStream::fire, this, nullptr,
                        tag(next_id++));
  }

  static void fire(void* ctx, void*, const Message& msg) {
    auto* self = static_cast<DesStream*>(ctx);
    self->fired.emplace_back(self->q.now(), msg.line);
    // 0, 1 or 2 children (mean 1.05): the population grows until the
    // budget is spent, then drains.
    const std::uint64_t r = lcg(self->rng) % 100;
    const int children = r < 20 ? 0 : (r < 75 ? 1 : 2);
    for (int i = 0; i < children; ++i) self->spawn(self->pick_delay());
  }

  void run() {
    for (int i = 0; i < 64; ++i) spawn(lcg(rng) % 16);
    q.run();
  }
};

TEST(EventQueue, CalendarMatchesHeapOnDesShapedStreams) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    DesStream<EventQueue> cal(seed, 20000);
    DesStream<testutil::HeapEventQueue> heap(seed, 20000);
    cal.run();
    heap.run();
    ASSERT_EQ(cal.fired.size(), 20000u) << "seed " << seed;
    EXPECT_EQ(cal.fired, heap.fired) << "seed " << seed;
    EXPECT_EQ(cal.q.now(), heap.q.now()) << "seed " << seed;
    std::size_t shared_cycles = 0;
    for (const auto& [cycle, bits] : cal.tiers) shared_cycles += bits == 3;
    EXPECT_GT(shared_cycles, 0u)
        << "seed " << seed << " put no ring and overflow entries on one cycle";
  }
}

// --------------------------------------------------------------- params ----

TEST(Params, TileCoordRoundTrip) {
  CmpConfig cfg;
  cfg.chips = 4;
  for (NodeId id = 0; id < cfg.total_tiles(); ++id) {
    EXPECT_EQ(tile_id(cfg, tile_coord(cfg, id)), id);
  }
}

TEST(Params, CoreTilesOnBottomRow) {
  CmpConfig cfg;
  cfg.chips = 2;
  for (std::size_t chip = 0; chip < 2; ++chip) {
    for (std::size_t c = 0; c < cfg.cores_per_chip; ++c) {
      const TileCoord t = tile_coord(cfg, core_tile(cfg, chip, c));
      EXPECT_EQ(t.y, 0u);
      EXPECT_EQ(t.x, c);
      EXPECT_EQ(t.z, chip);
    }
  }
}

TEST(Params, L2TilesAboveBottomRow) {
  CmpConfig cfg;
  cfg.chips = 2;
  std::set<NodeId> seen;
  for (std::size_t chip = 0; chip < 2; ++chip) {
    for (std::size_t b = 0; b < cfg.l2_banks_per_chip; ++b) {
      const NodeId id = l2_tile(cfg, chip, b);
      EXPECT_TRUE(seen.insert(id).second);  // all distinct
      EXPECT_GE(tile_coord(cfg, id).y, 1u);
    }
  }
  EXPECT_EQ(seen.size(), 24u);
}

TEST(Params, HomeTileInterleavesAcrossAllBanks) {
  CmpConfig cfg;
  cfg.chips = 2;
  std::set<NodeId> homes;
  for (LineAddr line = 0; line < 1000; ++line) {
    homes.insert(home_tile(cfg, line));
  }
  // Every one of the 24 banks is a home for some line.
  EXPECT_EQ(homes.size(), cfg.total_l2_banks());
}

TEST(Params, DerivedCounts) {
  CmpConfig cfg;
  cfg.chips = 6;
  EXPECT_EQ(cfg.total_tiles(), 96u);
  EXPECT_EQ(cfg.total_cores(), 24u);  // the paper's 24 threads
  EXPECT_EQ(cfg.total_l2_banks(), 72u);
  cfg.chips = 8;
  EXPECT_EQ(cfg.total_cores(), 32u);  // and 32 threads
}

TEST(Params, OutOfRangeThrows) {
  CmpConfig cfg;
  EXPECT_THROW(core_tile(cfg, 0, 99), Error);
  EXPECT_THROW(l2_tile(cfg, 2, 0), Error);
}

}  // namespace
}  // namespace aqua
