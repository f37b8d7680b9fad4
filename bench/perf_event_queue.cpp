/// Scheduling throughput of the discrete-event core. The DES dispatches
/// one typed event per simulated pipeline step, so schedule+dispatch cost
/// bounds full-system simulation speed. This bench tracks the
/// events/second of EventQueue's typed path (function pointer + inline
/// Message, no allocation) and writes the headline number to
/// BENCH_event_queue.json.

#include <chrono>
#include <cstdint>

#include "bench_util.hpp"
#include "perf/event_queue.hpp"

namespace {

/// State shared by the chain events of one run.
struct ChainRun {
  aqua::EventQueue* q;
  std::uint64_t dispatched;
};

/// One chain hop: `msg.line` carries the hops the chain has left.
void chain_hop(void* ctx, void* target, const aqua::Message& msg) {
  auto* run = static_cast<ChainRun*>(ctx);
  ++run->dispatched;
  if (msg.line <= 1) return;
  aqua::Message next = msg;
  next.line = msg.line - 1;
  run->q->schedule_typed_in(1 + next.line % 3, chain_hop, ctx, target, next);
}

/// Self-rescheduling chains: `chains` events are live at any moment, each
/// reschedules itself `hops` times — the DES steady-state access pattern
/// (calendar push + pop + typed dispatch per event).
std::uint64_t run_chains(std::size_t chains, std::uint64_t hops) {
  aqua::EventQueue q;
  ChainRun run{&q, 0};
  aqua::Message msg;
  msg.line = hops;
  for (std::size_t c = 0; c < chains; ++c) {
    q.schedule_typed(c % 7, chain_hop, &run, nullptr, msg);
  }
  q.run();
  return run.dispatched;
}

void count_hit(void* ctx, void*, const aqua::Message&) {
  ++*static_cast<std::uint64_t*>(ctx);
}

void microbench_schedule_dispatch(benchmark::State& state) {
  const auto chains = static_cast<std::size_t>(state.range(0));
  std::uint64_t total = 0;
  for (auto _ : state) {
    total += run_chains(chains, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(microbench_schedule_dispatch)->Arg(16)->Arg(256)->Arg(4096);

/// Pure schedule-then-drain of independent events (no rescheduling).
void microbench_bulk_drain(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::uint64_t total = 0;
  for (auto _ : state) {
    aqua::EventQueue q;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < events; ++i) {
      q.schedule_typed(i % 97, count_hit, &hits, nullptr, aqua::Message{});
    }
    q.run();
    total += hits;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(microbench_bulk_drain)->Arg(1024)->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  aqua::bench::banner("EventQueue", "DES scheduling throughput");

  using Clock = std::chrono::steady_clock;
  const std::size_t kChains = 1024;
  const std::uint64_t kHops = 512;
  const auto t0 = Clock::now();
  const std::uint64_t dispatched = run_chains(kChains, kHops);
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const double rate = seconds > 0.0 ? static_cast<double>(dispatched) / seconds
                                    : 0.0;

  aqua::Table t({"chains", "hops", "events", "seconds", "events_per_sec"});
  t.row()
      .add_int(static_cast<long long>(kChains))
      .add_int(static_cast<long long>(kHops))
      .add_int(static_cast<long long>(dispatched))
      .add(seconds, 4)
      .add(rate, 0);
  t.print(std::cout);

  aqua::bench::JsonReport report("event_queue");
  report.add("chains", kChains);
  report.add("hops", static_cast<std::int64_t>(kHops));
  report.add("events_dispatched", static_cast<std::int64_t>(dispatched));
  report.add("seconds", seconds, 4);
  report.add("events_per_second", rate, 0);
  report.write();

  return aqua::bench::run_microbenchmarks(argc, argv);
}
