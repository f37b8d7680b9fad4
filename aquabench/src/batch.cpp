/// The three batch workloads: thermal_sweep (cold Fig. 7 + Fig. 8 at one
/// sweep worker), npb_cold (cold Fig. 10 at one worker) and
/// sweep_parallel (Fig. 7 + Fig. 10 at nproc engine workers). Untraced
/// passes call the experiment entry points exactly as the figure benches
/// do; the traced pass replays the same cells through the layers' public
/// functions with a span around each call, plus the layer probes.

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/cooling.hpp"
#include "core/freq_cap.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace_reader.hpp"
#include "perf/event_queue.hpp"
#include "perf/system.hpp"
#include "perf/traffic.hpp"
#include "perf/workload.hpp"
#include "sweep/cache.hpp"
#include "sweep/task_engine.hpp"

namespace aquabench {

namespace {

constexpr std::size_t kFig07Chips = 14;
constexpr std::size_t kFig08Chips = 15;
constexpr std::size_t kNpbChips = 6;
constexpr aqua::CoolingKind kNpbBaseline = aqua::CoolingKind::kWaterPipe;

double num(std::uint64_t v) { return static_cast<double>(v); }

std::uint64_t counter(const char* name) {
  return aqua::obs::Registry::instance().counter(name).value();
}

/// Cold computes only: the benchmark never reads a sweep cache.
void cold_cache() { aqua::sweep::SweepCache::instance().configure(""); }

std::size_t hardware_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- one pass of each experiment --------------------------------------

struct ThermalPass {
  std::string table;
  aqua::SolverStats solver;
  aqua::sweep::CostBreakdown cost;
  std::size_t cells = 0;
  std::size_t failed = 0;
};

ThermalPass run_freq(const aqua::ChipModel& chip, std::size_t max_chips,
                     double threshold_c, Tracer& tracer) {
  const auto span = tracer.span("experiment.frequency_vs_chips");
  const aqua::FreqVsChipsData data =
      aqua::frequency_vs_chips(chip, max_chips, threshold_c);
  ThermalPass pass;
  pass.table = render(data);
  pass.solver = data.solver;
  pass.cost = data.cost;
  pass.cells = data.max_chips * data.series.size();
  pass.failed = data.failed_cells.size();
  return pass;
}

struct NpbPass {
  std::string table;
  std::string cells_table;
  std::uint64_t instructions = 0;
  std::uint64_t noc_packets = 0;
  aqua::SolverStats solver;
  aqua::sweep::CostBreakdown cost;
  std::size_t cells = 0;
  /// Distinct cell keys: one cap cell per cooling plus one DES cell per
  /// (benchmark, distinct feasible cap frequency).
  std::size_t distinct_cells = 0;
  std::size_t failed = 0;
  std::vector<double> caps_hz;  ///< per cooling, 0 when infeasible
};

NpbPass run_npb(const Models& models, std::size_t chips, std::uint64_t seed,
                double scale, Tracer& tracer) {
  const std::uint64_t instr0 = counter("perf.instructions");
  const std::uint64_t packets0 = counter("perf.noc_packets");
  const aqua::SolverStats solver0 = aqua::solver_totals();
  const auto span = tracer.span("experiment.npb");
  const aqua::NpbData data = aqua::npb_experiment(
      models.low, chips, kNpbBaseline, 80.0, scale, {}, seed);
  NpbPass pass;
  pass.table = render(data);
  pass.cells_table = render_npb_cells(data);
  pass.instructions = counter("perf.instructions") - instr0;
  pass.noc_packets = counter("perf.noc_packets") - packets0;
  pass.solver = aqua::solver_totals_since(solver0);
  pass.cost = data.cost;
  std::size_t feasible = 0;
  std::set<double> frequencies;
  for (const aqua::FrequencyCap& cap : data.caps) {
    feasible += cap.feasible ? 1 : 0;
    pass.caps_hz.push_back(cap.feasible ? cap.frequency.value() : 0.0);
    if (cap.feasible) frequencies.insert(cap.frequency.value());
  }
  pass.cells = data.coolings.size() + feasible * (data.rows.size() - 1);
  pass.distinct_cells =
      data.coolings.size() + frequencies.size() * (data.rows.size() - 1);
  pass.failed = data.failed_cells.size();
  return pass;
}

std::vector<aqua::WorkloadProfile> scaled_suite(double scale) {
  // Same scaling npb_experiment applies to its suite.
  std::vector<aqua::WorkloadProfile> suite = aqua::npb_suite();
  for (aqua::WorkloadProfile& p : suite) {
    p.instructions_per_thread = static_cast<std::uint64_t>(
        static_cast<double>(p.instructions_per_thread) * scale);
  }
  return suite;
}

const std::vector<aqua::CoolingKind>& npb_coolings() {
  static const std::vector<aqua::CoolingKind> kinds = {
      aqua::CoolingKind::kWaterPipe, aqua::CoolingKind::kMineralOil,
      aqua::CoolingKind::kFluorinert, aqua::CoolingKind::kWaterImmersion};
  return kinds;
}

// --- cross-path checks --------------------------------------------------

/// Recomputes a seeded sample of frequency-cap cells with fresh finders
/// and compares them with the rendered sweep table.
void check_freq_sample(const aqua::ChipModel& chip, std::size_t max_chips,
                       double threshold_c, const std::string& table,
                       std::uint64_t seed, std::size_t samples,
                       Result& result) {
  aqua::Xoshiro256 rng(seed ^ 0x5eedf00dull);
  const std::vector<aqua::CoolingOption> options = aqua::all_cooling_options();
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t chips = 1 + rng() % max_chips;
    const aqua::CoolingOption& option = options[rng() % options.size()];
    aqua::MaxFrequencyFinder finder(chip, aqua::PackageConfig{}, threshold_c);
    const aqua::FrequencyCap cap = finder.find(chips, option);
    const std::string line =
        std::string(to_string(option.kind())) + ' ' + std::to_string(chips) +
        ' ' +
        exact(cap.feasible ? std::optional<double>(cap.frequency.gigahertz())
                           : std::nullopt) +
        '\n';
    if (('\n' + table).find('\n' + line) == std::string::npos) {
      result.mismatch(chip.name() + " direct cap differs from the sweep: " +
                      line);
    }
  }
}

/// Recomputes one seeded DES cell of the NPB table directly.
void check_npb_sample(const std::string& cells_table,
                      const std::vector<double>& caps_hz, std::uint64_t seed,
                      double scale, Result& result) {
  const std::vector<aqua::WorkloadProfile> suite = scaled_suite(scale);
  aqua::Xoshiro256 rng(seed ^ 0xdecafull);
  const std::size_t b = rng() % suite.size();
  const std::size_t k = rng() % caps_hz.size();
  if (caps_hz[k] <= 0.0) return;
  aqua::CmpConfig config;
  config.chips = kNpbChips;
  aqua::CmpSystem system(config, suite[b], aqua::Hertz(caps_hz[k]), seed);
  const aqua::ExecStats stats = system.run();
  const std::string line = suite[b].name + ' ' +
                           to_string(npb_coolings()[k]) + ' ' +
                           exact(stats.seconds) + '\n';
  if (('\n' + cells_table).find('\n' + line) == std::string::npos) {
    result.mismatch("direct DES cell differs from the experiment: " + line);
  }
}

void check_same(const std::string& a, const std::string& b,
                const std::string& what, Result& result) {
  if (a != b) result.mismatch(what);
}

// --- traced replays -------------------------------------------------------

/// Solver work of one find, for sizing the power probe.
struct FindWork {
  std::size_t chips = 0;
  std::size_t solves = 0;
};

/// Replays one frequency_vs_chips sweep at one worker through
/// MaxFrequencyFinder directly: one finder per stack height shared by the
/// five coolings, the order the experiment uses. Returns the table in
/// render() form.
std::string replay_freq(const aqua::ChipModel& chip, std::size_t max_chips,
                        double threshold_c, Tracer& tracer,
                        std::vector<FindWork>& work) {
  const std::vector<aqua::CoolingOption> options = aqua::all_cooling_options();
  aqua::FreqVsChipsData data;
  data.series.resize(options.size());
  for (std::size_t k = 0; k < options.size(); ++k) {
    data.series[k].cooling = options[k].kind();
    data.series[k].ghz.resize(max_chips);
  }
  for (std::size_t chips = 1; chips <= max_chips; ++chips) {
    aqua::MaxFrequencyFinder finder(chip, aqua::PackageConfig{}, threshold_c);
    for (std::size_t k = 0; k < options.size(); ++k) {
      const std::size_t solves0 = aqua::solver_totals().solves;
      aqua::FrequencyCap cap;
      {
        const auto span = tracer.span("vfs.find");
        cap = finder.find(chips, options[k]);
      }
      work.push_back({chips, aqua::solver_totals().solves - solves0});
      if (cap.feasible) {
        data.series[k].ghz[chips - 1] = cap.frequency.gigahertz();
      }
    }
  }
  return render(data);
}

/// Times one StackThermalModel construction per stack height (what each
/// finder assembles once per height). Returns seconds per height.
std::vector<double> assemble_probe(const aqua::ChipModel& chip,
                                   std::size_t max_chips, Tracer& tracer) {
  const aqua::PackageConfig package;
  const aqua::ThermalBoundary boundary =
      aqua::CoolingOption(aqua::CoolingKind::kWaterImmersion)
          .boundary(package);
  std::vector<double> seconds;
  for (std::size_t chips = 1; chips <= max_chips; ++chips) {
    const aqua::Stack3d stack(chip.floorplan(), chips,
                              aqua::FlipPolicy::kNone);
    const Clock::time_point t0 = Clock::now();
    {
      const auto span = tracer.span("thermal.assemble");
      const aqua::StackThermalModel model(stack, package, boundary);
    }
    seconds.push_back(seconds_since(t0));
  }
  return seconds;
}

/// Evaluates the per-layer power maps the sweep evaluated: for every find,
/// `solves` stack power maps of `chips` layers, cycling the VFS ladder.
/// Returns microseconds per ChipModel::block_powers call.
double power_probe(const aqua::ChipModel& chip,
                   const std::vector<FindWork>& work, Tracer& tracer) {
  const aqua::VfsLadder& ladder = chip.ladder();
  std::size_t calls = 0;
  double checksum = 0.0;
  const Clock::time_point t0 = Clock::now();
  {
    const auto span = tracer.span("power.block_powers");
    for (const FindWork& w : work) {
      const aqua::Stack3d stack(chip.floorplan(), w.chips,
                                aqua::FlipPolicy::kNone);
      for (std::size_t s = 0; s < w.solves; ++s) {
        const aqua::Hertz f = ladder.step((s * 7) % ladder.size());
        for (std::size_t l = 0; l < stack.layer_count(); ++l) {
          checksum += chip.block_powers(stack.layer(l), f).front();
          ++calls;
        }
      }
    }
  }
  const double seconds = seconds_since(t0);
  aqua::require(calls > 0 && checksum > 0.0, "power probe evaluated nothing");
  return seconds * 1e6 / static_cast<double>(calls);
}

/// Summed simulated counters of the replayed DES cells.
struct DesTotals {
  std::size_t cells = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t events = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram = 0;
  std::uint64_t forwards = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t barrier_wait_cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  std::uint64_t ticks = 0;
  std::uint64_t packet_latency = 0;
  std::uint64_t hops = 0;

  void add(const aqua::ExecStats& s) {
    ++cells;
    cycles += s.cycles;
    instructions += s.instructions;
    l1_misses += s.l1_misses;
    l2_misses += s.l2_data_misses;
    dram += s.dram_accesses;
    forwards += s.coherence_forwards;
    invalidations += s.invalidations;
    writebacks += s.writebacks;
    stall_cycles += s.total_stall_cycles();
    barrier_wait_cycles += s.barrier_wait_cycles;
    packets += s.noc.packets_delivered;
    flits += s.noc.flits_delivered;
    ticks += s.noc.ticks;
    packet_latency += s.noc.total_packet_latency;
    hops += s.noc.total_hops;
  }
};

/// Replays npb_experiment at one worker: the four caps on one finder (the
/// experiment's strict chain), then one DES run per distinct
/// (benchmark, frequency). Returns the table in render_npb_cells() form.
std::string replay_npb(const Models& models, std::uint64_t seed, double scale,
                       Tracer& tracer, DesTotals& des) {
  aqua::NpbData data;
  data.coolings = npb_coolings();
  aqua::MaxFrequencyFinder finder(models.low, aqua::PackageConfig{}, 80.0);
  for (const aqua::CoolingKind kind : data.coolings) {
    const auto span = tracer.span("vfs.find");
    data.caps.push_back(finder.find(kNpbChips, aqua::CoolingOption(kind)));
  }
  aqua::CmpConfig config;
  config.chips = kNpbChips;
  const std::uint64_t events0 = counter("perf.events");
  for (const aqua::WorkloadProfile& profile : scaled_suite(scale)) {
    aqua::NpbRow row;
    row.benchmark = profile.name;
    std::map<double, double> seconds_by_hz;
    for (const aqua::FrequencyCap& cap : data.caps) {
      if (!cap.feasible) {
        row.seconds.emplace_back();
        continue;
      }
      auto it = seconds_by_hz.find(cap.frequency.value());
      if (it == seconds_by_hz.end()) {
        std::optional<aqua::CmpSystem> system;
        {
          const auto span = tracer.span("des.build");
          system.emplace(config, profile, cap.frequency, seed);
        }
        aqua::ExecStats stats;
        {
          const auto span = tracer.span("des.run");
          stats = system->run();
        }
        des.add(stats);
        it = seconds_by_hz.emplace(cap.frequency.value(), stats.seconds).first;
      }
      row.seconds.push_back(it->second);
    }
    data.rows.push_back(std::move(row));
  }
  des.events += counter("perf.events") - events0;
  return render_npb_cells(data);
}

struct QueueProbe {
  aqua::EventQueue* queue = nullptr;
  std::uint64_t remaining = 0;
  std::uint64_t fired = 0;
};

/// Typed event of the queue probe: reschedules itself 1-8 cycles ahead
/// (pseudo-random) until the probe's event budget is spent.
void queue_probe_hop(void* ctx, void* target, const aqua::Message& msg) {
  auto* probe = static_cast<QueueProbe*>(ctx);
  ++probe->fired;
  if (probe->remaining == 0) return;
  --probe->remaining;
  aqua::Message next = msg;
  next.line = msg.line * 6364136223846793005ull + 1442695040888963407ull;
  probe->queue->schedule_typed_in(1 + (next.line >> 61), queue_probe_hop, ctx,
                                  target, next);
}

/// ns per typed schedule+step on a standalone EventQueue holding as many
/// live events as the DES kept per cycle, for as many events as one
/// replayed DES cell fired on average.
double queue_probe(const DesTotals& des, Tracer& tracer) {
  const double per_cycle =
      static_cast<double>(des.events) / static_cast<double>(des.cycles);
  // Mean delay of a hop is 4.5 cycles, so this many chains keep the
  // measured event rate per simulated cycle.
  const auto chains = static_cast<std::uint64_t>(
      std::max(1.0, std::round(per_cycle * 4.5)));
  const std::uint64_t events = des.events / des.cells;
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    aqua::EventQueue queue;
    QueueProbe probe{&queue, events > chains ? events - chains : 0, 0};
    for (std::uint64_t c = 0; c < chains; ++c) {
      aqua::Message msg;
      msg.line = c * 0x9E3779B97F4A7C15ull + 1;
      queue.schedule_typed(c % 8, queue_probe_hop, &probe, nullptr, msg);
    }
    const Clock::time_point t0 = Clock::now();
    {
      const auto span = tracer.span("queue.probe");
      while (!queue.empty()) queue.step();
    }
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(probe.fired));
  }
  return median(ns);
}

/// ns per delivered flit of uniform-random traffic on the npb_cold mesh at
/// the flit injection rate the replayed DES cells measured, over as many
/// cycles as one cell simulated on average.
double noc_probe(const DesTotals& des, Tracer& tracer) {
  aqua::CmpConfig mesh;
  mesh.chips = kNpbChips;
  const double nodes = static_cast<double>(mesh.total_tiles());
  aqua::TrafficConfig traffic;
  traffic.injection_rate = static_cast<double>(des.flits) /
                           (static_cast<double>(des.cycles) * nodes);
  traffic.measure_cycles = des.cycles / des.cells;
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    traffic.seed = static_cast<std::uint64_t>(rep) + 1;
    const Clock::time_point t0 = Clock::now();
    aqua::TrafficResult r;
    {
      const auto span = tracer.span("noc.probe");
      r = aqua::run_traffic(mesh, traffic);
    }
    const double flits = r.accepted_flits_per_node_cycle * nodes *
                         static_cast<double>(traffic.measure_cycles);
    aqua::require(flits > 0.0 && !r.saturated, "NoC probe delivered nothing");
    ns.push_back(seconds_since(t0) * 1e9 / flits);
  }
  return median(ns);
}

// --- shared reporting -------------------------------------------------------

/// What the sweep runners of one call counted, summed over its sweeps.
struct RunnerCounts {
  double computed = 0.0;
  double memo_hits = 0.0;
};

/// Runs `call` with the program's run report on, written to `path`, and
/// sums the SweepRunner counters of the "sweep" records it wrote.
template <class Call>
RunnerCounts runner_counts(const std::string& path, Call&& call) {
  aqua::obs::RunReport& report = aqua::obs::RunReport::instance();
  report.set_path(path);
  report.set_enabled(true);
  call();
  report.set_enabled(false);
  report.set_path("");
  RunnerCounts counts;
  std::size_t sweeps = 0;
  for (const aqua::obs::JsonValue& record :
       aqua::obs::load_jsonl_file(path)) {
    const aqua::obs::JsonValue* kind = record.find("kind");
    if (kind == nullptr || kind->string != "sweep") continue;
    const aqua::obs::JsonValue* computed = record.find("computed");
    const aqua::obs::JsonValue* memo_hits = record.find("memo_hits");
    aqua::require(computed != nullptr && memo_hits != nullptr,
                  "sweep record without runner counters");
    counts.computed += computed->number;
    counts.memo_hits += memo_hits->number;
    ++sweeps;
  }
  aqua::require(sweeps > 0, "run report holds no sweep record");
  return counts;
}

/// Where a traced run's report pass writes the program's run report.
std::string report_path(const Options& options) {
  return options.trace_file + ".run_report.jsonl";
}

/// The sweep-layer figures: the runners' own counts of one report pass,
/// and the non-compute phases of one untraced pass.
void sweep_metrics(const aqua::sweep::CostBreakdown& cost,
                   std::size_t distinct_cells, const RunnerCounts& runner,
                   Result& result) {
  // Memo time is excluded: at nproc workers it is mostly single-flight
  // waiting on another worker's compute, not sweep-layer work.
  const double overhead_us = cost.key_us + cost.journal_us + cost.cache_us +
                             cost.serialize_us + cost.apply_us;
  result.metric("sweep.computed", runner.computed);
  result.metric("sweep.memo_hits", runner.memo_hits);
  result.metric("sweep.useful_frac",
                static_cast<double>(distinct_cells) / runner.computed);
  result.metric("sweep.overhead_us_per_cell",
                overhead_us / static_cast<double>(cost.cells));
}

void solver_metrics(const aqua::SolverStats& solver, Result& result) {
  result.metric("thermal.solves", num(solver.solves));
  result.metric("thermal.cg_iterations", num(solver.iterations));
  result.metric("thermal.vcycles", num(solver.vcycles));
  result.metric("thermal.solve_s", solver.wall_seconds);
}

void des_metrics(const DesTotals& des, double run_s, double build_s,
                 Result& result) {
  const auto d = num;
  result.metric("des.cells", d(des.cells));
  result.metric("des.build_ms", build_s * 1e3 / d(des.cells));
  result.metric("des.run_s", run_s);
  result.metric("des.events", d(des.events));
  result.metric("des.ns_per_event", run_s * 1e9 / d(des.events));
  result.metric("des.instructions", d(des.instructions));
  result.metric("des.sim_cycles", d(des.cycles));
  result.metric("des.ipc", d(des.instructions) / d(des.cycles));
  result.metric("core.stall_cycles", d(des.stall_cycles));
  result.metric("core.barrier_wait_cycles", d(des.barrier_wait_cycles));
  result.metric("mem.l1_misses", d(des.l1_misses));
  result.metric("mem.l2_misses", d(des.l2_misses));
  result.metric("mem.dram_accesses", d(des.dram));
  result.metric("mem.forwards", d(des.forwards));
  result.metric("mem.invalidations", d(des.invalidations));
  result.metric("mem.writebacks", d(des.writebacks));
  result.metric("noc.packets", d(des.packets));
  result.metric("noc.flits", d(des.flits));
  result.metric("noc.ticks", d(des.ticks));
  result.metric("noc.avg_latency_cycles",
                d(des.packet_latency) / d(des.packets));
  result.metric("noc.avg_hops", d(des.hops) / d(des.packets));
  result.metric("noc.ticks_per_instr", d(des.ticks) / d(des.instructions));
}

void end_to_end(const Passes& passes, std::size_t cells, Result& result) {
  result.samples["wall_s"] = passes.wall_s;
  result.samples["peak_rss_mb"] = passes.peak_rss_mb;
  result.metric("wall_s", median(passes.wall_s));
  result.metric("cells_per_s", num(cells) / median(passes.wall_s));
  result.metric("peak_rss_mb", median(passes.peak_rss_mb));
}

}  // namespace

// --- workloads ------------------------------------------------------------

void thermal_sweep(const Options& options, Result& result, ReadyFn ready) {
  const double threshold_c = threshold_for(options.seed);
  cold_cache();
  aqua::sweep::TaskEngine::shared().configure(1);
  const Models models;
  Tracer off(false);
  // Warm-up: the smallest call into the same entry point, on the same
  // inputs for every seed.
  (void)run_freq(models.low, 1, threshold_for(kDefaultSeed), off);
  ready();
  if (options.setup_only) return;

  ThermalPass fig07;
  ThermalPass fig08;
  const auto pass_body = [&](std::size_t pass) {
    ThermalPass a = run_freq(models.low, kFig07Chips, threshold_c, off);
    ThermalPass b = run_freq(models.high, kFig08Chips, threshold_c, off);
    result.attempted += a.cells + b.cells;
    result.failed += a.failed + b.failed;
    if (pass == 0) {
      fig07 = std::move(a);
      fig08 = std::move(b);
      return;
    }
    check_same(a.table, fig07.table, "fig07 table changed between passes",
               result);
    check_same(b.table, fig08.table, "fig08 table changed between passes",
               result);
    if (a.solver.iterations != fig07.solver.iterations ||
        b.solver.iterations != fig08.solver.iterations) {
      result.mismatch("serial CG iteration counts changed between passes");
    }
  };
  const Passes passes = timed_passes(options, pass_body);
  end_to_end(passes, fig07.cells + fig08.cells, result);

  check_freq_sample(models.low, kFig07Chips, threshold_c, fig07.table,
                    options.seed, 2, result);
  check_freq_sample(models.high, kFig08Chips, threshold_c, fig08.table,
                    options.seed, 2, result);
  result.digests["fig07"] = digest(fig07.table);
  result.digests["fig08"] = digest(fig08.table);
  result.counts["fig07.cg_iterations"] = num(fig07.solver.iterations);
  result.counts["fig07.solves"] = num(fig07.solver.solves);
  result.counts["fig08.cg_iterations"] = num(fig08.solver.iterations);
  result.counts["fig08.solves"] = num(fig08.solver.solves);
  if (!options.trace) return;

  // Traced pass: the same 145 cells through MaxFrequencyFinder::find.
  Tracer tracer(true);
  std::vector<FindWork> work07;
  std::vector<FindWork> work08;
  const aqua::SolverStats solver0 = aqua::solver_totals();
  const Clock::time_point t0 = Clock::now();
  const std::string table07 =
      replay_freq(models.low, kFig07Chips, threshold_c, tracer, work07);
  const std::string table08 =
      replay_freq(models.high, kFig08Chips, threshold_c, tracer, work08);
  const double traced_wall = seconds_since(t0);
  const aqua::SolverStats solver = aqua::solver_totals_since(solver0);
  check_same(table07, fig07.table, "traced fig07 replay differs", result);
  check_same(table08, fig08.table, "traced fig08 replay differs", result);

  const std::vector<double> asm07 =
      assemble_probe(models.low, kFig07Chips, tracer);
  const std::vector<double> asm08 =
      assemble_probe(models.high, kFig08Chips, tracer);
  double assemble_s = 0.0;
  for (double s : asm07) assemble_s += s;
  for (double s : asm08) assemble_s += s;
  const double power_us07 = power_probe(models.low, work07, tracer);
  const double power_us08 = power_probe(models.high, work08, tracer);
  std::size_t calls07 = 0;
  std::size_t calls08 = 0;
  for (const FindWork& w : work07) calls07 += w.solves * w.chips;
  for (const FindWork& w : work08) calls08 += w.solves * w.chips;

  const double finds = num(tracer.count("vfs.find"));
  result.metric("power.block_powers_us",
                (power_us07 * num(calls07) + power_us08 * num(calls08)) /
                    num(calls07 + calls08));
  result.metric("thermal.assemble_ms",
                assemble_s * 1e3 / num(asm07.size() + asm08.size()));
  solver_metrics(solver, result);
  result.metric("thermal.us_per_iteration",
                solver.wall_seconds * 1e6 / num(solver.iterations));
  result.metric("vfs.finds", finds);
  result.metric("vfs.solves_per_find", num(solver.solves) / finds);
  // Each height's finder assembles its model once inside its first find.
  result.metric("vfs.self_s",
                tracer.total_s("vfs.find") - solver.wall_seconds - assemble_s);
  // Report pass: the same sweeps with the program's run report on.
  const RunnerCounts runner = runner_counts(report_path(options), [&] {
    const ThermalPass a = run_freq(models.low, kFig07Chips, threshold_c, off);
    const ThermalPass b = run_freq(models.high, kFig08Chips, threshold_c, off);
    check_same(a.table, fig07.table, "report-pass fig07 differs", result);
    check_same(b.table, fig08.table, "report-pass fig08 differs", result);
  });
  {
    aqua::sweep::CostBreakdown cost = fig07.cost;
    cost.merge(fig08.cost);
    sweep_metrics(cost, fig07.cells + fig08.cells, runner, result);
  }
  result.metric("obs.trace_overhead",
                traced_wall / median(passes.wall_s) - 1.0);
  tracer.write(options.trace_file);
}

void npb_cold(const Options& options, Result& result, ReadyFn ready) {
  cold_cache();
  aqua::sweep::TaskEngine::shared().configure(1);
  const Models models;
  Tracer off(false);
  // Warm-up: the same entry point on a 2-chip stack at a hundredth of the
  // instructions, on the same inputs for every seed.
  (void)run_npb(models, 2, kDefaultSeed, kNpbScale / 100.0, off);
  ready();
  if (options.setup_only) return;

  NpbPass first;
  std::vector<double> mips;
  const auto pass_body = [&](std::size_t pass) {
    const Clock::time_point t0 = Clock::now();
    NpbPass p = run_npb(models, kNpbChips, options.seed, kNpbScale, off);
    mips.push_back(num(p.instructions) / seconds_since(t0) / 1e6);
    result.attempted += p.cells;
    result.failed += p.failed;
    if (pass == 0) {
      first = std::move(p);
      return;
    }
    check_same(p.table, first.table, "fig10 table changed between passes",
               result);
    if (p.instructions != first.instructions ||
        p.noc_packets != first.noc_packets) {
      result.mismatch("simulated DES counts changed between passes");
    }
  };
  const Passes passes = timed_passes(options, pass_body);
  end_to_end(passes, first.cells, result);
  result.samples["sim_mips"] = mips;
  result.info["sim_mips"] = median(mips);

  check_npb_sample(first.cells_table, first.caps_hz, options.seed, kNpbScale,
                   result);
  result.digests["fig10"] = digest(first.table);
  result.counts["fig10.instructions"] = num(first.instructions);
  result.counts["fig10.noc_packets"] = num(first.noc_packets);
  result.counts["fig10.cg_iterations"] = num(first.solver.iterations);
  if (!options.trace) return;

  Tracer tracer(true);
  DesTotals des;
  const aqua::SolverStats solver0 = aqua::solver_totals();
  const Clock::time_point t0 = Clock::now();
  const std::string table =
      replay_npb(models, options.seed, kNpbScale, tracer, des);
  const double traced_wall = seconds_since(t0);
  const aqua::SolverStats solver = aqua::solver_totals_since(solver0);
  check_same(table, first.cells_table, "traced fig10 replay differs", result);

  des_metrics(des, tracer.total_s("des.run"), tracer.total_s("des.build"),
              result);
  result.metric("des.sim_mips", median(mips));
  solver_metrics(solver, result);
  result.metric("vfs.finds", num(tracer.count("vfs.find")));
  result.metric("vfs.solves_per_find",
                num(solver.solves) / num(tracer.count("vfs.find")));
  result.metric("queue.probe_ns_per_event", queue_probe(des, tracer));
  result.metric("noc.probe_ns_per_flit", noc_probe(des, tracer));
  const RunnerCounts runner = runner_counts(report_path(options), [&] {
    const NpbPass p = run_npb(models, kNpbChips, options.seed, kNpbScale, off);
    check_same(p.table, first.table, "report-pass fig10 differs", result);
  });
  sweep_metrics(first.cost, first.distinct_cells, runner, result);
  result.metric("obs.trace_overhead",
                traced_wall / median(passes.wall_s) - 1.0);
  tracer.write(options.trace_file);
}

void sweep_parallel(const Options& options, Result& result, ReadyFn ready) {
  const double threshold_c = threshold_for(options.seed);
  const std::size_t workers = hardware_workers();
  cold_cache();
  aqua::sweep::TaskEngine& engine = aqua::sweep::TaskEngine::shared();
  engine.configure(workers);
  const Models models;
  Tracer off(false);
  (void)run_freq(models.low, 1, threshold_for(kDefaultSeed), off);
  ready();
  if (options.setup_only) return;

  struct Mix {
    ThermalPass fig07;
    NpbPass fig10;
  };
  const auto run_mix = [&](Tracer& tracer) {
    Mix mix;
    mix.fig07 = run_freq(models.low, kFig07Chips, threshold_c, tracer);
    mix.fig10 = run_npb(models, kNpbChips, options.seed, kNpbScale, tracer);
    return mix;
  };
  Mix first;
  std::vector<double> mips;
  const auto pass_body = [&](std::size_t pass) {
    const Clock::time_point t0 = Clock::now();
    Mix m = run_mix(off);
    mips.push_back(num(m.fig10.instructions) / seconds_since(t0) / 1e6);
    result.attempted += m.fig07.cells + m.fig10.cells;
    result.failed += m.fig07.failed + m.fig10.failed;
    if (pass == 0) {
      first = std::move(m);
      return;
    }
    check_same(m.fig07.table, first.fig07.table,
               "parallel fig07 table changed between passes", result);
    check_same(m.fig10.table, first.fig10.table,
               "parallel fig10 table changed between passes", result);
  };
  const Passes passes = timed_passes(options, pass_body);
  end_to_end(passes, first.fig07.cells + first.fig10.cells, result);
  result.samples["sim_mips"] = mips;
  result.info["sim_mips"] = median(mips);
  result.digests["fig07"] = digest(first.fig07.table);
  result.digests["fig10"] = digest(first.fig10.table);

  // Traced pass at nproc (engine counters), then the 1-worker reference.
  // Fig. 10's table (its cap temperatures come from the strict warm-start
  // chain) must equal the 1-worker one; Fig. 7 is checked on a sample, or
  // in full in the traced run, whose 1-worker wall gives the speed-up.
  Tracer tracer(options.trace);
  const std::uint64_t tasks0 = counter("engine.tasks_executed");
  const std::uint64_t steals0 = counter("engine.steals");
  const std::uint64_t claims0 = counter("engine.shared_claimed");
  double traced_wall = 0.0;
  if (options.trace) {
    const Clock::time_point t0 = Clock::now();
    const Mix traced = run_mix(tracer);
    traced_wall = seconds_since(t0);
    check_same(traced.fig07.table, first.fig07.table, "traced fig07 differs",
               result);
    check_same(traced.fig10.table, first.fig10.table, "traced fig10 differs",
               result);
  }
  const std::uint64_t tasks = counter("engine.tasks_executed") - tasks0;
  const std::uint64_t steals = counter("engine.steals") - steals0;
  const std::uint64_t claims = counter("engine.shared_claimed") - claims0;
  // Report pass (traced run only): the same mix at nproc with the
  // program's run report on.
  RunnerCounts runner;
  if (options.trace) {
    runner = runner_counts(report_path(options), [&] {
      const Mix m = run_mix(off);
      check_same(m.fig07.table, first.fig07.table, "report-pass fig07 differs",
                 result);
      check_same(m.fig10.table, first.fig10.table, "report-pass fig10 differs",
                 result);
    });
  }

  engine.configure(1);
  const Clock::time_point s0 = Clock::now();
  if (options.trace) {
    const ThermalPass fig07 =
        run_freq(models.low, kFig07Chips, threshold_c, off);
    check_same(fig07.table, first.fig07.table,
               "parallel fig07 table differs from the 1-worker table", result);
  } else {
    check_freq_sample(models.low, kFig07Chips, threshold_c, first.fig07.table,
                      options.seed, 2, result);
  }
  const NpbPass fig10 =
      run_npb(models, kNpbChips, options.seed, kNpbScale, off);
  const double serial_wall = seconds_since(s0);
  check_same(fig10.table, first.fig10.table,
             "parallel fig10 table differs from the 1-worker table", result);
  if (!options.trace) return;

  result.metric("engine.tasks", num(tasks));
  result.metric("engine.steals", num(steals));
  result.metric("engine.shared_claims", num(claims));
  result.metric("engine.speedup", serial_wall / median(passes.wall_s));
  result.metric("des.sim_mips", median(mips));
  {
    aqua::sweep::CostBreakdown cost = first.fig07.cost;
    cost.merge(first.fig10.cost);
    sweep_metrics(cost, first.fig07.cells + first.fig10.distinct_cells,
                  runner, result);
  }
  result.metric("obs.trace_overhead",
                traced_wall / median(passes.wall_s) - 1.0);
  tracer.write(options.trace_file);
}

}  // namespace aquabench
