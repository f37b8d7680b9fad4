/// service_mix: an in-process SweepServer (2 workers) driven over TCP by a
/// closed loop on 2 connections. Every pass starts the server on a fresh
/// copy of a pre-seeded disk cache (the real Fig. 7 cells plus filler
/// records under keys that are never requested) and replays the same
/// seeded request mix, so passes are comparable and every cold cell is
/// cold in every pass.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cooling.hpp"
#include "core/freq_cap.hpp"
#include "perf/system.hpp"
#include "perf/workload.hpp"
#include "service/client.hpp"
#include "service/evaluator.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sweep/cache.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/cells.hpp"
#include "sweep/runner.hpp"
#include "sweep/task_engine.hpp"

namespace aquabench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kRequestsPerConnection = 600;
/// Filler records in the pre-seeded cache: as many as the repository's
/// other figure drivers store in a sweep cache beside Fig. 7's 70 cells.
/// fig08 stores 75 cells; fig10, fig12 and fig13 store 31 each (4 caps +
/// 27 DES cells after dedupe) and fig11 stores 22; fig09 stores none.
constexpr std::size_t kFillerRecords = 75 + 31 + 22 + 31 + 31;
/// Set-up-only cycles before each timed pass. Their mean is one set-up
/// sample: a single set-up takes about 1.5 ms, and on the test machine its
/// cache load alone flips between two speeds (about 1.0 and 1.6 ms) from
/// one set-up to the next, so single set-ups have a two-peaked median.
constexpr std::size_t kSetupCyclesPerPass = 16;
constexpr std::size_t kFig07Chips = 14;
/// Instructions per thread of the small npb_des cells (2 chips, 8 cores).
constexpr const char* kNpbInstructions = "2000";

enum class Kind { kWarm, kCold, kDuplicate, kNpb };

struct Op {
  Kind kind = Kind::kWarm;
  std::string family;
  std::map<std::string, std::string> params;
};

/// One answered request.
struct Answer {
  std::string key;  ///< family + params, the identity answers are checked by
  bool ok = false;
  std::string source;
  std::map<std::string, double> values;
  double rtt_ms = 0.0;
};

std::string op_key(const Op& op) {
  std::string key = op.family;
  for (const auto& [k, v] : op.params) key += ';' + k + '=' + v;
  return key;
}

/// The seeded request mix of one connection: exactly 80% warm repeats of
/// the real Fig. 7 cells, 10% cold freq_cap cells, 5% duplicates of the
/// other connection's latest cold cell and 5% small cold npb_des cells, in
/// seeded order. The shares are placeholders, not measured traffic: the
/// repository records no service traffic to derive them from. Every seed gets the same cold cell shapes (chip, stack
/// height, cooling; benchmark, clock), so the compute per pass does not
/// depend on the seed; the seed draws the order, the warm cells, the cold
/// thresholds and the DES seeds.
std::vector<Op> make_ops(std::uint64_t seed, std::size_t connection) {
  aqua::Xoshiro256 rng(seed * 1000003ull + connection);
  const std::vector<aqua::CoolingOption> coolings = aqua::all_cooling_options();
  const std::vector<aqua::WorkloadProfile> suite = aqua::npb_suite();
  const aqua::VfsLadder ladder = aqua::make_low_power_cmp().ladder();
  std::vector<Kind> kinds(kRequestsPerConnection, Kind::kWarm);
  for (std::size_t i = 0; i < kRequestsPerConnection / 5; ++i) {
    kinds[i] = i % 4 < 2 ? Kind::kCold
                         : (i % 4 == 2 ? Kind::kDuplicate : Kind::kNpb);
  }
  for (std::size_t i = kinds.size() - 1; i > 0; --i) {
    std::swap(kinds[i], kinds[rng() % (i + 1)]);
  }
  std::size_t cold = 0;
  std::size_t npb = 0;
  std::vector<Op> ops;
  for (std::size_t i = 0; i < kRequestsPerConnection; ++i) {
    Op op;
    op.kind = kinds[i];
    if (op.kind == Kind::kWarm) {
      op.family = "freq_cap";
      op.params = {{"chip", "low_power_cmp"},
                   {"chips", std::to_string(1 + rng() % kFig07Chips)},
                   {"cooling", coolings[rng() % coolings.size()].name()}};
    } else if (op.kind == Kind::kCold) {
      op.family = "freq_cap";
      // A distinct threshold per cold cell (70.000-79.999 C): distinct
      // keys, and a fresh finder per cell on the server as in a direct
      // compute.
      const std::uint64_t j = connection * kRequestsPerConnection + i;
      char threshold[16];
      std::snprintf(threshold, sizeof(threshold), "%.3f",
                    70.0 + static_cast<double>((seed * 7919 + j * 104729) %
                                               10000) /
                               1000.0);
      op.params = {
          {"chip", cold % 2 ? "high_frequency_cmp" : "low_power_cmp"},
          {"chips", std::to_string(1 + cold / 2 % 3)},
          {"cooling", coolings[cold / 6 % coolings.size()].name()},
          {"threshold_c", threshold}};
      ++cold;
    } else if (op.kind == Kind::kNpb) {
      op.family = "npb_des";
      op.params = {
          {"chips", "2"},
          {"benchmark", suite[npb % suite.size()].name},
          {"hz", aqua::sweep::format_double_exact(
                     ladder.step(npb * 4 % ladder.size()).value())},
          {"instructions_per_thread", kNpbInstructions},
          {"seed", std::to_string(1 + rng() % 1000000)}};
      ++npb;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Writes the pre-seeded cache: the real Fig. 7 cells plus filler
/// records. The Fig. 7 cells are computed at one worker: at more, a stolen
/// cell's fresh solve chain can change the low-order bits of its cached
/// max_temperature_c, and the warm answers would differ from run to run.
aqua::FreqVsChipsData seed_cache(const std::string& dir) {
  aqua::sweep::SweepCache& cache = aqua::sweep::SweepCache::instance();
  cache.configure(dir);
  aqua::sweep::TaskEngine::shared().configure(1);
  const aqua::FreqVsChipsData fig07 =
      aqua::frequency_vs_chips(aqua::make_low_power_cmp(), kFig07Chips);
  aqua::Xoshiro256 rng(42);
  const std::vector<aqua::CoolingOption> coolings = aqua::all_cooling_options();
  for (std::size_t i = 0; i < kFillerRecords; ++i) {
    // Thresholds 45-60 C: never requested by the mix.
    const double threshold =
        45.0 + 15.0 * static_cast<double>(i) / kFillerRecords;
    const aqua::sweep::CellConfig config = aqua::sweep::freq_cap_cell(
        i % 2 ? "high_frequency_cmp" : "low_power_cmp", 1 + rng() % 15,
        coolings[rng() % coolings.size()].name(), threshold, {});
    const double ghz = 1.0 + static_cast<double>(rng() % 11) / 10.0;
    cache.store(config, {{"feasible", 1.0},
                         {"step", static_cast<double>(rng() % 11)},
                         {"hz", ghz * 1e9},
                         {"ghz", ghz},
                         {"max_temperature_c", threshold - 0.5},
                         {"chip_power_w", 20.0 + ghz * 10.0},
                         {"total_power_w", 60.0 + ghz * 30.0}});
  }
  cache.configure("");
  return fig07;
}

void fresh_copy(const std::string& seed_dir, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(fs::path(seed_dir) / aqua::sweep::SweepCache::kFileName,
                fs::path(dir) / aqua::sweep::SweepCache::kFileName);
}

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<Answer> answers;
  std::map<std::string, double> stats;  ///< the service `stats` op
  std::uint64_t cache_stores = 0;
  std::vector<double> ping_ms;
};

/// A started service on the cache in a directory, with its control
/// connection.
struct Service {
  std::unique_ptr<aqua::service::SweepServer> server;
  std::unique_ptr<aqua::service::SweepClient> control;
  double setup_s = 0.0;  ///< cache load + server start + first ping

  explicit Service(const std::string& dir) {
    const Clock::time_point s0 = Clock::now();
    aqua::sweep::SweepCache::instance().configure(dir);
    aqua::service::ServerConfig config;
    config.workers = kServerWorkers;
    config.sweep_name = "service_mix";
    server = std::make_unique<aqua::service::SweepServer>(config);
    server->start();
    control = std::make_unique<aqua::service::SweepClient>("127.0.0.1",
                                                           server->port());
    aqua::require(control->ping(), "service did not answer the first ping");
    setup_s = seconds_since(s0);
  }

  void stop() {
    control->close();
    server->stop();
    server.reset();
    aqua::sweep::SweepCache::instance().configure("");
  }
};

/// One pass: set-up (cache load, server start, first ping), the timed
/// closed loop on kConnections connections, then an untimed stop.
PassResult run_pass(const std::vector<std::vector<Op>>& ops,
                    const std::string& dir, std::size_t pings,
                    Tracer& tracer) {
  PassResult pass;
  Service service(dir);
  aqua::service::SweepServer* server = service.server.get();
  aqua::service::SweepClient& control = *service.control;
  pass.setup_s = service.setup_s;

  // Latest cold op index per connection, for cross-connection duplicates.
  std::array<std::atomic<long>, kConnections> latest_cold;
  for (auto& l : latest_cold) l.store(-1);
  std::vector<std::vector<Answer>> answers(kConnections);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      aqua::service::RetryPolicy once;
      once.max_attempts = 1;  // a refusal counts as a failed request
      aqua::service::SweepClient client("127.0.0.1", server->port(), once);
      const std::size_t other = (c + 1) % kConnections;
      for (std::size_t i = 0; i < ops[c].size(); ++i) {
        Op op = ops[c][i];
        if (op.kind == Kind::kDuplicate) {
          const long j = latest_cold[other].load();
          if (j >= 0) {
            op.family = ops[other][static_cast<std::size_t>(j)].family;
            op.params = ops[other][static_cast<std::size_t>(j)].params;
          } else {  // nothing to duplicate yet: a warm repeat instead
            op.family = "freq_cap";
            op.params = {{"chip", "low_power_cmp"}, {"chips", "1"},
                         {"cooling", "water"}};
          }
        } else if (op.kind == Kind::kCold) {
          latest_cold[c].store(static_cast<long>(i));
        }
        Answer a;
        a.key = op_key(op);
        const Clock::time_point r0 = Clock::now();
        try {
          const auto span = tracer.span("service.submit");
          const aqua::service::CellResult r =
              client.submit(op.family, op.params);
          a.ok = r.ok();
          a.source = r.source;
          a.values = r.values;
        } catch (const aqua::Error&) {
          a.ok = false;
        }
        a.rtt_ms = seconds_since(r0) * 1e3;
        answers[c].push_back(std::move(a));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  pass.wall_s = seconds_since(t0);

  for (std::size_t i = 0; i < pings; ++i) {
    const Clock::time_point p0 = Clock::now();
    const auto span = tracer.span("service.ping");
    aqua::require(control.ping(), "service stopped answering pings");
    pass.ping_ms.push_back(seconds_since(p0) * 1e3);
  }
  pass.stats = control.stats();
  pass.cache_stores = aqua::sweep::SweepCache::instance().stats().stores;
  service.stop();
  for (auto& per_connection : answers) {
    for (Answer& a : per_connection) pass.answers.push_back(std::move(a));
  }
  return pass;
}

std::string render_values(const std::map<std::string, double>& values) {
  std::string out;
  for (const auto& [k, v] : values) {
    out += k + '=' + aqua::sweep::format_double_exact(v) + ' ';
  }
  return out;
}

std::map<std::string, double> cap_values(const aqua::FrequencyCap& cap) {
  std::map<std::string, double> values{{"feasible", cap.feasible ? 1.0 : 0.0}};
  if (cap.feasible) {
    values["step"] = static_cast<double>(cap.step_index);
    values["hz"] = cap.frequency.value();
    values["ghz"] = cap.frequency.gigahertz();
    values["max_temperature_c"] = cap.max_temperature_c;
    values["chip_power_w"] = cap.chip_power.value();
    values["total_power_w"] = cap.total_power.value();
  }
  return values;
}

/// The answer a direct call into the thermal or DES layer gives for `op`.
std::map<std::string, double> direct_compute(const Op& op) {
  const auto& p = op.params;
  if (op.family == "freq_cap") {
    const aqua::ChipModel chip = p.at("chip") == "low_power_cmp"
                                     ? aqua::make_low_power_cmp()
                                     : aqua::make_high_frequency_cmp();
    aqua::CoolingOption cooling(aqua::CoolingKind::kAir);
    for (const aqua::CoolingOption& o : aqua::all_cooling_options()) {
      if (o.name() == p.at("cooling")) cooling = o;
    }
    const auto threshold = p.find("threshold_c");
    aqua::MaxFrequencyFinder finder(
        chip, aqua::PackageConfig{},
        threshold == p.end()
            ? 80.0
            : std::strtod(threshold->second.c_str(), nullptr));
    return cap_values(finder.find(std::stoul(p.at("chips")), cooling));
  }
  aqua::CmpConfig config;
  config.chips = std::stoul(p.at("chips"));
  aqua::WorkloadProfile profile = aqua::npb_profile(p.at("benchmark"));
  profile.instructions_per_thread =
      std::stoull(p.at("instructions_per_thread"));
  aqua::CmpSystem system(config, profile,
                         aqua::Hertz(std::strtod(p.at("hz").c_str(), nullptr)),
                         std::stoull(p.at("seed")));
  return {{"seconds", system.run().seconds}};
}

/// Encodes and decodes the pass's own requests and responses through the
/// protocol functions, as many frames as the pass exchanged; reports µs
/// per frame.
void protocol_probe(const std::vector<std::vector<Op>>& ops,
                    const std::vector<Answer>& answers, Tracer& tracer,
                    Result& result) {
  namespace svc = aqua::service;
  std::vector<svc::Request> requests;
  for (const auto& per_connection : ops) {
    for (const Op& op : per_connection) {
      if (op.kind == Kind::kDuplicate) continue;
      svc::Request r;
      r.op = svc::Request::Op::kSubmit;
      r.id = requests.size() + 1;
      r.family = op.family;
      r.params = op.params;
      requests.push_back(std::move(r));
    }
  }
  std::vector<svc::Response> responses;
  for (const Answer& a : answers) {
    svc::Response r;
    r.op = svc::Response::Op::kResult;
    r.id = responses.size() + 1;
    r.cell = a.key;
    r.source = a.source;
    r.values = a.values;
    responses.push_back(std::move(r));
  }
  std::vector<std::string> request_frames;
  std::vector<std::string> response_frames;
  const Clock::time_point e0 = Clock::now();
  {
    const auto span = tracer.span("service.encode");
    for (const auto& r : requests) {
      request_frames.push_back(svc::encode_frame(svc::encode_request(r)));
    }
    for (const auto& r : responses) {
      response_frames.push_back(svc::encode_frame(svc::encode_response(r)));
    }
  }
  const double encode_s = seconds_since(e0);
  std::size_t decoded = 0;
  const Clock::time_point d0 = Clock::now();
  {
    const auto span = tracer.span("service.decode");
    svc::FrameDecoder requests_in;
    for (const std::string& f : request_frames) {
      requests_in.feed(f.data(), f.size());
      decoded += svc::parse_request(*requests_in.next()).id > 0;
    }
    svc::FrameDecoder responses_in;
    for (const std::string& f : response_frames) {
      responses_in.feed(f.data(), f.size());
      decoded += svc::parse_response(*responses_in.next()).id > 0;
    }
  }
  const double decode_s = seconds_since(d0);
  const std::size_t frames = request_frames.size() + response_frames.size();
  aqua::require(decoded == frames, "protocol probe lost frames");
  result.metric("service.encode_us",
                encode_s * 1e6 / static_cast<double>(frames));
  result.metric("service.decode_us",
                decode_s * 1e6 / static_cast<double>(frames));
}

/// Sweep-layer probes on a fresh copy of the pre-seeded cache in `dir`:
/// the cache load; the pass's warm requests through a fresh SweepRunner
/// (first read from the cache, then from the memo), as the server's runner
/// serves them; then `stores` appends, as many as the pass computed.
void sweep_probes(const std::vector<std::vector<Op>>& ops,
                  const std::string& dir, std::size_t stores, Tracer& tracer,
                  Result& result) {
  aqua::sweep::SweepCache& cache = aqua::sweep::SweepCache::instance();
  std::vector<double> load_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point l0 = Clock::now();
    const auto span = tracer.span("sweep.cache_load");
    cache.configure(dir);
    load_ms.push_back(seconds_since(l0) * 1e3);
  }
  result.metric("sweep.cache_load_ms", median(load_ms));

  aqua::sweep::SweepRunner runner("service_mix_probe");
  for (const auto& per_connection : ops) {
    for (const Op& op : per_connection) {
      if (op.kind != Kind::kWarm) continue;
      const auto span = tracer.span("sweep.run");
      const aqua::service::CellJob job =
          aqua::service::make_cell_job(op.family, op.params);
      runner.run(
          job.config, job.cell, job.policy,
          []() -> std::map<std::string, double> {
            throw aqua::Error("warm cell missing from the cache");
          },
          [](const std::map<std::string, double>&) {});
    }
  }
  aqua::require(runner.stats().failed == 0, "warm probe cell missed the cache");
  // Memo time is excluded, as in the batch workloads.
  const aqua::sweep::CostBreakdown cost = runner.cost();
  result.metric("sweep.overhead_us_per_cell",
                (cost.key_us + cost.journal_us + cost.cache_us +
                 cost.serialize_us + cost.apply_us) /
                    static_cast<double>(cost.cells));

  const Clock::time_point w0 = Clock::now();
  {
    const auto span = tracer.span("sweep.cache_store");
    for (std::size_t i = 0; i < stores; ++i) {
      cache.store(aqua::sweep::freq_cap_cell(
                      "low_power_cmp", 1, "water",
                      60.0 + static_cast<double>(i) * 1e-3, {}),
                  {{"feasible", 1.0}, {"ghz", 1.5}, {"hz", 1.5e9}});
    }
  }
  result.metric("sweep.cache_store_us",
                seconds_since(w0) * 1e6 /
                    static_cast<double>(std::max<std::size_t>(stores, 1)));
  cache.configure("");
}

}  // namespace

void service_mix(const Options& options, Result& result, ReadyFn ready) {
  const std::string root = options.work_dir + "/service_mix";
  const std::string seed_dir = root + "/seed";
  fs::remove_all(root);
  // Untimed: the pre-seeded cache, and the mix of this seed.
  const aqua::FreqVsChipsData fig07 = seed_cache(seed_dir);
  std::vector<std::vector<Op>> ops;
  for (std::size_t c = 0; c < kConnections; ++c) {
    ops.push_back(make_ops(options.seed, c));
  }
  ready();
  if (options.setup_only) {
    fs::remove_all(root);
    return;
  }

  Tracer off(false);
  std::vector<PassResult> passes;
  std::vector<double> rss_mb;
  const Clock::time_point start = Clock::now();
  do {
    double setup_s = 0.0;
    for (std::size_t i = 0; i < kSetupCyclesPerPass; ++i) {
      fresh_copy(seed_dir, root + "/pass");
      Service service(root + "/pass");
      setup_s += service.setup_s;
      service.stop();
    }
    result.setup_samples_s.push_back(setup_s / kSetupCyclesPerPass);
    fresh_copy(seed_dir, root + "/pass");
    reset_peak_rss();
    passes.push_back(run_pass(ops, root + "/pass", 0, off));
    rss_mb.push_back(peak_rss_mb());
  } while (seconds_since(start) + passes.back().setup_s +
               passes.back().wall_s <=
           options.seconds);

  // Output check: one answer per key in every pass, all passes equal.
  std::map<std::string, std::string> expected;  // key -> rendered values
  std::map<std::string, std::map<std::string, double>> answered;
  std::vector<double> rtt;
  std::vector<double> warm_rtt;
  std::vector<double> walls;
  std::vector<double> rates;
  for (const PassResult& pass : passes) {
    walls.push_back(pass.wall_s);
    rates.push_back(static_cast<double>(pass.answers.size()) / pass.wall_s);
    for (const Answer& a : pass.answers) {
      ++result.attempted;
      rtt.push_back(a.rtt_ms);
      if (!a.ok) {
        ++result.failed;
        continue;
      }
      if (a.source != "computed") warm_rtt.push_back(a.rtt_ms);
      const std::string rendered = render_values(a.values);
      const auto [it, inserted] = expected.emplace(a.key, rendered);
      answered.emplace(a.key, a.values);
      if (!inserted && it->second != rendered) {
        result.mismatch("service answers differ for " + a.key);
      }
    }
  }
  // Warm answers must be the Fig. 7 table; a seeded sample of the cold
  // answers must equal direct computes.
  std::vector<const Op*> cold;
  for (const auto& per_connection : ops) {
    for (const Op& op : per_connection) {
      if (op.kind == Kind::kCold || op.kind == Kind::kNpb) cold.push_back(&op);
      if (op.kind != Kind::kWarm) continue;
      const auto it = answered.find(op_key(op));
      if (it == answered.end()) continue;  // failed: already counted
      std::optional<double> ghz;
      if (it->second.count("feasible") && it->second.at("feasible") > 0.5) {
        ghz = it->second.at("ghz");
      }
      std::optional<double> table_ghz;
      for (const aqua::FreqVsChipsSeries& series : fig07.series) {
        if (to_string(series.cooling) == op.params.at("cooling")) {
          table_ghz = series.ghz[std::stoul(op.params.at("chips")) - 1];
        }
      }
      if (ghz != table_ghz) {
        result.mismatch("warm service answer differs from Fig. 7: " +
                        op_key(op));
      }
    }
  }
  aqua::Xoshiro256 rng(options.seed ^ 0xc0ffeeull);
  for (int i = 0; i < 12 && !cold.empty(); ++i) {
    const Op& op = *cold[rng() % cold.size()];
    const auto it = expected.find(op_key(op));
    if (it != expected.end() &&
        it->second != render_values(direct_compute(op))) {
      result.mismatch("service answer differs from a direct compute: " +
                      op_key(op));
    }
  }
  std::string answers;
  for (const auto& [key, values] : expected) {
    answers += key + ' ' + values + '\n';
  }
  result.digests["service_answers"] = digest(answers);
  result.digests["fig07"] = digest(render(fig07));

  result.samples["wall_s"] = walls;
  result.metric("wall_s", median(walls));
  result.metric("cells_per_s", median(rates));
  // Peak RSS of the first pass: a fresh service serving the mix. Each
  // later pass's server threads inherit glibc arenas that earlier passes'
  // threads left fragmented, so later peaks grow with the number of
  // passes, and that number depends on machine speed. The growth shows
  // in the summary as last_pass_rss_mb.
  result.samples["peak_rss_mb"] = rss_mb;
  result.metric("peak_rss_mb", rss_mb.front());
  result.info["last_pass_rss_mb"] = rss_mb.back();
  result.samples["cells_per_s"] = rates;
  result.info["requests"] = static_cast<double>(rtt.size());
  result.info["rtt_p50_ms"] = percentile(rtt, 50);
  result.info["rtt_p99_ms"] = percentile(rtt, 99);
  result.info["warm_requests"] = static_cast<double>(warm_rtt.size());
  result.info["warm_rtt_p99_ms"] = percentile(warm_rtt, 99);
  if (!options.trace) {
    fs::remove_all(root);
    return;
  }

  // Traced pass: the same mix with a span per request, then pings.
  Tracer tracer(true);
  fresh_copy(seed_dir, root + "/pass");
  const PassResult traced = run_pass(ops, root + "/pass", 200, tracer);
  const PassResult& first = passes.front();
  std::size_t distinct_cold = 0;
  for (const auto& [key, values] : expected) {
    (void)values;
    distinct_cold += key.find("threshold_c=") != std::string::npos ||
                     key.rfind("npb_des", 0) == 0;
  }
  const auto stat = [&](const char* name) { return first.stats.at(name); };
  result.metric("service.rtt_p50_ms", percentile(rtt, 50));
  result.metric("service.rtt_p99_ms", percentile(rtt, 99));
  result.metric("service.warm_rtt_p99_ms", percentile(warm_rtt, 99));
  result.metric("service.ping_rtt_p50_ms", percentile(traced.ping_ms, 50));
  result.metric("service.accepted", stat("accepted"));
  result.metric("service.rejected_overload", stat("rejected_overload"));
  result.metric("service.single_flight_hits", stat("single_flight_hits"));
  result.metric("sweep.computed", stat("computed"));
  result.metric("sweep.cache_hits", stat("cache_hits"));
  result.metric("sweep.cache_stores", static_cast<double>(first.cache_stores));
  result.metric("sweep.useful_frac",
                static_cast<double>(distinct_cold) / stat("computed"));
  protocol_probe(ops, first.answers, tracer, result);
  fresh_copy(seed_dir, root + "/probe");
  sweep_probes(ops, root + "/probe",
               static_cast<std::size_t>(stat("computed")), tracer, result);
  result.metric("obs.trace_overhead", traced.wall_s / median(walls) - 1.0);
  tracer.write(options.trace_file);
  fs::remove_all(root);
}

}  // namespace aquabench
