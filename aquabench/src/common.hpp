#pragma once

/// Shared pieces of the aquabench program: the run options, the result
/// record every workload fills, an in-memory span recorder for the traced
/// run, and the exact table renderings the output gate digests.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "power/chip_model.hpp"

namespace aquabench {

using Clock = std::chrono::steady_clock;

/// The seed the committed reference digests were recorded with.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// NPB instruction scale of the DES workloads (npb_cold, sweep_parallel
/// and the npb_des cells of service_mix): long enough that the DES does
/// nearly all the work, short enough for several cold passes per run.
inline constexpr double kNpbScale = 0.03;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  /// After each timed pass, print "between" and wait for a line on
  /// standard input, so the caller can time set-ups spread over the run.
  bool pause_between_passes = false;
  std::string work_dir;    ///< scratch space inside the checkout
  std::string trace_file;  ///< where a traced run writes its spans
};

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();
/// Returns free heap memory to the OS and restarts VmHWM from the
/// resulting RSS, so peak_rss_mb() covers only what runs afterwards and
/// not heap an earlier pass left behind.
void reset_peak_rss();

/// 16-hex-digit FNV-1a digest of `text` (the gate's table fingerprint).
std::string digest(const std::string& text);

/// Exact renderings: every double in shortest round-trip form, so equal
/// text means bit-identical numbers.
std::string exact(const std::optional<double>& value);
std::string render(const aqua::FreqVsChipsData& data);
/// Caps and per-cell simulated seconds only: what a direct DES replay
/// can reproduce without the experiment's normalisation step.
std::string render_npb_cells(const aqua::NpbData& data);
/// render_npb_cells plus the normalised columns and the average row.
std::string render(const aqua::NpbData& data);

/// Frequency-cap threshold of the thermal sweeps for `seed`: exactly the
/// paper's 80 C at the default seed, otherwise a seeded value within
/// +-1.5 C of it (0.01 C steps), so every seed runs the same 145 cells
/// on a slightly different cap boundary.
double threshold_for(std::uint64_t seed);

/// Collects metrics in print order, plus the counts of the output gate.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< what failed the output check
  /// Metric name -> value. Units live in BENCHMARK.json; run.py attaches
  /// them and fills per-layer metrics a workload does not exercise with 0.
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> digests;  ///< checked at kDefaultSeed
  std::map<std::string, double> counts;        ///< checked at kDefaultSeed
  std::vector<double> setup_samples_s;
  std::map<std::string, std::vector<double>> samples;  ///< per-pass values
  /// Workload-specific figures for the human-readable summary only.
  std::map<std::string, double> info;

  void metric(const std::string& name, double value) { metrics[name] = value; }
  /// Records an output mismatch; it counts as one failed cell.
  void mismatch(const std::string& what) {
    errors.push_back(what);
    ++failed;
  }
};

/// Spans recorded from the benchmark's own files around calls into the
/// program's public functions. Kept in memory; written out at the end.
/// Thread-safe: the service workload records from two client threads.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// A span around the caller's scope; a no-op when tracing is off.
  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }

  /// Sum of the durations of every span called `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::size_t parent;  ///< index + 1; 0 for a root span
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// The two chip models of the thermal figures.
struct Models {
  aqua::ChipModel low = aqua::make_low_power_cmp();
  aqua::ChipModel high = aqua::make_high_frequency_cmp();
};

/// Workload entry points. `ready` is called once set-up is done.
using ReadyFn = void (*)();
void thermal_sweep(const Options& options, Result& result, ReadyFn ready);
void npb_cold(const Options& options, Result& result, ReadyFn ready);
void sweep_parallel(const Options& options, Result& result, ReadyFn ready);
void service_mix(const Options& options, Result& result, ReadyFn ready);

/// Wall time and peak RSS of each timed pass.
struct Passes {
  std::vector<double> wall_s;
  std::vector<double> peak_rss_mb;
};

/// With options.pause_between_passes, prints "between" and blocks until a
/// line arrives on standard input; returns the seconds spent waiting.
double pause_between_passes(const Options& options);

/// Runs `pass` (at least once) for as long as the next pass, taking as
/// long as the last one, still ends within options.seconds. Time spent in
/// pauses between passes does not count.
template <class Pass>
Passes timed_passes(const Options& options, Pass&& pass) {
  Passes passes;
  const Clock::time_point start = Clock::now();
  double paused_s = 0.0;
  do {
    reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    pass(passes.wall_s.size());
    passes.wall_s.push_back(seconds_since(t0));
    passes.peak_rss_mb.push_back(peak_rss_mb());
    paused_s += pause_between_passes(options);
  } while (seconds_since(start) - paused_s + passes.wall_s.back() <=
           options.seconds);
  return passes;
}

}  // namespace aquabench
