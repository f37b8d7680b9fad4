#pragma once

/// Process-wide metrics registry: counters, gauges and fixed-bucket
/// histograms with a lock-free atomic hot path.
///
/// Instruments are created once (registry mutex) and then updated with
/// relaxed atomics only, so call sites cache references:
///
///   static obs::Counter& solves =
///       obs::Registry::instance().counter("solver.solves");
///   solves.add();
///
/// The always-on solver/pool counters cost a handful of relaxed atomic
/// adds per *solve* or *task* (not per iteration), which is noise next to
/// the work they count; finer-grained recording (per-solve histograms,
/// run-report lines) is gated on `Registry::enabled()`, controlled by the
/// env var `AQUA_METRICS` (unset/"0" = off). Snapshots subtract cleanly, so
/// sweep-level telemetry is "snapshot, run, snapshot, diff" instead of
/// hand-threaded accumulator plumbing.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::obs {

/// Adds `delta` to an atomic double without std::atomic<double>::fetch_add
/// (not universally available pre-C++20 library support).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, worker count, ...).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept { atomic_add(value_, delta); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations x <= bounds[i]
/// (ascending), with an implicit +inf bucket at the end. Observation is a
/// bucket search plus two relaxed atomic updates.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x) noexcept;

  /// Number of buckets including the +inf bucket (bounds().size() + 1).
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const;

  /// Approximate quantile (linear interpolation inside the bucket; the
  /// +inf bucket reports its lower bound). q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `count` exponentially spaced upper bounds starting at `start` (handy
/// default for iteration counts and latencies).
std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t count);

/// Per-thread tallies of the work a sweep cell's cost ledger attributes.
/// Each grows beside its process-wide registry counter (`solver.wall_ns`,
/// `solver.cg_iterations`, `solver.vcycles`, `perf.events`), on the
/// thread that did the work, so a diff taken around a compute on one
/// thread counts that compute's work alone at any worker count.
struct ThreadWork {
  std::uint64_t solver_wall_ns = 0;
  std::uint64_t cg_iterations = 0;
  std::uint64_t vcycles = 0;
  std::uint64_t des_events = 0;
};

/// The calling thread's tallies.
ThreadWork& thread_work() noexcept;

/// Named-instrument registry. Lookup/creation takes a mutex; returned
/// references stay valid for the process lifetime.
class Registry {
 public:
  /// The process registry, configured from AQUA_METRICS on first call.
  static Registry& instance();

  /// Whether gated (non-essential) instrumentation should record.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Creates with `upper_bounds` on first call; later calls return the
  /// existing histogram (bounds argument ignored).
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds);

  /// Point-in-time copy of every instrument's value.
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;

    /// counters[name] - before.counters[name] (missing = 0).
    [[nodiscard]] std::uint64_t counter_delta(const Snapshot& before,
                                              const std::string& name) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Renders every instrument (histograms with buckets/sum/count) as one
  /// JSON object — the run report's "metrics" record body.
  [[nodiscard]] std::string to_json() const;

 private:
  Registry();

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, Kind kind);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace aqua::obs
