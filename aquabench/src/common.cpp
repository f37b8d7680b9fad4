#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sweep/cell_key.hpp"

namespace aquabench {

double median(std::vector<double> values) {
  aqua::require(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  aqua::require(!values.empty(), "percentile of no values");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw aqua::Error("VmHWM missing from /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  aqua::require(clear.good(), "cannot reset the peak RSS via clear_refs");
}

double pause_between_passes(const Options& options) {
  if (!options.pause_between_passes) return 0.0;
  const Clock::time_point t0 = Clock::now();
  std::cout << "between" << std::endl;
  std::string line;
  aqua::require(static_cast<bool>(std::getline(std::cin, line)),
                "standard input closed during a pause between passes");
  return seconds_since(t0);
}

std::string digest(const std::string& text) {
  return aqua::sweep::to_hex16(aqua::sweep::fnv1a64(text));
}

std::string exact(const std::optional<double>& value) {
  return value.has_value() ? aqua::sweep::format_double_exact(*value)
                           : std::string("-");
}

std::string render(const aqua::FreqVsChipsData& data) {
  std::ostringstream os;
  for (const aqua::FreqVsChipsSeries& s : data.series) {
    for (std::size_t n = 0; n < s.ghz.size(); ++n) {
      os << to_string(s.cooling) << ' ' << (n + 1) << ' ' << exact(s.ghz[n])
         << '\n';
    }
  }
  return os.str();
}

std::string render_npb_cells(const aqua::NpbData& data) {
  std::ostringstream os;
  for (std::size_t k = 0; k < data.coolings.size(); ++k) {
    const aqua::FrequencyCap& cap = data.caps[k];
    os << "cap " << to_string(data.coolings[k]) << ' '
       << (cap.feasible ? exact(cap.frequency.value()) + ' ' +
                              exact(cap.max_temperature_c)
                        : std::string("-"))
       << '\n';
  }
  for (const aqua::NpbRow& row : data.rows) {
    if (row.benchmark == "avg") continue;
    for (std::size_t k = 0; k < data.coolings.size(); ++k) {
      os << row.benchmark << ' ' << to_string(data.coolings[k]) << ' '
         << exact(row.seconds[k]) << '\n';
    }
  }
  return os.str();
}

std::string render(const aqua::NpbData& data) {
  std::ostringstream os;
  os << render_npb_cells(data);
  for (const aqua::NpbRow& row : data.rows) {
    for (std::size_t k = 0; k < data.coolings.size(); ++k) {
      os << "rel " << row.benchmark << ' ' << to_string(data.coolings[k])
         << ' ' << exact(row.relative[k]) << '\n';
    }
  }
  return os.str();
}

double threshold_for(std::uint64_t seed) {
  if (seed == kDefaultSeed) return 80.0;
  aqua::Xoshiro256 rng(seed);
  const auto steps = static_cast<double>(rng() % 301);  // 0 .. 300
  return 80.0 + (steps - 150.0) / 100.0;
}

namespace {

/// Open spans of the calling thread, innermost last: the parent of a new
/// span is the innermost one still open on the same thread.
thread_local std::vector<std::size_t> t_open;

std::uint64_t ns_since(Clock::time_point origin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin)
          .count());
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  const std::uint64_t now = ns_since(tracer_->origin_);
  {
    std::lock_guard lock(tracer_->mutex_);
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back(
        {name, t_open.empty() ? 0 : t_open.back() + 1, now, now});
  }
  t_open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::uint64_t now = ns_since(tracer_->origin_);
  t_open.pop_back();
  std::lock_guard lock(tracer_->mutex_);
  tracer_->spans_[index_].end_ns = now;
}

double Tracer::total_s(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::size_t Tracer::count(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  aqua::require(out.good(), "cannot write trace file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  aqua::require(out.good(), "failed writing trace file " + path);
}

}  // namespace aquabench
