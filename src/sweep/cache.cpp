#include "sweep/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "common/error.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_reader.hpp"

namespace aqua::sweep {

struct SweepCache::Metrics {
  obs::Counter& hits = obs::Registry::instance().counter("sweep.cache_hits");
  obs::Counter& misses =
      obs::Registry::instance().counter("sweep.cache_misses");
  obs::Counter& stores =
      obs::Registry::instance().counter("sweep.cache_stores");
  obs::Counter& skips =
      obs::Registry::instance().counter("sweep.cache_skips");
  obs::Counter& bad_lines =
      obs::Registry::instance().counter("sweep.cache_bad_lines");
  obs::Counter& stale =
      obs::Registry::instance().counter("sweep.cache_stale_salt");

  static Metrics& instance() {
    static Metrics metrics;
    return metrics;
  }
};

namespace {

constexpr const char* kKind = "sweep_cache";

/// One valid record as the loader hands it out.
struct Record {
  std::string key;
  bool ok = true;
  std::map<std::string, double> values;
};

bool is_string(const obs::JsonValue* v) {
  return v != nullptr && v->kind == obs::JsonValue::Kind::kString;
}

/// FNV-1a over salt, 0x1f, key: CellConfig::hash() of the canonical key.
std::string record_hash(const std::string& key) {
  const std::string_view sep("\x1f", 1);
  return to_hex16(fnv1a64(key, fnv1a64(sep, fnv1a64(kCellKeySalt))));
}

/// Encodes one record line (with its newline); values use the "v_" prefix.
std::string encode_record(const std::string& key,
                          const std::map<std::string, double>* values,
                          const std::string* error) {
  obs::JsonWriter w;
  w.add("kind", kKind)
      .add("salt", kCellKeySalt)
      .add("hash", record_hash(key))
      .add("cell", key);
  if (error != nullptr) w.add("status", "failed").add("error", *error);
  if (values != nullptr) {
    for (const auto& [name, value] : *values) w.add("v_" + name, value);
  }
  return w.str() + '\n';
}

/// Extracts the "sweep" field from a canonical cell string ("" if absent).
std::string sweep_field_of(const std::string& canonical) {
  std::size_t pos = 0;
  while (pos <= canonical.size()) {
    const std::size_t semi = canonical.find(';', pos);
    const std::string field = canonical.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    if (field.rfind("sweep=", 0) == 0) return field.substr(6);
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  return "";
}

/// The one lenient line-by-line scan. For every valid record calls
/// `accept(record)`; malformed / stale lines only bump the summary.
template <class Accept>
CacheFileSummary scan_file(const std::string& path, const Accept& accept) {
  CacheFileSummary summary;
  std::ifstream in(path);
  if (!in.is_open()) return summary;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::JsonValue doc;
    try {
      doc = obs::parse_json(line);
    } catch (const std::exception&) {
      ++summary.bad_lines;
      continue;
    }
    const obs::JsonValue* kind = doc.find("kind");
    const obs::JsonValue* salt = doc.find("salt");
    const obs::JsonValue* hash = doc.find("hash");
    const obs::JsonValue* cell = doc.find("cell");
    const obs::JsonValue* status = doc.find("status");
    // The one record shape has no "sweep" field; the retired label-keyed
    // journal records had one, and their hash does not cover the key alone.
    if (!is_string(kind) || kind->string != kKind || !is_string(salt) ||
        !is_string(hash) || !is_string(cell) ||
        doc.find("sweep") != nullptr ||
        (status != nullptr &&
         !(is_string(status) && status->string == "failed"))) {
      ++summary.bad_lines;
      continue;
    }
    if (salt->string != kCellKeySalt) {
      ++summary.stale_salt;
      continue;
    }
    // Content addressing doubles as an integrity check: a record whose
    // stored hash does not reproduce from its key was truncated or
    // edited, and is recomputed rather than trusted.
    if (hash->string != record_hash(cell->string)) {
      ++summary.bad_lines;
      continue;
    }
    Record rec;
    rec.key = cell->string;
    rec.ok = status == nullptr;
    for (const auto& [name, value] : doc.object) {
      if (name.rfind("v_", 0) == 0 &&
          value.kind == obs::JsonValue::Kind::kNumber) {
        rec.values[name.substr(2)] = value.number;
      }
    }
    ++summary.records;
    ++summary.per_sweep[sweep_field_of(rec.key)];
    accept(std::move(rec));
  }
  return summary;
}

/// Opens `path` for appending. A mid-write kill can leave the file ending
/// in a torn half-line; appends then start on a fresh line so new records
/// are not glued onto it.
void open_append(std::ofstream& out, const std::string& path) {
  bool needs_newline = false;
  if (std::ifstream tail(path, std::ios::binary); tail.is_open()) {
    tail.seekg(0, std::ios::end);
    if (tail.tellg() > 0) {
      tail.seekg(-1, std::ios::end);
      needs_newline = tail.get() != '\n';
    }
  }
  out.open(path, std::ios::app);
  ensure(out.is_open(), "cannot open sweep store: " + path);
  if (needs_newline) out << '\n';
}

/// One pre-built line, one write call, one flush: a record is either
/// appended whole (with its newline) or not at all, so a kill — or another
/// process appending to the same file — never interleaves inside a record
/// and the lenient loader's worst case is one torn tail line.
void append_line(std::ofstream& out, std::string_view line) {
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  out.flush();
}

}  // namespace

SweepCache& SweepCache::instance() {
  static SweepCache* cache = [] {
    auto* c = new SweepCache();
    c->metrics_ = &Metrics::instance();
    if (const char* env = std::getenv(kEnv); env != nullptr && env[0] != '\0') {
      c->configure(env);
    }
    return c;
  }();
  return *cache;
}

void SweepCache::configure(const std::string& dir) {
  if (dir.empty()) {
    open("");
    return;
  }
  std::filesystem::create_directories(dir);
  open((std::filesystem::path(dir) / kFileName).string());
}

void SweepCache::open(const std::string& path) {
  std::lock_guard lock(mutex_);
  if (out_.is_open()) out_.close();
  entries_.clear();
  stats_ = Stats{};
  path_ = path;
  if (path_.empty()) return;
  const CacheFileSummary summary = scan_file(path_, [&](Record&& rec) {
    // Failed cells always retry, so they are not served. Duplicate
    // records: last wins.
    if (rec.ok) entries_[std::move(rec.key)] = std::move(rec.values);
  });
  stats_.loaded = entries_.size();
  stats_.bad_lines = summary.bad_lines;
  stats_.stale_salt = summary.stale_salt;
  if (metrics_ != nullptr) {
    metrics_->bad_lines.add(summary.bad_lines);
    metrics_->stale.add(summary.stale_salt);
  }
}

bool SweepCache::enabled() const {
  std::lock_guard lock(mutex_);
  return !path_.empty();
}

std::string SweepCache::file_path() const {
  std::lock_guard lock(mutex_);
  return path_;
}

bool SweepCache::lookup(const std::string& key,
                        std::map<std::string, double>* out) {
  std::lock_guard lock(mutex_);
  if (path_.empty()) return false;
  const auto it = entries_.find(key);
  const bool hit = it != entries_.end();
  ++(hit ? stats_.hits : stats_.misses);
  if (metrics_ != nullptr) (hit ? metrics_->hits : metrics_->misses).add();
  if (hit && out != nullptr) *out = it->second;
  return hit;
}

void SweepCache::store(const std::string& key,
                       const std::map<std::string, double>& values) {
  std::lock_guard lock(mutex_);
  if (path_.empty() || entries_.count(key) != 0) return;
  append(encode_record(key, &values, nullptr));
  entries_.emplace(key, values);
}

void SweepCache::store_failed(const std::string& key,
                              const std::string& error) {
  std::lock_guard lock(mutex_);
  if (path_.empty()) return;
  append(encode_record(key, nullptr, &error));
}

void SweepCache::append(const std::string& line) {
  if (!out_.is_open()) open_append(out_, path_);
  append_line(out_, line);
  ++stats_.stores;
  if (metrics_ != nullptr) metrics_->stores.add();
}

void SweepCache::count_skip() {
  std::lock_guard lock(mutex_);
  if (path_.empty()) return;
  ++stats_.skips;
  if (metrics_ != nullptr) metrics_->skips.add();
}

SweepCache::Stats SweepCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

CacheFileSummary inspect_cache_file(const std::string& path) {
  std::map<std::string, bool> ok_by_key;
  CacheFileSummary summary = scan_file(
      path, [&](Record&& rec) { ok_by_key[rec.key] |= rec.ok; });
  summary.entries = ok_by_key.size();
  for (const auto& [key, ok] : ok_by_key) summary.failed += !ok;
  return summary;
}

}  // namespace aqua::sweep
