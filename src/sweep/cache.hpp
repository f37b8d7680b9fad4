#pragma once

/// The JSON-lines cell store (DESIGN.md §8, §9): one file of canonical
/// cell key -> {status, values} records, one in-memory map, one lenient
/// loader, one appender. Every instance is the same store, keyed by the
/// canonical CellConfig, and serves what it loaded and what it stores:
///   * the content cache, SweepCache::instance(): AQUA_SWEEP_CACHE=<dir>
///     (read once at first use; tests repoint it with configure())
///     persists to <dir>/sweep_cache.jsonl and warm cells skip their
///     compute entirely. Unset (the default), no lookups happen at all.
///     Only this instance feeds the obs registry (`sweep.cache_*`).
///   * a resume journal that each SweepRunner opens on AQUA_SWEEP_RESUME.
///     It also holds failed records, written for drills and
///     degraded_result and never served.
///
/// Record shape (one JSON object per line, flushed per store):
///   {"kind":"sweep_cache","salt":"aqua-sweep-v1","hash":"<16 hex>",
///    "cell":"<canonical CellConfig>","v_seconds":12.5,...}
/// The hash is CellConfig::hash(): FNV-1a over salt, 0x1f, cell. A failed
/// record carries "status":"failed" and "error" instead of values.
///
/// Loading is lenient: unparsable lines, records of another salt (stale
/// schema) and records whose hash does not reproduce from their key
/// (truncation or corruption) are counted and skipped, never trusted and
/// never thrown; their cells recompute. Concurrent processes may append to
/// one file; a torn line is caught by the same loader, and appends after a
/// torn tail start a fresh line.

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sweep/cell_key.hpp"

namespace aqua::sweep {

/// Lenient per-file summary, shared by the loader and `trace_tools cache`.
struct CacheFileSummary {
  std::size_t entries = 0;     ///< distinct keys (see SweepCache::store)
  std::size_t failed = 0;      ///< entries whose cell failed
  std::size_t records = 0;     ///< valid records including duplicates
  std::size_t bad_lines = 0;   ///< unparsable / hash-mismatched lines
  std::size_t stale_salt = 0;  ///< records from another schema version
  std::map<std::string, std::size_t> per_sweep;  ///< sweep family -> records
};

class SweepCache {
 public:
  static constexpr const char* kEnv = "AQUA_SWEEP_CACHE";
  static constexpr const char* kFileName = "sweep_cache.jsonl";

  /// The process cache, configured from AQUA_SWEEP_CACHE on first call.
  static SweepCache& instance();

  /// Points the store at `dir`/kFileName (creating `dir`), or disables and
  /// clears it when `dir` is empty. Tests and tools call this directly.
  void configure(const std::string& dir);

  /// Points the store at the file `path` (loading its ok records), or
  /// disables and clears it when `path` is empty.
  void open(const std::string& path);

  [[nodiscard]] bool enabled() const;
  [[nodiscard]] std::string file_path() const;

  /// On a hit copies the cell's values into `out` and returns true. Always
  /// counts a hit or a miss (no-op false when disabled).
  bool lookup(const std::string& key, std::map<std::string, double>* out);
  bool lookup(const CellConfig& config, std::map<std::string, double>* out) {
    return lookup(config.canonical(), out);
  }

  /// Persists one completed cell and serves it from then on (no-op when
  /// disabled, or when the key is already served: that neither grows the
  /// file nor changes the values).
  void store(const std::string& key,
             const std::map<std::string, double>& values);
  void store(const CellConfig& config,
             const std::map<std::string, double>& values) {
    store(config.canonical(), values);
  }

  /// Writes a failed cell with its error text (no-op when disabled). Never
  /// served by lookup().
  void store_failed(const std::string& key, const std::string& error);

  /// Counts a cell that was deliberately not cached (poisoned or degraded
  /// by fault injection) — the never-cache paths of DESIGN.md §9.
  void count_skip();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t skips = 0;
    std::uint64_t loaded = 0;      ///< ok entries loaded from disk at open
    std::uint64_t bad_lines = 0;   ///< corrupt lines skipped at open
    std::uint64_t stale_salt = 0;  ///< other-salt records skipped
  };
  /// Counts since the last configure() / open().
  [[nodiscard]] Stats stats() const;

 private:
  struct Metrics;  ///< the `sweep.cache_*` registry counters

  void append(const std::string& line);

  mutable std::mutex mutex_;
  std::string path_;             ///< empty = disabled
  Metrics* metrics_ = nullptr;   ///< set by instance() only
  /// The ok cells lookup() serves.
  std::unordered_map<std::string, std::map<std::string, double>> entries_;
  std::ofstream out_;  ///< opened lazily on first store
  Stats stats_;
};

/// Lenient scan of one store file (missing file -> zero summary); the
/// inspection behind `trace_tools cache`.
CacheFileSummary inspect_cache_file(const std::string& path);

}  // namespace aqua::sweep
