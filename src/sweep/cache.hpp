#pragma once

/// The JSON-lines cell store (DESIGN.md §8, §9): one file of key ->
/// {status, values} records, one in-memory map, one lenient loader, one
/// appender. It has two kinds of instance:
///   * the content cache, SweepCache::instance() (namespace ""): keyed by
///     canonical CellConfig, ok cells only. AQUA_SWEEP_CACHE=<dir> (read
///     once at first use; tests repoint it with configure()) persists to
///     <dir>/sweep_cache.jsonl and warm cells skip their compute entirely.
///     Unset (the default), no lookups happen at all.
///   * a resume journal (namespace = the sweep name) that each SweepRunner
///     opens on AQUA_SWEEP_RESUME: keyed by cell label. It serves only the
///     records loaded at open(): a label does not pin every input of its
///     cell (a service request may vary a parameter the label leaves out),
///     so a cell stored during this run is written but never served back.
///     Failed cells are written for drills and degraded_result, never
///     served.
///
/// Record shape (one JSON object per line, flushed per store):
///   {"kind":"sweep_cache","salt":"aqua-sweep-v1","hash":"<16 hex>",
///    "cell":"<canonical CellConfig>","v_seconds":12.5,...}
///   {"kind":"sweep_cell","salt":...,"hash":...,"sweep":"fig07",
///    "cell":"<label>","v_ghz":2.3,...}
/// The hash is FNV-1a over salt, 0x1f, [sweep, 0x1f,] cell, so a cache
/// record's is its CellConfig::hash(). A failed record carries
/// "status":"failed" and "error" instead of values. Records of another
/// namespace are ignored, so several sweeps may share one journal.
///
/// Loading is lenient: unparsable lines, records of another salt (stale
/// schema) and records whose hash does not reproduce from their key
/// (truncation or corruption) are counted and skipped, never trusted and
/// never thrown; their cells recompute. Concurrent processes may append to
/// one file; a torn line is caught by the same loader, and appends after a
/// torn tail start a fresh line. The cache's hit/miss/store/skip counts
/// flow into the obs registry (`sweep.cache_*`) and "sweep" run records.

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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

  /// A closed store for namespace `sweep` ("" is the content cache's).
  explicit SweepCache(std::string sweep = "");

  /// Points the store at `dir`/kFileName (creating `dir`), or disables and
  /// clears it when `dir` is empty. Tests and tools call this directly.
  void configure(const std::string& dir);

  /// Points the store at the file `path` (loading any records of this
  /// namespace), or disables and clears it when `path` is empty.
  void open(const std::string& path);

  [[nodiscard]] bool enabled() const;
  [[nodiscard]] std::string file_path() const;

  /// On a hit copies the cell's values into `out` and returns true. Always
  /// counts a hit or a miss (no-op false when disabled).
  bool lookup(const std::string& key, std::map<std::string, double>* out);
  bool lookup(const CellConfig& config, std::map<std::string, double>* out) {
    return lookup(config.canonical(), out);
  }

  /// Persists one completed cell (no-op when disabled, or when the key is
  /// already served: that neither grows the file nor changes the values).
  /// The content cache serves the stored cell from then on.
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

  const std::string sweep_;
  const bool serves_stores_;  ///< content cache: stored cells are served
  mutable std::mutex mutex_;
  std::string path_;             ///< empty = disabled
  Metrics* metrics_ = nullptr;   ///< set by open() for the enabled cache
  /// The ok cells lookup() serves.
  std::unordered_map<std::string, std::map<std::string, double>> entries_;
  std::ofstream out_;  ///< opened lazily on first store
  Stats stats_;
};

/// Lenient scan of one store file of any namespace (missing file -> zero
/// summary); the inspection behind `trace_tools cache`.
CacheFileSummary inspect_cache_file(const std::string& path);

/// Merges resume journals: appends every valid "sweep_cell" record of
/// `inputs` (in order) to `out_path`, skipping lines the loader would
/// skip. Returns the number of records written. The merge of per-shard
/// journals replayed with AQUA_SWEEP_RESUME reassembles the full table.
std::size_t merge_journal_files(const std::string& out_path,
                                const std::vector<std::string>& inputs);

}  // namespace aqua::sweep
