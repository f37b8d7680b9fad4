#pragma once

/// The env contract a SweepRunner reads at construction (so tests can
/// repoint it): the resume journal and cell poison (DESIGN.md §8), and
/// deterministic shard partitioning for scale-out sweep runs (§9).
///
///   AQUA_SWEEP_RESUME=<path> -> the runner's resume journal (a
///     sweep/cache.hpp store): completed cells are served, not recomputed
///   AQUA_FAULT_CELL=<sweep>:<cell>[,...] -> the named cells fail without
///     computing (deterministic fault drills)
///   AQUA_SWEEP_SHARDS=N     -> the sweep is split across N workers
///   AQUA_SWEEP_SHARD_ID=k   -> this process is worker k (0-based)
///
/// A cell belongs to shard k iff hash(cell) % N == k, so the partition is
/// a pure function of the canonical cell key: every shard agrees on who
/// owns what without any coordination, re-running a shard is idempotent,
/// and adding journal/cache files from other shards never conflicts.
/// Cells this shard does not own are skipped (left as table holes); the
/// full table is assembled by merging the per-shard journals
/// (sweep::merge_journal_files) and replaying once with AQUA_SWEEP_RESUME
/// pointed at the merge.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace aqua::sweep {

inline constexpr const char* kResumeEnv = "AQUA_SWEEP_RESUME";
inline constexpr const char* kPoisonEnv = "AQUA_FAULT_CELL";

/// AQUA_SWEEP_RESUME's path ("" when unset: no journal).
std::string resume_path_from_env();

/// The cells of `sweep` that AQUA_FAULT_CELL poisons (empty when unset).
std::vector<std::string> poisoned_cells_from_env(const std::string& sweep);

struct ShardPlan {
  static constexpr const char* kShardsEnv = "AQUA_SWEEP_SHARDS";
  static constexpr const char* kShardIdEnv = "AQUA_SWEEP_SHARD_ID";

  std::size_t shards = 1;
  std::size_t id = 0;

  /// Parses the env contract; throws aqua::Error on malformed values
  /// (non-numeric, zero shards, id >= shards). Unset env = single shard.
  static ShardPlan from_env();

  [[nodiscard]] bool active() const { return shards > 1; }

  /// True when this shard computes the cell with the given key hash.
  [[nodiscard]] bool owns(std::uint64_t hash) const {
    return shards <= 1 || hash % shards == id;
  }
};

}  // namespace aqua::sweep
