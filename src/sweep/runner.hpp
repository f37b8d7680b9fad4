#pragma once

/// SweepRunner: the one code path every Fig. 7-13 sweep cell goes through
/// (DESIGN.md §9). A cell has one identity, its canonical CellConfig key;
/// the `cell` label only names it in reports and in AQUA_FAULT_CELL. The
/// runner composes, in fixed precedence order:
///
///   1. journal resume  (AQUA_SWEEP_RESUME: the runner's own SweepCache
///                       instance, keyed like the content cache; ok cells
///                       replay verbatim, including cells this run stored)
///   2. poison          (AQUA_FAULT_CELL cells always fail, are journaled
///                       as failed, and are NEVER written to the cache)
///   3. in-process memo (dedupe of identical cells inside one sweep —
///                       e.g. two cooling options capping at the same
///                       frequency share one DES run). Under the task
///                       engine the memo is single-flight: the first
///                       worker to reach a canonical key becomes its
///                       leader and computes; concurrent workers block on
///                       that key's entry (not on a global lock) and are
///                       served as memo hits, so each key computes exactly
///                       once per sweep. A leader that fails or is
///                       cancelled abandons the entry and waiters retry
///                       from the top of the precedence chain.
///   4. content cache   (AQUA_SWEEP_CACHE warm hits skip the compute)
///   5. compute         (isolate-and-continue: a throwing cell is
///                       journaled as failed, never cached, and does not
///                       abort the sweep)
///
/// A computed cacheable cell is stored in the journal and the cache; a memo
/// or cache hit writes nothing. Poison outranks memo/cache on purpose:
/// deterministic fault injection must not be maskable by a warm cache.
///
/// Cancellation (DESIGN.md §13): run() takes an optional CancelToken and
/// checks it at the chain boundaries — on entry (where it also honors the
/// process-wide sweep interrupt flag), while parked on a single-flight
/// memo entry (the wait is bounded by the token's deadline), before the
/// compute, and after it. A cancelled cell returns CellSource::kCancelled
/// and is retryable by contract: never journaled (as ok OR failed), never
/// cached, and a cancelled leader abandons its memo entry so waiters wake
/// and retry as leaders instead of inheriting a phantom failure.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/cache.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/cost.hpp"
#include "sweep/interrupt.hpp"

namespace aqua::sweep {

inline constexpr const char* kResumeEnv = "AQUA_SWEEP_RESUME";
inline constexpr const char* kPoisonEnv = "AQUA_FAULT_CELL";

/// AQUA_SWEEP_RESUME=<path>: the resume journal every SweepRunner opens
/// ("" when unset: no journal).
std::string resume_path_from_env();

/// AQUA_FAULT_CELL=<sweep>:<cell>[,...]: the cell labels of `sweep` that
/// fail without computing (deterministic fault drills; empty when unset).
std::vector<std::string> poisoned_cells_from_env(const std::string& sweep);

/// Where a cell's values came from.
enum class CellSource {
  kComputed,
  kJournal,
  kMemo,
  kCache,
  kFailed,
  /// The cell's CancelToken fired (deadline or explicit cancel) or the
  /// process-wide sweep interrupt flag is up. Retryable: nothing was
  /// journaled or cached, and `apply` did not run.
  kCancelled,
};

/// Stable lowercase name ("computed", "journal", ... — the `cell_cost`
/// run-report records carry it).
const char* to_string(CellSource source);

/// Per-cell opt-outs.
struct CellPolicy {
  /// false: never persisted to the journal or the cache (fault-degraded
  /// runs whose plan is not part of the key). Memo dedupe still applies
  /// within the sweep.
  bool cacheable = true;
};

class SweepRunner {
 public:
  /// `sweep` names the AQUA_FAULT_CELL prefix and the run-report records.
  /// Resume journal and poison list are read from the env at construction.
  explicit SweepRunner(std::string sweep);

  /// Runs one cell. `compute` produces the cell's values; `apply` writes
  /// values (from whichever source) into the caller's table. `apply` runs
  /// for every source except kFailed and kCancelled.
  /// `token` bounds the cell cooperatively (see file comment); the default
  /// inert token never cancels.
  CellSource run(const CellConfig& config, const std::string& cell,
                 const CellPolicy& policy,
                 const std::function<std::map<std::string, double>()>& compute,
                 const std::function<void(const std::map<std::string, double>&)>&
                     apply,
                 const CancelToken& token = {});

  struct Stats {
    std::size_t computed = 0;
    std::size_t journal_hits = 0;
    std::size_t memo_hits = 0;
    std::size_t cache_hits = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    [[nodiscard]] std::size_t cells() const {
      return computed + journal_hits + memo_hits + cache_hits + failed +
             cancelled;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Aggregated per-cell cost ledger (DESIGN.md §11): phase wall times and
  /// solver/DES work summed over every run() call so far. Always on — the
  /// per-cell overhead is a handful of clock reads and relaxed counter
  /// loads. Individual `cell_cost` run-report records are only emitted
  /// when reporting is enabled.
  [[nodiscard]] CostBreakdown cost() const;

  /// Emits a "sweep" run-report record with this runner's counters (no-op
  /// when reporting is off).
  void emit_report() const;

 private:
  /// Folds one cell's cost into the ledger and, when reporting is on,
  /// emits its `cell_cost` record.
  void record_cost(const std::string& cell, CellSource source,
                   const CellCost& cost);
  /// Journals a failed cell under `key` and emits its `degraded_result`
  /// record under its label `cell`.
  void record_failed(const std::string& key, const std::string& cell,
                     const std::string& error);
  std::string sweep_;
  SweepCache journal_;  ///< disabled unless AQUA_SWEEP_RESUME is set
  std::vector<std::string> poisons_;  ///< this sweep's AQUA_FAULT_CELL cells

  /// Single-flight memo entry: one per canonical key. `memo_mutex_` only
  /// guards the map and entry state flips — never a compute. Waiters block
  /// on the entry's cv; `ready` publishes values, erasure from the map
  /// (leader failed / cancelled) wakes waiters to retry as leaders.
  struct MemoEntry {
    std::condition_variable cv;
    bool ready = false;
    bool abandoned = false;
    std::map<std::string, double> values;
  };

  std::mutex memo_mutex_;
  std::unordered_map<std::string, std::shared_ptr<MemoEntry>> memo_;

  mutable std::mutex cost_mutex_;
  CostBreakdown cost_;

  std::atomic<std::size_t> computed_{0};
  std::atomic<std::size_t> journal_hits_{0};
  std::atomic<std::size_t> memo_hits_{0};
  std::atomic<std::size_t> cache_hits_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::size_t> cancelled_{0};
};

/// Dispatches `count` independent, placement-free cells as unpinned tasks
/// on the shared TaskEngine: workers claim the next unclaimed cell index,
/// so slow cells never leave fast workers idle. Drivers whose cells want
/// solver-state affinity build TaskEngine batches directly instead.
void dispatch_cells(std::size_t count,
                    const std::function<void(std::size_t)>& body);

}  // namespace aqua::sweep
