/// Shard scheduler and SweepRunner tests: env parsing, the deterministic
/// partition, the runner's source-precedence contract, and the per-shard
/// journal merge that reassembles a full table.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sweep/cache.hpp"
#include "sweep/cells.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard.hpp"

namespace aqua::sweep {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

void clear_sweep_env() {
  ::unsetenv(sweep::kResumeEnv);
  ::unsetenv(sweep::kPoisonEnv);
  ::unsetenv(ShardPlan::kShardsEnv);
  ::unsetenv(ShardPlan::kShardIdEnv);
}

std::string temp_path(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/aqua_shard_" + tag;
}

/// A deterministic stand-in for a sweep's physics: pure function of the
/// cell key, expensive enough to notice if it ran (via the counter).
std::map<std::string, double> fake_compute(const CellConfig& config,
                                           int* computed) {
  if (computed != nullptr) ++*computed;
  return {{"value", static_cast<double>(config.hash() % 1000)}};
}

// --------------------------------------------------------------- ShardPlan --

TEST(ShardPlan, UnsetEnvIsSingleShard) {
  clear_sweep_env();
  const ShardPlan plan = ShardPlan::from_env();
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_EQ(plan.id, 0u);
  EXPECT_FALSE(plan.active());
  EXPECT_TRUE(plan.owns(0));
  EXPECT_TRUE(plan.owns(0xfeedfacedeadbeefull));
}

TEST(ShardPlan, ParsesShardsAndId) {
  clear_sweep_env();
  ScopedEnv shards(ShardPlan::kShardsEnv, "4");
  ScopedEnv id(ShardPlan::kShardIdEnv, "2");
  const ShardPlan plan = ShardPlan::from_env();
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.id, 2u);
  EXPECT_TRUE(plan.active());
}

TEST(ShardPlan, MalformedEnvThrows) {
  clear_sweep_env();
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "four");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "0");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "-2");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "4");
    ScopedEnv id(ShardPlan::kShardIdEnv, "4");  // 0-based: must be < shards
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
  {
    ScopedEnv shards(ShardPlan::kShardsEnv, "4");
    ScopedEnv id(ShardPlan::kShardIdEnv, "1x");
    EXPECT_THROW(ShardPlan::from_env(), Error);
  }
}

TEST(ShardPlan, PartitionIsTotalAndDisjoint) {
  // Every hash is owned by exactly one of N shards — the no-coordination
  // invariant behind idempotent shard re-runs.
  for (std::size_t n : {2u, 3u, 4u, 7u}) {
    for (std::uint64_t h = 0; h < 1000; ++h) {
      std::size_t owners = 0;
      for (std::size_t k = 0; k < n; ++k) {
        ShardPlan plan;
        plan.shards = n;
        plan.id = k;
        owners += plan.owns(h) ? 1 : 0;
      }
      ASSERT_EQ(owners, 1u) << "hash " << h << " shards " << n;
    }
  }
}

// -------------------------------------------------------------- SweepRunner --

TEST(SweepRunner, ComputesAppliesAndCounts) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  SweepRunner runner("runner_basic");
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  int computed = 0;
  double applied = -1.0;
  const CellSource src = runner.run(
      config, "cell-a", {}, [&] { return fake_compute(config, &computed); },
      [&](const std::map<std::string, double>& values) {
        applied = values.at("value");
      });
  EXPECT_EQ(src, CellSource::kComputed);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(applied, static_cast<double>(config.hash() % 1000));
  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cells(), 1u);
}

TEST(SweepRunner, MemoDedupesIdenticalCellsUnderDistinctNames) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  SweepRunner runner("runner_memo");
  const CellConfig config = npb_des_cell(6, 4, "ft", 1.6e9, 1000, 1, false);
  int computed = 0;
  double first = -1.0;
  double second = -2.0;
  EXPECT_EQ(runner.run(config, "slot-oil", {},
                       [&] { return fake_compute(config, &computed); },
                       [&](const std::map<std::string, double>& v) {
                         first = v.at("value");
                       }),
            CellSource::kComputed);
  EXPECT_EQ(runner.run(config, "slot-fluorinert", {},
                       [&] { return fake_compute(config, &computed); },
                       [&](const std::map<std::string, double>& v) {
                         second = v.at("value");
                       }),
            CellSource::kMemo);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(first, second);
  EXPECT_EQ(runner.stats().memo_hits, 1u);
}

TEST(SweepRunner, JournalOutranksEverything) {
  clear_sweep_env();
  const std::string path = temp_path("journal_first.jsonl");
  std::filesystem::remove(path);
  ScopedEnv env(sweep::kResumeEnv, path);
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  {
    SweepRunner first("runner_journal");
    first.run(config, "cell-a", {}, [&] { return fake_compute(config, nullptr); },
              [](const std::map<std::string, double>&) {});
  }
  // Second runner: the journaled value is served without compute, even
  // though the cache is cold and the cell would otherwise recompute.
  SweepRunner second("runner_journal");
  int computed = 0;
  EXPECT_EQ(second.run(config, "cell-a", {},
                       [&] { return fake_compute(config, &computed); },
                       [](const std::map<std::string, double>&) {}),
            CellSource::kJournal);
  EXPECT_EQ(computed, 0);
  EXPECT_EQ(second.stats().journal_hits, 1u);
  std::filesystem::remove(path);
}

TEST(SweepRunner, CacheHitIsReJournaled) {
  clear_sweep_env();
  const std::string cache_dir = temp_path("cache_rejournal");
  std::filesystem::remove_all(cache_dir);
  SweepCache::instance().configure(cache_dir);
  const std::string journal = temp_path("rejournal.jsonl");
  std::filesystem::remove(journal);

  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  SweepCache::instance().store(config, {{"value", 17.0}});
  {
    ScopedEnv env(sweep::kResumeEnv, journal);
    SweepRunner runner("runner_rejournal");
    int computed = 0;
    EXPECT_EQ(runner.run(config, "cell-a", {},
                         [&] { return fake_compute(config, &computed); },
                         [](const std::map<std::string, double>&) {}),
              CellSource::kCache);
    EXPECT_EQ(computed, 0);
  }
  // The journal now carries the cache-served cell, so a merge/resume sees
  // it like any computed cell.
  std::ifstream in(journal);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"cell\": \"cell-a\""), std::string::npos);
  EXPECT_NE(content.find("\"v_value\": 17"), std::string::npos);
  SweepCache::instance().configure("");
  std::filesystem::remove(journal);
}

TEST(SweepRunner, ShardSkipLeavesHolesAndCountsThem) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  // Run the same 32-cell sweep as each of 4 shards; every cell must be
  // computed by exactly one shard and skipped by the other three.
  std::vector<CellConfig> cells;
  for (std::size_t i = 0; i < 32; ++i) {
    cells.push_back(htc_cell("low_power", 4, 10.0 * static_cast<double>(i + 1), {}));
  }
  std::map<std::string, int> computed_by;
  std::size_t total_computed = 0;
  std::size_t total_skipped = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    ScopedEnv shards(ShardPlan::kShardsEnv, "4");
    ScopedEnv id(ShardPlan::kShardIdEnv, std::to_string(k));
    SweepRunner runner("runner_shard");
    for (const CellConfig& cell : cells) {
      runner.run(cell, cell.canonical(), {},
                 [&] {
                   ++computed_by[cell.canonical()];
                   return fake_compute(cell, nullptr);
                 },
                 [](const std::map<std::string, double>&) {});
    }
    total_computed += runner.stats().computed;
    total_skipped += runner.stats().shard_skipped;
  }
  EXPECT_EQ(total_computed, cells.size());
  EXPECT_EQ(total_skipped, cells.size() * 3);
  for (const CellConfig& cell : cells) {
    EXPECT_EQ(computed_by[cell.canonical()], 1) << cell.canonical();
  }
}

TEST(SweepRunner, UnshardablePolicyRunsOnEveryShard) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  const CellConfig config = freq_cap_cell("low_power", 6, "water", 80.0, {});
  CellPolicy policy;
  policy.shardable = false;
  int computed = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    ScopedEnv shards(ShardPlan::kShardsEnv, "3");
    ScopedEnv id(ShardPlan::kShardIdEnv, std::to_string(k));
    SweepRunner runner("runner_cap");
    EXPECT_EQ(runner.run(config, "cap-cell", policy,
                         [&] { return fake_compute(config, &computed); },
                         [](const std::map<std::string, double>&) {}),
              CellSource::kComputed);
  }
  EXPECT_EQ(computed, 3);
}

// ------------------------------------------------------------ journal merge --

TEST(JournalMerge, ShardedJournalsReassembleTheFullTable) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  const std::string merged = temp_path("merged.jsonl");
  std::filesystem::remove(merged);
  std::vector<std::string> shard_files;

  std::vector<CellConfig> cells;
  for (std::size_t i = 0; i < 24; ++i) {
    cells.push_back(
        rotation_cell("high_freq", 4, "water", i, 1.0e9 + 1e8 * static_cast<double>(i), {}));
  }

  // Shard passes: 3 workers, disjoint journals.
  std::map<std::string, double> serial;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string path = temp_path("shard" + std::to_string(k) + ".jsonl");
    std::filesystem::remove(path);
    shard_files.push_back(path);
    ScopedEnv env(sweep::kResumeEnv, path);
    ScopedEnv shards(ShardPlan::kShardsEnv, "3");
    ScopedEnv id(ShardPlan::kShardIdEnv, std::to_string(k));
    SweepRunner runner("merge_sweep");
    for (const CellConfig& cell : cells) {
      runner.run(cell, cell.canonical(), {},
                 [&] { return fake_compute(cell, nullptr); },
                 [&](const std::map<std::string, double>& v) {
                   serial[cell.canonical()] = v.at("value");
                 });
    }
  }
  ASSERT_EQ(serial.size(), cells.size());

  // Garbage at the end of one shard file (a torn line from a kill) must
  // not break the merge.
  { std::ofstream(shard_files[1], std::ios::app) << "{\"kind\": \"sweep_c"; }

  const std::size_t written = merge_journal_files(merged, shard_files);
  EXPECT_EQ(written, cells.size());

  // Replay from the merged journal with sharding off: every cell is a
  // journal hit and the values match the shard passes exactly.
  ScopedEnv env(sweep::kResumeEnv, merged);
  SweepRunner replay("merge_sweep");
  std::map<std::string, double> resumed;
  for (const CellConfig& cell : cells) {
    EXPECT_EQ(replay.run(cell, cell.canonical(), {},
                         [&]() -> std::map<std::string, double> {
                           throw std::runtime_error("must not recompute");
                         },
                         [&](const std::map<std::string, double>& v) {
                           resumed[cell.canonical()] = v.at("value");
                         }),
              CellSource::kJournal);
  }
  EXPECT_EQ(resumed, serial);
  EXPECT_EQ(replay.stats().journal_hits, cells.size());

  for (const std::string& path : shard_files) std::filesystem::remove(path);
  std::filesystem::remove(merged);
}

TEST(JournalMerge, MissingInputsAreTolerated) {
  const std::string merged = temp_path("merged_empty.jsonl");
  std::filesystem::remove(merged);
  EXPECT_EQ(merge_journal_files(merged, {temp_path("nope1.jsonl"),
                                         temp_path("nope2.jsonl")}),
            0u);
  std::filesystem::remove(merged);
}

}  // namespace
}  // namespace aqua::sweep
