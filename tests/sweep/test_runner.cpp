/// SweepRunner tests: the source-precedence contract and the resume
/// journal keyed by the canonical cell key.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "sweep/cache.hpp"
#include "sweep/cells.hpp"
#include "sweep/runner.hpp"

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
}

std::string temp_path(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/aqua_runner_" + tag;
}

/// A deterministic stand-in for a sweep's physics: pure function of the
/// cell key, expensive enough to notice if it ran (via the counter).
std::map<std::string, double> fake_compute(const CellConfig& config,
                                           int* computed) {
  if (computed != nullptr) ++*computed;
  return {{"value", static_cast<double>(config.hash() % 1000)}};
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

TEST(SweepRunner, JournalIsKeyedByTheCanonicalCellNotTheLabel) {
  clear_sweep_env();
  SweepCache::instance().configure("");
  const std::string path = temp_path("canonical_key.jsonl");
  std::filesystem::remove(path);
  ScopedEnv env(sweep::kResumeEnv, path);
  const CellConfig hot = freq_cap_cell("low_power", 1, "air", 80.0, {});
  const CellConfig cool = freq_cap_cell("low_power", 1, "air", 40.0, {});
  const auto run = [](SweepRunner& runner, const CellConfig& config,
                      const std::string& cell, double value) {
    double applied = -1.0;
    const CellSource src = runner.run(
        config, cell, {},
        [value] { return std::map<std::string, double>{{"value", value}}; },
        [&](const std::map<std::string, double>& v) {
          applied = v.at("value");
        });
    EXPECT_EQ(applied, value) << cell;
    return src;
  };
  {
    // One label, two cells: each computes its own value.
    SweepRunner first("runner_canonical");
    EXPECT_EQ(run(first, hot, "same-label", 2.0), CellSource::kComputed);
    EXPECT_EQ(run(first, cool, "same-label", 1.3), CellSource::kComputed);
    // A finished cell is served from the journal under any label.
    EXPECT_EQ(run(first, hot, "other-label", 2.0), CellSource::kJournal);
  }
  SweepRunner resumed("runner_canonical");
  EXPECT_EQ(run(resumed, hot, "same-label", 2.0), CellSource::kJournal);
  EXPECT_EQ(run(resumed, cool, "same-label", 1.3), CellSource::kJournal);
  EXPECT_EQ(inspect_cache_file(path).records, 2u);
  std::filesystem::remove(path);
}

TEST(SweepRunner, CacheHitIsNotReJournaled) {
  clear_sweep_env();
  const std::string cache_dir = temp_path("cache_no_rejournal");
  std::filesystem::remove_all(cache_dir);
  SweepCache::instance().configure(cache_dir);
  const std::string journal = temp_path("no_rejournal.jsonl");
  std::filesystem::remove(journal);

  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  SweepCache::instance().store(config, {{"value", 17.0}});
  {
    ScopedEnv env(sweep::kResumeEnv, journal);
    SweepRunner runner("runner_no_rejournal");
    int computed = 0;
    EXPECT_EQ(runner.run(config, "cell-a", {},
                         [&] { return fake_compute(config, &computed); },
                         [](const std::map<std::string, double>&) {}),
              CellSource::kCache);
    EXPECT_EQ(computed, 0);
  }
  // The cache already holds the cell under the same key, so the journal
  // gets no copy of it.
  EXPECT_EQ(inspect_cache_file(journal).records, 0u);
  SweepCache::instance().configure("");
  std::filesystem::remove(journal);
}

}  // namespace
}  // namespace aqua::sweep
