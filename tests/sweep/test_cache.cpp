/// Negative-path tests for the sweep cell store (DESIGN.md §8, §9), as the
/// content cache and as a resume journal: corrupt, edited and truncated
/// lines are skipped and recomputed, stale-salt files yield zero hits, and
/// poisoned / fault-degraded cells are never persisted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fresh cache directory per test; the process-wide cache is pointed at it
/// and disabled again on teardown so tests cannot leak state.
class SweepCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv(sweep::kResumeEnv);
    ::unsetenv(sweep::kPoisonEnv);
    dir_ = std::string(::testing::TempDir()) + "/aqua_cache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    SweepCache::instance().configure(dir_);
  }
  void TearDown() override { SweepCache::instance().configure(""); }

  [[nodiscard]] std::string file_path() const {
    return dir_ + "/" + SweepCache::kFileName;
  }

  /// Re-points the cache at the same directory, forcing a disk reload.
  void reload() { SweepCache::instance().configure(dir_); }

  std::string dir_;
};

TEST_F(SweepCacheTest, StoreThenLookupRoundTripsExactly) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  const std::map<std::string, double> values{{"temperature_c", 61.50000321}};
  EXPECT_FALSE(cache.lookup(cell, nullptr));
  cache.store(cell, values);

  std::map<std::string, double> out;
  ASSERT_TRUE(cache.lookup(cell, &out));
  EXPECT_EQ(out, values);

  // And the same after a cold reload from disk: the serialized doubles are
  // shortest-round-trip, so the reloaded value is bit-identical.
  reload();
  out.clear();
  ASSERT_TRUE(cache.lookup(cell, &out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.at("temperature_c"), 61.50000321);
  EXPECT_EQ(cache.stats().loaded, 1u);
}

TEST_F(SweepCacheTest, DuplicateStoresDoNotGrowTheFile) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  cache.store(cell, {{"temperature_c", 61.5}});
  cache.store(cell, {{"temperature_c", 61.5}});
  cache.store(cell, {{"temperature_c", 61.5}});
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.records, 1u);
  EXPECT_EQ(summary.entries, 1u);
}

TEST_F(SweepCacheTest, TruncatedLineIsSkippedAndRecomputed) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig good = htc_cell("low_power", 4, 800.0, {});
  const CellConfig torn = htc_cell("low_power", 4, 1600.0, {});
  cache.store(good, {{"temperature_c", 61.5}});
  cache.store(torn, {{"temperature_c", 49.25}});

  // Emulate a mid-write kill: cut the second record in half.
  std::string content = read_file(file_path());
  const std::size_t first_newline = content.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  content.resize(first_newline + 1 + (content.size() - first_newline) / 2);
  std::ofstream(file_path(), std::ios::trunc) << content;

  reload();
  SweepCache& reloaded = SweepCache::instance();
  EXPECT_EQ(reloaded.stats().loaded, 1u);
  EXPECT_EQ(reloaded.stats().bad_lines, 1u);
  EXPECT_TRUE(reloaded.lookup(good, nullptr));
  // The torn cell misses -> the runner would recompute and re-store it.
  EXPECT_FALSE(reloaded.lookup(torn, nullptr));
  reloaded.store(torn, {{"temperature_c", 49.25}});
  reload();
  EXPECT_TRUE(SweepCache::instance().lookup(torn, nullptr));
}

TEST_F(SweepCacheTest, EditedCellTextFailsTheIntegrityCheck) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  cache.store(cell, {{"temperature_c", 61.5}});

  // Tamper with the cell text while keeping the stored hash: the recomputed
  // hash no longer matches, so the record must be treated as corrupt.
  std::string content = read_file(file_path());
  const std::size_t pos = content.find("chips=4");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 7, "chips=5");
  std::ofstream(file_path(), std::ios::trunc) << content;

  reload();
  EXPECT_EQ(SweepCache::instance().stats().loaded, 0u);
  EXPECT_EQ(SweepCache::instance().stats().bad_lines, 1u);
  EXPECT_FALSE(SweepCache::instance().lookup(cell, nullptr));
}

TEST_F(SweepCacheTest, GarbageLinesAreCountedNotTrusted) {
  {
    std::ofstream out(file_path(), std::ios::trunc);
    out << "this is not json\n"
        << "{\"kind\": \"something_else\", \"x\": 1}\n"
        << "{\"kind\": \"sweep_cache\"}\n"  // missing salt/hash/cell
        << "[1,2,3]\n";
  }
  reload();
  EXPECT_EQ(SweepCache::instance().stats().loaded, 0u);
  EXPECT_EQ(SweepCache::instance().stats().bad_lines, 4u);
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.entries, 0u);
  EXPECT_EQ(summary.bad_lines, 4u);
}

// A line of 1 MiB of '[' (a hostile or garbled disk line) is one more
// corrupt line: the loader skips and counts it, and the valid records
// around it still load.
TEST_F(SweepCacheTest, DeeplyNestedLineIsSkippedAsCorrupt) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig before = htc_cell("low_power", 4, 800.0, {});
  const CellConfig after = htc_cell("low_power", 4, 1600.0, {});
  cache.store(before, {{"temperature_c", 61.5}});
  std::ofstream(file_path(), std::ios::app)
      << std::string(std::size_t{1} << 20, '[') << "\n";
  reload();
  SweepCache::instance().store(after, {{"temperature_c", 49.25}});
  reload();
  SweepCache& reloaded = SweepCache::instance();
  EXPECT_EQ(reloaded.stats().loaded, 2u);
  EXPECT_EQ(reloaded.stats().bad_lines, 1u);
  EXPECT_TRUE(reloaded.lookup(before, nullptr));
  EXPECT_TRUE(reloaded.lookup(after, nullptr));
  EXPECT_EQ(inspect_cache_file(file_path()).bad_lines, 1u);
}

TEST_F(SweepCacheTest, StaleSaltYieldsZeroHits) {
  SweepCache& cache = SweepCache::instance();
  const CellConfig a = htc_cell("low_power", 4, 800.0, {});
  const CellConfig b = htc_cell("low_power", 4, 1600.0, {});
  cache.store(a, {{"temperature_c", 61.5}});
  cache.store(b, {{"temperature_c", 49.25}});

  // Rewrite the file as if it came from a previous schema version.
  std::string content = read_file(file_path());
  std::string stale;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = content.find(kCellKeySalt, pos);
    if (hit == std::string::npos) {
      stale += content.substr(pos);
      break;
    }
    stale += content.substr(pos, hit - pos);
    stale += "aqua-sweep-v0";
    pos = hit + kCellKeySalt.size();
  }
  std::ofstream(file_path(), std::ios::trunc) << stale;

  reload();
  const SweepCache::Stats stats = SweepCache::instance().stats();
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.stale_salt, 2u);
  EXPECT_FALSE(SweepCache::instance().lookup(a, nullptr));
  EXPECT_FALSE(SweepCache::instance().lookup(b, nullptr));
  EXPECT_EQ(SweepCache::instance().stats().hits, 0u);

  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.entries, 0u);
  EXPECT_EQ(summary.stale_salt, 2u);
}

TEST_F(SweepCacheTest, PoisonedCellIsNeverWrittenToTheCache) {
  const std::string cell = "chip=low_power;chips=4;htc=800.000000";
  ScopedEnv poison(sweep::kPoisonEnv, "cache_poison:" + cell);

  SweepRunner runner("cache_poison");
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  bool computed = false;
  const CellSource src = runner.run(
      config, cell, {},
      [&] {
        computed = true;
        return std::map<std::string, double>{{"temperature_c", 61.5}};
      },
      [](const std::map<std::string, double>&) {});
  EXPECT_EQ(src, CellSource::kFailed);
  EXPECT_FALSE(computed);

  // No record on disk and a counted deliberate skip.
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.records, 0u);
  EXPECT_GE(SweepCache::instance().stats().skips, 1u);

  // A poisoned cell must also never be *served* from a warm cache: store
  // the value (as an unpoisoned sweep would have) and re-run — poison
  // still outranks the cache.
  SweepCache::instance().store(config, {{"temperature_c", 61.5}});
  SweepRunner again("cache_poison");
  EXPECT_EQ(again.run(config, cell, {}, [] {
    return std::map<std::string, double>{{"temperature_c", 61.5}};
  }, [](const std::map<std::string, double>&) {}), CellSource::kFailed);
}

TEST_F(SweepCacheTest, UncacheablePolicySkipsPersistence) {
  const std::string journal = dir_ + "/journal.jsonl";
  ScopedEnv resume(sweep::kResumeEnv, journal);
  SweepRunner runner("cache_degraded");
  const CellConfig config = npb_des_cell(6, 4, "ft", 1.6e9, 1000, 1, true);
  CellPolicy policy;
  policy.cacheable = false;  // fault-degraded: the plan is not in the key
  const CellSource src = runner.run(
      config, "bench=ft;cooling=water", policy,
      [] { return std::map<std::string, double>{{"seconds", 1.25}}; },
      [](const std::map<std::string, double>&) {});
  EXPECT_EQ(src, CellSource::kComputed);
  EXPECT_EQ(inspect_cache_file(file_path()).records, 0u);
  EXPECT_EQ(inspect_cache_file(journal).records, 0u);
  EXPECT_GE(SweepCache::instance().stats().skips, 1u);

  // The in-process memo still dedupes the identical slot.
  EXPECT_EQ(runner.run(config, "bench=ft;cooling=fluorinert", policy,
                       [] {
                         return std::map<std::string, double>{{"seconds", 9.0}};
                       },
                       [](const std::map<std::string, double>&) {}),
            CellSource::kMemo);
}

TEST_F(SweepCacheTest, FailedComputeIsNeverCached) {
  SweepRunner runner("cache_failed");
  const CellConfig config = htc_cell("low_power", 4, 800.0, {});
  const CellSource src = runner.run(
      config, "chip=low_power;chips=4;htc=800.000000", {},
      []() -> std::map<std::string, double> {
        throw std::runtime_error("solver blew up");
      },
      [](const std::map<std::string, double>&) {});
  EXPECT_EQ(src, CellSource::kFailed);
  EXPECT_EQ(inspect_cache_file(file_path()).records, 0u);
  EXPECT_FALSE(SweepCache::instance().lookup(config, nullptr));
}

TEST_F(SweepCacheTest, DisabledCacheIsInert) {
  SweepCache::instance().configure("");
  const CellConfig cell = htc_cell("low_power", 4, 800.0, {});
  EXPECT_FALSE(SweepCache::instance().enabled());
  EXPECT_FALSE(SweepCache::instance().lookup(cell, nullptr));
  SweepCache::instance().store(cell, {{"temperature_c", 61.5}});
  EXPECT_FALSE(SweepCache::instance().lookup(cell, nullptr));
  // No counters move while disabled.
  EXPECT_EQ(SweepCache::instance().stats().hits, 0u);
  EXPECT_EQ(SweepCache::instance().stats().misses, 0u);
  EXPECT_EQ(SweepCache::instance().stats().stores, 0u);
}

TEST_F(SweepCacheTest, InspectMissingFileIsZeroSummary) {
  const CacheFileSummary summary =
      inspect_cache_file(dir_ + "/does_not_exist.jsonl");
  EXPECT_EQ(summary.entries, 0u);
  EXPECT_EQ(summary.records, 0u);
  EXPECT_EQ(summary.bad_lines, 0u);
}

TEST_F(SweepCacheTest, PerSweepBreakdownSeparatesFamilies) {
  SweepCache& cache = SweepCache::instance();
  cache.store(htc_cell("low_power", 4, 800.0, {}), {{"temperature_c", 61.5}});
  cache.store(freq_cap_cell("low_power", 4, "water", 80.0, {}),
              {{"feasible", 1.0}, {"ghz", 2.0}});
  cache.store(npb_des_cell(6, 4, "ft", 1.6e9, 1000, 1, false),
              {{"seconds", 1.25}});
  const CacheFileSummary summary = inspect_cache_file(file_path());
  EXPECT_EQ(summary.per_sweep.at("htc"), 1u);
  EXPECT_EQ(summary.per_sweep.at("freq_cap"), 1u);
  EXPECT_EQ(summary.per_sweep.at("npb_des"), 1u);
}

// ------------------------------------------------------------- journal --
// A resume journal is the same store, keyed by the canonical cell like the
// cache; SweepRunner opens it on AQUA_SWEEP_RESUME.

std::string temp_journal_path(const char* tag) {
  return std::string(::testing::TempDir()) + "/aqua_journal_" + tag + ".jsonl";
}

/// A journal opened the way SweepRunner opens one.
std::unique_ptr<SweepCache> journal_from_env() {
  auto journal = std::make_unique<SweepCache>();
  journal->open(resume_path_from_env());
  return journal;
}

bool poisoned(const std::string& sweep, const std::string& cell) {
  const std::vector<std::string> cells = poisoned_cells_from_env(sweep);
  return std::find(cells.begin(), cells.end(), cell) != cells.end();
}

TEST(SweepJournal, InactiveWithoutEnv) {
  ::unsetenv(kResumeEnv);
  ::unsetenv(kPoisonEnv);
  const auto journal = journal_from_env();
  EXPECT_FALSE(journal->enabled());
  EXPECT_FALSE(journal->lookup("chips=1;cooling=air", nullptr));
  EXPECT_FALSE(poisoned("fig07", "chips=1;cooling=air"));
  // Recording without a journal path is a no-op, not an error.
  journal->store("chips=1;cooling=air", {{"ghz", 2.0}});
}

TEST(SweepJournal, RoundTripServesOkCells) {
  const std::string path = temp_journal_path("roundtrip");
  std::remove(path.c_str());
  ScopedEnv env(kResumeEnv, path);
  {
    const auto writer = journal_from_env();
    ASSERT_TRUE(writer->enabled());
    writer->store("chips=1;cooling=air", {{"ghz", 2.0}, {"feasible", 1.0}});
    writer->store("chips=2;cooling=water", {{"ghz", 3.25}});
    writer->store_failed("chips=3;cooling=air", "poisoned for test");
  }
  const auto reader = journal_from_env();
  std::map<std::string, double> cell;
  ASSERT_TRUE(reader->lookup("chips=1;cooling=air", &cell));
  EXPECT_DOUBLE_EQ(cell.at("ghz"), 2.0);
  EXPECT_DOUBLE_EQ(cell.at("feasible"), 1.0);
  std::map<std::string, double> other;
  ASSERT_TRUE(reader->lookup("chips=2;cooling=water", &other));
  EXPECT_DOUBLE_EQ(other.at("ghz"), 3.25);
  // Failed cells retry, they are never served.
  EXPECT_FALSE(reader->lookup("chips=3;cooling=air", nullptr));
  EXPECT_EQ(reader->stats().loaded, 2u);
  std::remove(path.c_str());
}

TEST(SweepJournal, FreqCapRecordJournaledByOneSweepServesAnother) {
  ::unsetenv(kPoisonEnv);
  SweepCache::instance().configure("");
  const std::string path = temp_journal_path("cross");
  std::remove(path.c_str());
  ScopedEnv env(kResumeEnv, path);
  const CellConfig cap = freq_cap_cell("low_power_cmp", 6, "water", 80.0, {});
  const std::map<std::string, double> values{{"feasible", 1.0},
                                             {"ghz", 2.0}};
  {
    SweepRunner fig07("freq_vs_chips");
    EXPECT_EQ(fig07.run(cap, "chip=low_power_cmp;chips=6;cooling=water", {},
                        [&] { return values; },
                        [](const std::map<std::string, double>&) {}),
              CellSource::kComputed);
  }
  // The NPB sweep needs the identical cap cell under its own label.
  SweepRunner npb("npb");
  std::map<std::string, double> served;
  EXPECT_EQ(npb.run(cap, "cap;chip=low_power_cmp;chips=6;cooling=water", {},
                    []() -> std::map<std::string, double> {
                      throw std::runtime_error("must not recompute");
                    },
                    [&](const std::map<std::string, double>& v) {
                      served = v;
                    }),
            CellSource::kJournal);
  EXPECT_EQ(served, values);
  std::remove(path.c_str());
}

TEST(SweepJournal, PoisonSpecTargetsSweepAndCell) {
  ScopedEnv env(kPoisonEnv,
                "fig07:chips=2;cooling=water,npb:chips=1;bench=cg");
  EXPECT_TRUE(poisoned("fig07", "chips=2;cooling=water"));
  EXPECT_FALSE(poisoned("fig07", "chips=1;bench=cg"));
  EXPECT_FALSE(poisoned("fig07", "chips=3;cooling=water"));
  EXPECT_TRUE(poisoned("npb", "chips=1;bench=cg"));
  EXPECT_FALSE(poisoned("npb", "chips=2;cooling=water"));
}

/// Runs `cell` through `runner`; `value` < 0 means the cell must not
/// compute (it has to come from the journal).
CellSource run_cell(SweepRunner& runner, double htc, const std::string& cell,
                    double value) {
  return runner.run(
      htc_cell("low_power", 4, htc, {}), cell, {},
      [value]() -> std::map<std::string, double> {
        if (value < 0.0) throw std::runtime_error("must not recompute");
        return {{"value", value}};
      },
      [](const std::map<std::string, double>&) {});
}

// A journal record whose cell text was edited after the write keeps its old
// hash: the resume must count it as bad, serve it under neither the old nor
// the edited cell, and recompute.
TEST(SweepJournal, EditedLabelFailsTheHashCheckAndRecomputes) {
  ::unsetenv(kPoisonEnv);
  SweepCache::instance().configure("");
  const std::string path = temp_journal_path("edited_label");
  std::remove(path.c_str());
  ScopedEnv env(kResumeEnv, path);
  {
    SweepRunner first("edited");
    EXPECT_EQ(run_cell(first, 800.0, "cell-a", 1.0), CellSource::kComputed);
  }
  std::string content = read_file(path);
  const std::size_t pos = content.find("chips=4");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 7, "chips=5");
  std::ofstream(path, std::ios::trunc) << content;

  SweepRunner resumed("edited");
  EXPECT_EQ(run_cell(resumed, 800.0, "cell-a", 1.0), CellSource::kComputed);
  EXPECT_EQ(resumed.run(htc_cell("low_power", 5, 800.0, {}), "cell-z", {},
                        [] { return std::map<std::string, double>{
                                 {"value", 1.0}}; },
                        [](const std::map<std::string, double>&) {}),
            CellSource::kComputed);
  EXPECT_EQ(inspect_cache_file(path).bad_lines, 1u);
  std::remove(path.c_str());
}

// A kill in the middle of an append leaves half a line at the tail. The
// resume must serve the intact cells, count the torn line, and start the
// next record on a line of its own.
TEST(SweepJournal, TornTailResumesIntactCellsAndAppendsOnAFreshLine) {
  ::unsetenv(kPoisonEnv);
  SweepCache::instance().configure("");
  const std::string path = temp_journal_path("torn_tail");
  std::remove(path.c_str());
  ScopedEnv env(kResumeEnv, path);
  {
    SweepRunner first("torn");
    EXPECT_EQ(run_cell(first, 800.0, "cell-a", 1.0), CellSource::kComputed);
    EXPECT_EQ(run_cell(first, 1600.0, "cell-b", 2.0), CellSource::kComputed);
  }
  std::ofstream(path, std::ios::app)
      << R"({"kind": "sweep_cache", "salt": "aqua-sweep-v1", "hash": "01)";

  SweepRunner resumed("torn");
  EXPECT_EQ(run_cell(resumed, 800.0, "cell-a", -1.0), CellSource::kJournal);
  EXPECT_EQ(run_cell(resumed, 1600.0, "cell-b", -1.0), CellSource::kJournal);
  EXPECT_EQ(inspect_cache_file(path).bad_lines, 1u);
  EXPECT_EQ(run_cell(resumed, 2400.0, "cell-c", 3.0), CellSource::kComputed);

  SweepRunner reopened("torn");
  EXPECT_EQ(run_cell(reopened, 2400.0, "cell-c", -1.0), CellSource::kJournal);
  const CacheFileSummary summary = inspect_cache_file(path);
  EXPECT_EQ(summary.records, 3u);
  EXPECT_EQ(summary.bad_lines, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aqua::sweep
