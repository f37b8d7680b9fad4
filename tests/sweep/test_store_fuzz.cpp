/// Seeded mutation test over the sweep cell store's one loader (DESIGN.md
/// §9). Valid content-cache and resume-journal lines are truncated at every
/// offset, bit-flipped, nested a megabyte deep, given duplicate keys,
/// non-finite numbers and invalid UTF-8. Every load must return, and every
/// mutated line must either load with a hash that matches its key or be
/// counted as a bad line or a stale-salt record.

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "obs/trace_reader.hpp"
#include "sweep/cache.hpp"
#include "sweep/cell_key.hpp"
#include "sweep/cells.hpp"

namespace aqua::sweep {
namespace {

class StoreFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/aqua_store_fuzz_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    seeds_ = seed_lines();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// One valid line of each record shape: a cache record, an ok journal
  /// record and a failed journal record, as the stores write them.
  [[nodiscard]] std::vector<std::string> seed_lines() const {
    const std::string path = dir_ + "/seed.jsonl";
    {
      SweepCache cache;
      cache.open(path);
      cache.store(htc_cell("low_power", 4, 800.0, {}),
                  {{"temperature_c", 61.5}, {"watts", 12.25}});
      SweepCache journal;
      journal.open(path);
      journal.store("chips=2;cooling=water", {{"ghz", 2.3}});
      journal.store_failed("chips=3;cooling=air", "poisoned");
    }
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

  /// Loads `content` as a store file through inspection and through a
  /// cache and a journal instance, and checks the loader's accounting.
  void expect_accounted(const std::string& content) {
    const std::string path = dir_ + "/mutant.jsonl";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(content.data(), static_cast<std::streamsize>(content.size()));
    }
    std::vector<std::string> lines;
    std::istringstream split(content);
    for (std::string line; std::getline(split, line);) {
      if (!line.empty()) lines.push_back(line);
    }
    CacheFileSummary summary;
    ASSERT_NO_THROW(summary = inspect_cache_file(path)) << content;
    ASSERT_EQ(summary.records + summary.bad_lines + summary.stale_salt,
              lines.size())
        << content;
    if (lines.size() == 1 && summary.records == 1) {
      expect_hash_matches(lines.front());
    }
    SweepCache cache;
    ASSERT_NO_THROW(cache.open(path)) << content;
    SweepCache journal;
    ASSERT_NO_THROW(journal.open(path)) << content;
    ++loads_;
  }

  /// Independent check of a loaded line: its stored hash reproduces from
  /// salt, [sweep,] and cell.
  static void expect_hash_matches(const std::string& line) {
    const obs::JsonValue doc = obs::parse_json(line);
    const std::string_view sep("\x1f", 1);
    std::uint64_t h = fnv1a64(sep, fnv1a64(doc.find("salt")->string));
    if (const obs::JsonValue* sweep = doc.find("sweep"); sweep != nullptr) {
      h = fnv1a64(sep, fnv1a64(sweep->string, h));
    }
    h = fnv1a64(doc.find("cell")->string, h);
    EXPECT_EQ(doc.find("hash")->string, to_hex16(h)) << line;
  }

  std::string dir_;
  std::vector<std::string> seeds_;
  std::size_t loads_ = 0;
};

TEST_F(StoreFuzzTest, SeedLinesLoad) {
  ASSERT_EQ(seeds_.size(), 3u);
  for (const std::string& line : seeds_) {
    expect_accounted(line + "\n");
    EXPECT_EQ(inspect_cache_file(dir_ + "/mutant.jsonl").records, 1u);
  }
}

TEST_F(StoreFuzzTest, TruncationAtEveryOffset) {
  for (const std::string& line : seeds_) {
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
      expect_accounted(line.substr(0, cut));
      // The torn line followed by an intact one, as after a kill.
      expect_accounted(line.substr(0, cut) + "\n" + line + "\n");
    }
  }
  EXPECT_GT(loads_, 1000u);
}

TEST_F(StoreFuzzTest, SeededByteFlips) {
  Xoshiro256 rng(0x5eed);
  for (int i = 0; i < 3000; ++i) {
    std::string line = seeds_[rng() % seeds_.size()];
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng() % line.size();
      if (rng() % 2 == 0) {
        line[at] = static_cast<char>(line[at] ^ (1 << (rng() % 8)));
      } else {
        line[at] = static_cast<char>(rng() % 256);
      }
    }
    expect_accounted(line + "\n");
  }
}

TEST_F(StoreFuzzTest, MegabyteNesting) {
  const std::string deep(std::size_t{1} << 20, '[');
  expect_accounted(deep + "\n");
  expect_accounted(std::string(std::size_t{1} << 20, '{') + "\n");
  for (const std::string& line : seeds_) {
    // Nesting inside a record, in place of its first member's value.
    const std::size_t colon = line.find(':');
    expect_accounted(line.substr(0, colon + 1) + deep + "\n");
    expect_accounted(line + "\n" + deep + "\n" + line + "\n");
  }
}

TEST_F(StoreFuzzTest, DuplicateKeys) {
  for (const std::string& line : seeds_) {
    for (const std::string dup :
         {R"("cell": "chips=9")", R"("hash": "0000000000000000")",
          R"("salt": "aqua-sweep-v0")", R"("kind": "sweep_cell")",
          R"("sweep": "npb")", R"("status": "ok")",
          R"("v_ghz": 1.0, "v_ghz": 2.0)"}) {
      // The duplicate before and after the original member.
      expect_accounted("{" + dup + ", " + line.substr(1) + "\n");
      expect_accounted(line.substr(0, line.size() - 1) + ", " + dup + "}\n");
    }
  }
}

TEST_F(StoreFuzzTest, NonFiniteAndHugeNumbers) {
  for (const std::string& line : seeds_) {
    for (const char* number : {"1e999", "-1e999", "1e-999", "nan", "inf",
                               "123456789012345678901234567890"}) {
      std::string mutant = line;
      const std::size_t v = mutant.find("\"v_");
      if (v != std::string::npos) {
        const std::size_t value = mutant.find(": ", v) + 2;
        const std::size_t end = mutant.find_first_of(",}", value);
        mutant.replace(value, end - value, number);
        expect_accounted(mutant + "\n");
      }
      std::string in_hash = line;
      const std::size_t hash = in_hash.find("\"hash\": ") + 8;
      in_hash.replace(hash, 18, number);
      expect_accounted(in_hash + "\n");
    }
  }
}

TEST_F(StoreFuzzTest, InvalidUtf8) {
  Xoshiro256 rng(0xbad8);
  const std::vector<std::string> bytes = {"\xff", "\xc0\x80", "\xed\xa0\x80",
                                          "\xf8\x88\x80\x80\x80", "\x80",
                                          std::string(1, '\0')};
  for (const std::string& line : seeds_) {
    for (const std::string& b : bytes) {
      for (int i = 0; i < 40; ++i) {
        std::string mutant = line;
        mutant.insert(rng() % (mutant.size() + 1), b);
        expect_accounted(mutant + "\n");
      }
      // Inside the key the record can never load.
      std::string in_cell = line;
      in_cell.insert(in_cell.find("\"cell\": \"") + 9, b);
      expect_accounted(in_cell + "\n");
      EXPECT_EQ(inspect_cache_file(dir_ + "/mutant.jsonl").records, 0u);
    }
  }
}

}  // namespace
}  // namespace aqua::sweep
