// FindingsCache unit tests: exact LRU semantics, the byte bound, the
// deterministic eviction order, and fingerprint sensitivity — the
// properties the serving tier's memoization correctness rests on.

#include "serving/findings_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "table/column.h"
#include "table/table.h"

namespace unidetect {
namespace {

Key128 MakeKey(uint64_t n) { return Key128{n, ~n}; }

Table MakeTable(
    const std::string& name,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        columns) {
  Table table(name);
  for (const auto& [column_name, cells] : columns) {
    EXPECT_TRUE(table.AddColumn(Column(column_name, cells)).ok());
  }
  return table;
}

std::vector<Finding> MakeFindings(size_t count, const std::string& tag) {
  std::vector<Finding> findings(count);
  for (size_t i = 0; i < count; ++i) {
    findings[i].table_name = tag;
    findings[i].value = tag + "-value-" + std::to_string(i);
    findings[i].score = 0.25;
    findings[i].rows = {i, i + 1};
  }
  return findings;
}

TEST(FindingsCacheTest, HitReturnsTheInsertedFindings) {
  FindingsCache cache(1 << 20);
  ASSERT_TRUE(cache.enabled());
  const auto findings = MakeFindings(3, "t1");
  cache.Insert(MakeKey(1), findings);

  auto hit = cache.Lookup(MakeKey(1));
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), findings.size());
  for (size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ((*hit)[i].value, findings[i].value);
    EXPECT_EQ((*hit)[i].rows, findings[i].rows);
  }
  EXPECT_FALSE(cache.Lookup(MakeKey(2)).has_value());
  const FindingsCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(FindingsCacheTest, EvictionFollowsRecencyOrder) {
  // Learn the (platform-dependent) cost of one entry, then budget for
  // exactly two: inserting a third must evict precisely the
  // least-recently-used one.
  uint64_t per_entry = 0;
  {
    FindingsCache probe(1 << 20);
    probe.Insert(MakeKey(9), MakeFindings(1, "a"));
    per_entry = probe.stats().resident_bytes;
    ASSERT_GT(per_entry, 0u);
  }
  const uint64_t budget = 2 * per_entry + per_entry / 2;
  FindingsCache cache(budget);
  cache.Insert(MakeKey(1), MakeFindings(1, "a"));
  cache.Insert(MakeKey(2), MakeFindings(1, "b"));
  EXPECT_EQ(cache.stats().entries, 2u);
  // Touch key 1 so key 2 becomes the cold end.
  ASSERT_TRUE(cache.Lookup(MakeKey(1)).has_value());
  cache.Insert(MakeKey(3), MakeFindings(1, "c"));

  EXPECT_TRUE(cache.Lookup(MakeKey(1)).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(2)).has_value());
  EXPECT_TRUE(cache.Lookup(MakeKey(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().resident_bytes, budget);
}

TEST(FindingsCacheTest, OversizedEntryIsNotInserted) {
  FindingsCache cache(256);
  cache.Insert(MakeKey(1), MakeFindings(64, "huge"));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FindingsCacheTest, ClearDropsEntriesKeepsCounters) {
  FindingsCache cache(1 << 20);
  cache.Insert(MakeKey(1), MakeFindings(2, "x"));
  ASSERT_TRUE(cache.Lookup(MakeKey(1)).has_value());
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.Lookup(MakeKey(1)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FindingsCacheTest, DisabledCacheCountsNothing) {
  FindingsCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(MakeKey(1), MakeFindings(1, "x"));
  EXPECT_FALSE(cache.Lookup(MakeKey(1)).has_value());
  const FindingsCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(FingerprintTest, SensitiveToEveryKeyComponent) {
  const std::vector<std::string> prices = {"9.99", "5.00", "1.25"};
  const Table table =
      MakeTable("orders", {{"qty", {"1", "2", "3"}}, {"price", prices}});
  UniDetectOptions options;
  const Key128 base = FingerprintTable(table, 1, options);

  // Generation.
  EXPECT_NE(base, FingerprintTable(table, 2, options));
  // Options that change detection output.
  UniDetectOptions strict = options;
  strict.alpha = options.alpha / 2;
  EXPECT_NE(base, FingerprintTable(table, 1, strict));
  // fdr_q steers only DetectCorpus, never DetectTable, so it is no part
  // of the key.
  UniDetectOptions fdr = options;
  fdr.fdr_q = 0.05;
  EXPECT_EQ(base, FingerprintTable(table, 1, fdr));
  // Table name.
  EXPECT_NE(base, FingerprintTable(
                      MakeTable("orders2", {{"qty", {"1", "2", "3"}},
                                            {"price", prices}}),
                      1, options));
  // Cell content.
  EXPECT_NE(base, FingerprintTable(
                      MakeTable("orders", {{"qty", {"1", "2", "4"}},
                                           {"price", prices}}),
                      1, options));
  // Cell framing: moving a boundary must change the hash even though the
  // concatenated bytes are identical.
  EXPECT_NE(base, FingerprintTable(
                      MakeTable("orders", {{"qty", {"12", "", "3"}},
                                           {"price", prices}}),
                      1, options));
  // And equal inputs fingerprint equally.
  EXPECT_EQ(base, FingerprintTable(
                      MakeTable("orders", {{"qty", {"1", "2", "3"}},
                                           {"price", prices}}),
                      1, options));
}

}  // namespace
}  // namespace unidetect
