// Validation of the server metrics registry (server/metrics.h).
//
// The counter table follows the enum-with-COUNT-sentinel idiom: the
// enum is the source of truth, kServerMetricEntries mirrors it in
// exactly enum order, and these tests fail when the two sides drift —
// an entry added to one side but not the other, a duplicated or
// reordered row, or a duplicated wire name. Keeping the validation in a
// test (rather than trusting review) makes adding a counter a safe
// two-line change.

#include "server/metrics.h"

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace unidetect {
namespace {

// The entry array must be sized by the sentinel — adding an enum value
// without a table row fails here at compile time.
static_assert(kServerMetricEntries.size() ==
                  static_cast<size_t>(ServerMetric::COUNT),
              "kServerMetricEntries must have one row per ServerMetric");

TEST(ServerMetricTableTest, EntriesAreInEnumOrderAndComplete) {
  for (size_t i = 0; i < kServerMetricEntries.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(kServerMetricEntries[i].metric), i)
        << "row " << i << " ('" << kServerMetricEntries[i].name
        << "') is out of enum order — the table must mirror the enum "
           "exactly, with no duplicated or skipped entries";
  }
}

TEST(ServerMetricTableTest, NamesAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const ServerMetricEntry& entry : kServerMetricEntries) {
    EXPECT_FALSE(entry.name.empty());
    EXPECT_TRUE(seen.insert(std::string(entry.name)).second)
        << "duplicate metric name '" << entry.name << "'";
    for (const char c : entry.name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_' || (c >= '0' && c <= '9'))
          << "metric name '" << entry.name
          << "' must be snake_case (it names the /metrics series)";
    }
  }
}

TEST(ServerMetricTableTest, NameLookupMatchesTable) {
  for (const ServerMetricEntry& entry : kServerMetricEntries) {
    EXPECT_EQ(ServerMetricName(entry.metric), entry.name);
  }
}

TEST(MetricsRegistryTest, CountersStartZeroAndAccumulate) {
  MetricsRegistry registry;
  for (const ServerMetricEntry& entry : kServerMetricEntries) {
    EXPECT_EQ(registry.Count(entry.metric), 0u);
  }
  registry.Add(ServerMetric::kRequests);
  registry.Add(ServerMetric::kRequests, 4);
  registry.Add(ServerMetric::kBatchedTables, 100);
  EXPECT_EQ(registry.Count(ServerMetric::kRequests), 5u);
  EXPECT_EQ(registry.Count(ServerMetric::kBatchedTables), 100u);
  EXPECT_EQ(registry.Count(ServerMetric::kBatches), 0u);
}

TEST(MetricsRegistryTest, CountersAreThreadSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.Add(ServerMetric::kRequests);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.Count(ServerMetric::kRequests),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, PercentilesAreUpperBounds) {
  LatencyHistogram histogram;
  // 90 fast samples (~8us bucket), 10 slow (~1024us bucket).
  for (int i = 0; i < 90; ++i) histogram.Observe(7);
  for (int i = 0; i < 10; ++i) histogram.Observe(1000);
  EXPECT_EQ(histogram.count(), 100u);
  const LatencyBuckets buckets = histogram.Snapshot();
  const double p50 =
      LatencyPercentileUpperBound(buckets, histogram.count(), 0.50);
  const double p99 =
      LatencyPercentileUpperBound(buckets, histogram.count(), 0.99);
  EXPECT_LE(p50, 8.0);       // half the samples were ~7us
  EXPECT_GE(p99, 1000.0);    // the tail lives in the 512..1024 bucket
  EXPECT_LE(p99, 1024.0);
}

TEST(LatencyHistogramTest, NegativeSamplesClampToBucketZero) {
  LatencyHistogram histogram;
  histogram.Observe(-5);  // a clock that went backwards must not crash
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_EQ(histogram.Snapshot()[0], 1u);
}

}  // namespace
}  // namespace unidetect
