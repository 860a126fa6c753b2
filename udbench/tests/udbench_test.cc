// Tests of the benchmark's own arithmetic and checks: percentiles, the
// backlog and max_rate_rps rules on synthetic ladders, the Zipf exponent
// that online_churn derives from its repeat share, the output
// checker on a perturbed findings list, and the agreement of the metric
// tables with BENCHMARK.json.

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "bench_stats.h"
#include "metric_names.h"
#include "output_check.h"
#include "trace.h"
#include "util/random.h"

namespace udbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
}

TEST(WindowedP99Test, MedianOfPerWindowP99) {
  // Three windows of 1000 samples; only the middle one holds a burst.
  std::vector<double> v(3000, 1.0);
  for (size_t i = 1000; i < 1100; ++i) v[i] = 40.0;
  EXPECT_EQ(Percentile(v, 0.99), 40.0);
  EXPECT_EQ(WindowedP99(v), 1.0);
  // Fewer samples than a window: the plain p99.
  std::vector<double> small(500, 2.0);
  small[0] = 9.0;
  small[1] = 9.0;
  small[2] = 9.0;
  small[3] = 9.0;
  small[4] = 9.0;
  small[5] = 9.0;
  EXPECT_EQ(WindowedP99(small), Percentile(small, 0.99));
  // The remainder joins the last window: 3999 samples make three
  // windows, the last holding 1999.
  std::vector<double> tail(3999, 1.0);
  for (size_t i = 2000; i < 3999; ++i) tail[i] = 5.0;
  EXPECT_EQ(WindowedP99(tail), 1.0);
  for (size_t i = 1000; i < 2000; ++i) tail[i] = 5.0;
  EXPECT_EQ(WindowedP99(tail), 5.0);
}

TEST(BacklogTest, FlatLatencyIsNotGrowing) {
  std::vector<double> flat(400, 2.0);
  for (size_t i = 0; i < flat.size(); i += 7) flat[i] = 4.5;  // jitter
  EXPECT_FALSE(BacklogGrowing(flat, 5.0));
}

TEST(BacklogTest, RampingLatencyIsGrowing) {
  std::vector<double> ramp;
  for (int i = 0; i < 400; ++i) ramp.push_back(1.0 + 0.05 * i);
  EXPECT_TRUE(BacklogGrowing(ramp, 5.0));
  EXPECT_FALSE(BacklogGrowing({1.0, 100.0}, 5.0));  // too few samples
}

RungResult Rung(double rps, double p99, bool backlog = false,
                uint64_t failed = 0, bool ran = true) {
  RungResult r;
  r.offered_rps = rps;
  r.p99_ms = p99;
  r.backlog_growing = backlog;
  r.failed = failed;
  r.ran = ran;
  return r;
}

TEST(MaxRateTest, AllPassReturnsTopRate) {
  EXPECT_EQ(MaxRateRps({Rung(100, 1), Rung(200, 2), Rung(300, 3)}, 5.0), 300);
}

TEST(MaxRateTest, InterpolatesWhereP99CrossesTheLimit) {
  // 200 rps at 2 ms, 300 rps at 8 ms: the 5 ms limit is crossed halfway.
  EXPECT_DOUBLE_EQ(MaxRateRps({Rung(100, 1), Rung(200, 2), Rung(300, 8)}, 5.0),
                   250.0);
}

TEST(MaxRateTest, FastestPassingStepWins) {
  // A noisy slower step does not hide a faster one that passes.
  EXPECT_EQ(MaxRateRps({Rung(100, 1), Rung(200, 9), Rung(300, 3)}, 5.0), 300);
  EXPECT_EQ(MaxRateRps({Rung(100, 9), Rung(200, 1)}, 5.0), 200);
  EXPECT_EQ(MaxRateRps({Rung(100, 9), Rung(200, 7)}, 5.0), 0);
}

TEST(MaxRateTest, BacklogOrFailuresStopAtLastPassingRate) {
  EXPECT_EQ(MaxRateRps({Rung(100, 1), Rung(200, 3, /*backlog=*/true)}, 5.0),
            100);
  EXPECT_EQ(MaxRateRps({Rung(100, 1), Rung(200, 3, false, /*failed=*/1)}, 5.0),
            100);
  EXPECT_EQ(MaxRateRps({Rung(100, 1), Rung(200, 9, false, 0, /*ran=*/false)},
                       5.0),
            100);
}

TEST(ScheduleTest, JitteredAndDeterministic) {
  const std::vector<double> a = ArrivalSchedule(0.0, 1000.0, 5000, 7);
  EXPECT_EQ(a, ArrivalSchedule(0.0, 1000.0, 5000, 7));
  EXPECT_NE(a, ArrivalSchedule(0.0, 1000.0, 5000, 8));
  EXPECT_NEAR(a.back(), 5.0, 0.1);  // mean rate holds
  double min_gap = 1.0, max_gap = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    min_gap = std::min(min_gap, a[i] - a[i - 1]);
    max_gap = std::max(max_gap, a[i] - a[i - 1]);
  }
  EXPECT_GE(min_gap, 0.0005 - 1e-12);
  EXPECT_LE(max_gap, 0.0015 + 1e-12);
  EXPECT_LT(max_gap - min_gap, 0.001 + 1e-12);
  EXPECT_GT(max_gap - min_gap, 0.0009);  // really jittered
}

TEST(MedianOfMediansTest, IgnoresTheMixOfGroups) {
  // One slow group: its share of the samples does not move the figure.
  const std::vector<double> slow = {9, 9, 9, 9, 9, 9};
  EXPECT_EQ(MedianOfMedians({{1, 2, 3}, {2, 2, 2}, {2, 3, 3}, slow}), 2);
  EXPECT_EQ(MedianOfMedians({{1, 2, 3}, {2}, {3, 2}, {9}}), 2);
  EXPECT_EQ(MedianOfMedians({{}, {4, 5, 6}}), 5);
}

TEST(RepeatShareTest, ExponentReachesTheTargetShare) {
  EXPECT_NEAR(ExpectedRepeatShare(100, 1, 0.8), 0.0, 1e-12);
  // Uniform draws, as many as the pool holds, repeat 1/e of the time.
  EXPECT_NEAR(ExpectedRepeatShare(5000, 5000, 0.0), std::exp(-1.0), 1e-3);
  EXPECT_LT(ExpectedRepeatShare(5000, 5000, 0.5),
            ExpectedRepeatShare(5000, 5000, 1.0));
  const double s = ZipfExponentForRepeatShare(5000, 5000, 0.5);
  EXPECT_NEAR(ExpectedRepeatShare(5000, 5000, s), 0.5, 1e-6);
  // The expectation matches draws from Rng::Zipf itself.
  unidetect::Rng rng(11);
  double measured = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<char> seen(5000, 0);
    size_t repeats = 0;
    for (int i = 0; i < 5000; ++i) {
      const uint64_t k = rng.Zipf(5000, s);
      repeats += seen[k];
      seen[k] = 1;
    }
    measured += static_cast<double>(repeats) / 5000.0 / 20.0;
  }
  EXPECT_NEAR(measured, 0.5, 0.01);
}

PerTable SampleFindings() {
  unidetect::Finding f;
  f.error_class = unidetect::ErrorClass::kSpelling;
  f.table_name = "t";
  f.column = 1;
  f.rows = {3, 4};
  f.value = "Dowling";
  f.score = 0.01;
  f.explanation = "MPD 1 -> 3";
  unidetect::Finding g = f;
  g.error_class = unidetect::ErrorClass::kOutlier;
  g.rows = {7};
  g.score = 0.02;
  return {{f, g}};
}

unidetect::wire::DetectResponse Served(PerTable per_table, uint64_t gen) {
  unidetect::wire::DetectResponse r;
  r.generation = gen;
  r.per_table = std::move(per_table);
  return r;
}

TEST(OutputCheckTest, AcceptsIdenticalFindings) {
  const std::string ref = FindingsBytes(SampleFindings());
  EXPECT_EQ(CheckResponse(Served(SampleFindings(), 5), ref, 5, 5), "");
  EXPECT_EQ(CheckResponse(Served(SampleFindings(), 6), ref, 5, 7), "");
}

TEST(OutputCheckTest, RejectsPerturbedFindings) {
  const std::string ref = FindingsBytes(SampleFindings());
  PerTable score = SampleFindings();
  score[0][1].score = 0.0200001;
  EXPECT_NE(CheckResponse(Served(score, 5), ref, 5, 5), "");
  PerTable order = SampleFindings();
  std::swap(order[0][0], order[0][1]);
  EXPECT_NE(CheckResponse(Served(order, 5), ref, 5, 5), "");
  PerTable dropped = SampleFindings();
  dropped[0].pop_back();
  EXPECT_NE(CheckResponse(Served(dropped, 5), ref, 5, 5), "");
  PerTable rows = SampleFindings();
  rows[0][0].rows = {3};
  EXPECT_NE(CheckResponse(Served(rows, 5), ref, 5, 5), "");
}

TEST(OutputCheckTest, RejectsWrongGenerationAndErrors) {
  const std::string ref = FindingsBytes(SampleFindings());
  EXPECT_NE(CheckResponse(Served(SampleFindings(), 4), ref, 5, 6), "");
  EXPECT_NE(CheckResponse(Served(SampleFindings(), 7), ref, 5, 6), "");
  auto refused = Served(SampleFindings(), 5);
  refused.code = unidetect::wire::WireCode::kOverloaded;
  EXPECT_NE(CheckResponse(refused, ref, 5, 5), "");
}

TEST(TraceTest, SelfTimeSubtractsChildCoverage) {
  const Clock::time_point t0{};
  auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  Span parent{"p", at(0), at(100), -1, 0};
  // Children [10, 30) and [20, 50) overlap: together they cover 40 us.
  EXPECT_DOUBLE_EQ(SelfMicros(parent, {{at(10), at(30)}, {at(20), at(50)}}),
                   60.0);
  Tracer tracer(true);
  const int64_t p = tracer.Record("parent", at(0), at(100));
  tracer.Record("child", at(10), at(40), p);
  const auto totals = tracer.Totals();
  EXPECT_DOUBLE_EQ(totals.at("parent").self_us, 70.0);
  EXPECT_DOUBLE_EQ(totals.at("child").self_us, 30.0);
  Tracer off(false);
  EXPECT_EQ(off.Record("x", at(0), at(1)), -1);
  EXPECT_EQ(off.size(), 0u);
}

// Every "name" of one BENCHMARK.json section, with its unit and direction.
std::set<std::string> Section(const std::string& json, const std::string& key) {
  const size_t begin = json.find("\"" + key + "\"");
  EXPECT_NE(begin, std::string::npos) << key;
  const size_t end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  std::set<std::string> out;
  const std::regex entry(
      "\"name\"\\s*:\\s*\"([^\"]+)\"\\s*,\\s*\"unit\"\\s*:\\s*\"([^\"]+)\"\\s*,"
      "\\s*\"better\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.insert((*it)[1].str() + "|" + (*it)[2].str() + "|" + (*it)[3].str());
  }
  return out;
}

template <typename Table>
std::set<std::string> Names(const Table& table) {
  std::set<std::string> out;
  for (const MetricDef& def : table) {
    out.insert(std::string(def.name) + "|" + std::string(def.unit) + "|" +
               std::string(def.better));
  }
  return out;
}

TEST(MetricNamesTest, MatchBenchmarkJson) {
  std::ifstream in(UDBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << UDBENCH_BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_EQ(Section(json, "end_to_end"), Names(kEndToEndMetrics));
  EXPECT_EQ(Section(json, "per_layer"), Names(kPerLayerMetrics));
  EXPECT_EQ(Names(kEndToEndMetrics).size(), kEndToEndMetrics.size());
  EXPECT_EQ(Names(kPerLayerMetrics).size(), kPerLayerMetrics.size());
}

}  // namespace
}  // namespace udbench
