#include "metrics/dispersion.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "reference/dispersion_reference.h"
#include "util/random.h"

namespace unidetect {
namespace {

TEST(DispersionTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({2, 4, 6}), 2.0);  // sample SD, N-1 denominator
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
}

TEST(DispersionTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(DispersionTest, MadMatchesPaperExample3) {
  // C- = {43, 22, 9, 5, 0.76, 0.32, 0.30}: median 5, MAD 4.68.
  const std::vector<double> c_minus = {43, 22, 9, 5, 0.76, 0.32, 0.30};
  EXPECT_DOUBLE_EQ(Median(c_minus), 5.0);
  EXPECT_NEAR(Mad(c_minus), 4.68, 1e-9);
  // C+ = {8011, 8.716, 9954, 11895, 11329, 11352, 11709}: median 11329
  // (note: the paper's prose says 11352, but the sorted middle of these
  // seven values is 11329; MAD below follows the actual median).
  const std::vector<double> c_plus = {8011, 8.716, 9954, 11895,
                                      11329, 11352, 11709};
  EXPECT_DOUBLE_EQ(Median(c_plus), 11329.0);
}

TEST(DispersionTest, ScoreMadMatchesPaperExample4) {
  const std::vector<double> c_minus = {43, 22, 9, 5, 0.76, 0.32, 0.30};
  // (43 - 5) / 4.68 = 8.12.
  EXPECT_NEAR(ScoreMad(43, c_minus), 8.12, 0.01);
}

TEST(DispersionTest, ScoreSd) {
  const std::vector<double> values = {2, 4, 6};
  EXPECT_DOUBLE_EQ(ScoreSd(6, values), 1.0);
  EXPECT_DOUBLE_EQ(ScoreSd(4, values), 0.0);
  // Constant column: no outliers by dispersion.
  EXPECT_DOUBLE_EQ(ScoreSd(99, {5, 5, 5}), 0.0);
}

TEST(DispersionTest, ScoreMadIqrFallback) {
  // MAD = 0 (majority identical) but IQR > 0: the fallback keeps the
  // score finite and nonzero.
  const std::vector<double> values = {5, 5, 5, 5, 5, 1, 2, 3, 9};
  EXPECT_DOUBLE_EQ(Mad(values), 0.0);
  const double score = ScoreMad(9, values);
  EXPECT_GT(score, 0.0);
  EXPECT_TRUE(std::isfinite(score));
  // Fully constant column scores 0.
  EXPECT_DOUBLE_EQ(ScoreMad(9, {5, 5, 5, 5}), 0.0);
}

TEST(DispersionTest, Iqr) {
  EXPECT_DOUBLE_EQ(Iqr({1, 2, 3, 4, 5}), 2.0);
  EXPECT_DOUBLE_EQ(Iqr({7}), 0.0);
}

TEST(DispersionTest, MaxMadFindsTheOutlier) {
  const std::vector<double> values = {10, 11, 12, 10.5, 11.5, 9000};
  const MaxScore result = MaxMadScore(values);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.index, 5u);
  EXPECT_GT(result.score, 100.0);
}

TEST(DispersionTest, MaxScoreInvalidForTinyColumns) {
  EXPECT_FALSE(MaxMadScore({1, 2}).valid);
  EXPECT_FALSE(MaxSdScore({}).valid);
}

// A column of normal draws; the adversarial kind mixes in NaN, the
// infinities, denormals and exact ties around the center.
std::vector<double> RandomColumn(Rng& rng, size_t n, bool adversarial) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng.Normal(50.0, 10.0);
    if (!adversarial) continue;
    switch (rng.NextBounded(10)) {
      case 0:
        v[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        v[i] = std::numeric_limits<double>::infinity();
        break;
      case 2:
        v[i] = -std::numeric_limits<double>::infinity();
        break;
      case 3:
        v[i] = std::numeric_limits<double>::denorm_min();
        break;
      case 4:
        v[i] = (i % 2 == 0) ? 40.0 : 60.0;
        break;
      default:
        break;
    }
  }
  return v;
}

TEST(DispersionTest, MaxScoresMatchReference) {
  // The hoisted single-scan MaxMadScore / MaxSdScore must reproduce the
  // per-element reference scan bit for bit — including NaN inputs,
  // exact ties, zero-dispersion columns, and the IQR fallback.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> columns = {
      {10, 11, 12, 10.5, 11.5, 9000},
      {5, 5, 5, 5, 5, 5, 5, 5, 5},                    // zero MAD and SD
      {5, 5, 5, 5, 5, 1, 2, 3, 9},                    // IQR fallback
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
      {-4, 4, -4, 4, -4, 4, -4, 4, -4},               // exact ties
      {5, -5, 5, -5, 5, -5, 5, -5, 5},                // exact ties
      {nan, 1, 2, 3, 4, 5, 6, 7, 8},                  // NaN leading
      {1, 2, nan, 4, 5, nan, 7, 8, 9, 10, 11, nan},   // NaN interior
      {1, nan, 2, nan, 3, nan, 2, 1, nan},            // NaN interior
      {9, 1, 1, 1, 1, 1, 1, 1, 9},                    // max at both ends
  };
  // Every length from the minimum of 3 to 65, and one long column.
  Rng rng(0xA26);
  for (bool adversarial : {false, true}) {
    for (size_t n = 3; n <= 65; ++n) {
      columns.push_back(RandomColumn(rng, n, adversarial));
    }
    columns.push_back(RandomColumn(rng, 257, adversarial));
  }
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(a)) == 0;
  };
  for (const auto& values : columns) {
    const MaxScore mad_want = MaxMadScoreReference(values);
    const MaxScore sd_want = MaxSdScoreReference(values);
    const MaxScore mad = MaxMadScore(values);
    const MaxScore sd = MaxSdScore(values);
    EXPECT_EQ(mad.valid, mad_want.valid);
    EXPECT_EQ(mad.index, mad_want.index) << "n=" << values.size();
    EXPECT_EQ(sd.valid, sd_want.valid);
    EXPECT_EQ(sd.index, sd_want.index) << "n=" << values.size();
    EXPECT_TRUE(same_bits(mad.score, mad_want.score)) << mad.score;
    EXPECT_TRUE(same_bits(sd.score, sd_want.score)) << sd.score;
  }

  // The scan's rule, checked directly. A NaN score at index 0 wins
  // outright: here the mean and SD are NaN, so every score is.
  const MaxScore nan_seed = MaxSdScore({nan, 1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(nan_seed.index, 0u);
  EXPECT_TRUE(std::isnan(nan_seed.score));
  // Among equal maxima the smallest index wins: indices 1 and 2 both
  // score 5 (median and mean 0, MAD 1).
  const std::vector<double> tie = {1, -5, 5, -1, 0, 0, 0};
  EXPECT_EQ(MaxMadScore(tie).index, 1u);
  EXPECT_EQ(MaxSdScore(tie).index, 1u);
  // The maximum at the last index wins only by strict improvement.
  EXPECT_EQ(MaxSdScore({9, 1, 1, 1, 1, 1, 1, 1, 9}).index, 0u);
}

TEST(DispersionTest, MadScoresNeverNanOnlyWhereNoStatisticOverflows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(MadScoresNeverNan({1, 2, 3, 1e300, -1e300}));
  EXPECT_FALSE(MadScoresNeverNan({1, 2, nan, 4}));
  EXPECT_FALSE(MadScoresNeverNan({1, 2, inf, 4}));
  EXPECT_FALSE(MadScoresNeverNan({-1e308, 1e308, 1, 2}));
  // A finite spread is not enough: the median of an even count adds
  // 1.1e308 and 1.5e308, and the scores come out inf / inf.
  const std::vector<double> high = {1e308, 1.1e308, 1.5e308, 1.6e308};
  EXPECT_FALSE(MadScoresNeverNan(high));
  EXPECT_TRUE(std::isnan(MaxMadScore(high).score));
  // Where it holds, no score is NaN: random columns up to the limit.
  Rng rng(0xF17);
  const double limit = std::numeric_limits<double>::max() / 4;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values(3 + rng.NextBounded(20));
    for (double& v : values) {
      switch (rng.NextBounded(4)) {
        case 0:
          v = limit;
          break;
        case 1:
          v = -limit;
          break;
        case 2:
          v = std::numeric_limits<double>::denorm_min();
          break;
        default:
          v = rng.Normal(0.0, 1e300);
      }
    }
    ASSERT_TRUE(MadScoresNeverNan(values));
    EXPECT_FALSE(std::isnan(MaxMadScore(values).score));
    // Nor over a subset, as theta2's column is.
    values.pop_back();
    EXPECT_FALSE(std::isnan(MaxMadScore(values).score));
  }
}

TEST(DispersionTest, MaxScoresMatchReferenceOnRandomColumns) {
  Rng rng(0xD15B);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 3 + rng.NextBounded(200);
    std::vector<double> values(n);
    for (double& v : values) v = rng.Normal(100.0, 25.0);
    const MaxScore mad_want = MaxMadScoreReference(values);
    const MaxScore sd_want = MaxSdScoreReference(values);
    const MaxScore mad = MaxMadScore(values);
    const MaxScore sd = MaxSdScore(values);
    EXPECT_EQ(mad.index, mad_want.index);
    EXPECT_DOUBLE_EQ(mad.score, mad_want.score);
    EXPECT_EQ(sd.index, sd_want.index);
    EXPECT_DOUBLE_EQ(sd.score, sd_want.score);
  }
}

TEST(DispersionTest, MadGivenTheMedianMatchesTheOneArgumentComposition) {
  // MaxMadScore hands Mad the median it already has. That must equal,
  // bit for bit, the composition Mad used to run itself: the median of
  // the absolute deviations from Median(values).
  auto old_mad = [](const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    const double med = Median(values);
    std::vector<double> deviations;
    for (double v : values) deviations.push_back(std::fabs(v - med));
    return Median(std::move(deviations));
  };
  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(a)) == 0;
  };
  Rng rng(0x3AD);
  std::vector<std::vector<double>> columns = {
      {}, {7}, {5, 5, 5, 5}, {43, 22, 9, 5, 0.76, 0.32, 0.30}};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values(1 + rng.NextBounded(300));
    // Few distinct values at times, so ties and zero MADs occur.
    const bool coarse = rng.NextBounded(2) == 0;
    for (double& v : values) {
      v = coarse ? static_cast<double>(rng.NextBounded(5))
                 : rng.Normal(100.0, 25.0);
    }
    columns.push_back(std::move(values));
  }
  for (const auto& values : columns) {
    const double want = old_mad(values);
    EXPECT_TRUE(same_bits(Mad(values, Median(values)), want)) << want;
    EXPECT_TRUE(same_bits(Mad(values), want)) << want;
  }
}

TEST(DispersionTest, SkewnessSigns) {
  EXPECT_GT(Skewness({1, 1, 1, 1, 100}), 1.0);
  EXPECT_LT(Skewness({-100, 1, 1, 1, 1}), -1.0);
  EXPECT_NEAR(Skewness({1, 2, 3, 4, 5}), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(Skewness({1, 2}), 0.0);     // undefined -> 0
  EXPECT_DOUBLE_EQ(Skewness({3, 3, 3, 3}), 0.0);  // zero variance -> 0
}

TEST(DispersionTest, LogTransformFitsLogNormalNotUniform) {
  std::vector<double> lognormal;
  std::vector<double> uniform;
  for (int i = 1; i <= 200; ++i) {
    lognormal.push_back(std::exp(0.02 * i * i / 200.0 + i * 0.04));
    uniform.push_back(static_cast<double>(i));
  }
  EXPECT_TRUE(LogTransformFitsBetter(lognormal));
  EXPECT_FALSE(LogTransformFitsBetter(uniform));
  // Non-positive values disqualify the transform outright.
  EXPECT_FALSE(LogTransformFitsBetter({-1, 10, 1000, 100000}));
}

}  // namespace
}  // namespace unidetect
