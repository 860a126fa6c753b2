#include "learn/model.h"

#include <gtest/gtest.h>

#include "util/binary_io.h"
#include "util/random.h"

namespace unidetect {
namespace {

FeatureKey KeyFor(ErrorClass c) {
  return FeatureKey{static_cast<uint64_t>(c)};
}

ModelOptions SmallSupportOptions() {
  ModelOptions options;
  options.min_support = 4;
  return options;
}

TEST(EpsilonPolicyTest, MaxOfFloorAndFraction) {
  EpsilonPolicy policy;
  policy.min_rows = 2;
  policy.fraction = 0.02;
  EXPECT_EQ(policy.AllowedRows(10), 2u);
  EXPECT_EQ(policy.AllowedRows(100), 2u);
  EXPECT_EQ(policy.AllowedRows(1000), 20u);
  EXPECT_EQ(policy.AllowedRows(101), 3u);  // ceil(2.02)
}

TEST(DirectionOfTest, PerClass) {
  EXPECT_EQ(DirectionOf(ErrorClass::kOutlier),
            SurpriseDirection::kHigherMoreSurprising);
  EXPECT_EQ(DirectionOf(ErrorClass::kSpelling),
            SurpriseDirection::kLowerMoreSurprising);
  EXPECT_EQ(DirectionOf(ErrorClass::kUniqueness),
            SurpriseDirection::kLowerMoreSurprising);
  EXPECT_EQ(DirectionOf(ErrorClass::kFd),
            SurpriseDirection::kLowerMoreSurprising);
}

TEST(ModelTest, UnmovedPerturbationIsNeverSurprising) {
  Model model(SmallSupportOptions());
  model.Finalize();
  // Outliers: post must be strictly below pre.
  EXPECT_DOUBLE_EQ(
      model.LikelihoodRatio(ErrorClass::kOutlier, KeyFor(ErrorClass::kOutlier),
                            5.0, 5.0),
      1.0);
  EXPECT_DOUBLE_EQ(
      model.LikelihoodRatio(ErrorClass::kOutlier, KeyFor(ErrorClass::kOutlier),
                            5.0, 6.0),
      1.0);
  // Spelling: post must be strictly above pre.
  EXPECT_DOUBLE_EQ(model.LikelihoodRatio(ErrorClass::kSpelling,
                                         KeyFor(ErrorClass::kSpelling), 3.0,
                                         3.0),
                   1.0);
}

TEST(ModelTest, UnknownSubsetYieldsNoEvidence) {
  Model model(SmallSupportOptions());
  model.Finalize();
  EXPECT_DOUBLE_EQ(
      model.LikelihoodRatio(ErrorClass::kOutlier, FeatureKey{12345}, 10.0, 1.0),
      1.0);
}

TEST(ModelTest, MinSupportGatesThinSubsets) {
  ModelOptions options;
  options.min_support = 10;
  Model model(options);
  const FeatureKey key = KeyFor(ErrorClass::kOutlier);
  for (int i = 0; i < 5; ++i) model.AddObservation(key, 2.0, 1.5);
  model.Finalize();
  EXPECT_DOUBLE_EQ(
      model.LikelihoodRatio(ErrorClass::kOutlier, key, 10.0, 1.0), 1.0);
}

TEST(ModelTest, SurprisingTransitionGetsSmallRatio) {
  Model model(SmallSupportOptions());
  const FeatureKey key = KeyFor(ErrorClass::kOutlier);
  // 200 ordinary columns: pre in [5, 6), post in [4, 5), uncorrelated.
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    model.AddObservation(key, rng.Uniform(5.0, 6.0), rng.Uniform(4.0, 5.0));
  }
  model.Finalize();
  // A candidate whose max-MAD collapses from 50 to 2 is highly
  // surprising; one that moves 5.5 -> 4.5 is ordinary.
  const double surprising =
      model.LikelihoodRatio(ErrorClass::kOutlier, key, 50.0, 2.0);
  const double ordinary =
      model.LikelihoodRatio(ErrorClass::kOutlier, key, 5.5, 4.5);
  EXPECT_LT(surprising, 0.05);
  EXPECT_GT(ordinary, 0.15);
  EXPECT_LT(surprising, ordinary);
}

// Theorem 1 (monotonicity): theta1 >= theta1' and theta2 <= theta2'
// implies r(C) <= r(C'), for the smoothed range-based ratio.
class ModelMonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelMonotonicityTest, Theorem1HoldsOnRandomModels) {
  Rng rng(GetParam());
  ModelOptions options;
  options.min_support = 1;
  Model model(options);
  const FeatureKey key = KeyFor(ErrorClass::kOutlier);
  for (int i = 0; i < 400; ++i) {
    const double pre = rng.Uniform(0, 50);
    model.AddObservation(key, pre, rng.Uniform(0, pre));
  }
  model.Finalize();
  for (int trial = 0; trial < 200; ++trial) {
    double theta1 = rng.Uniform(1, 50);
    double theta2 = rng.Uniform(0, theta1);
    double theta1_weaker = theta1 - rng.Uniform(0, theta1 - theta2);
    double theta2_weaker = theta2 + rng.Uniform(0, theta1_weaker - theta2);
    if (theta1_weaker <= theta2_weaker) continue;
    const double strong =
        model.LikelihoodRatio(ErrorClass::kOutlier, key, theta1, theta2);
    const double weak = model.LikelihoodRatio(ErrorClass::kOutlier, key,
                                              theta1_weaker, theta2_weaker);
    EXPECT_LE(strong, weak + 1e-12)
        << "theta1=" << theta1 << " theta2=" << theta2
        << " theta1'=" << theta1_weaker << " theta2'=" << theta2_weaker;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelMonotonicityTest,
                         ::testing::Values(7, 77, 777));

TEST(ModelTest, PointSmoothingModeCounts) {
  ModelOptions options;
  options.min_support = 1;
  options.smoothing = SmoothingMode::kPoint;
  options.point_grid = 0.5;
  Model model(options);
  const FeatureKey key = KeyFor(ErrorClass::kOutlier);
  model.AddObservation(key, 8.0, 3.5);
  model.AddObservation(key, 8.0, 3.5);
  model.AddObservation(key, 3.5, 3.0);
  model.Finalize();
  // Point mode: num = #{(8.0, 3.5)} = 2, den = #{pre == 3.5} = 1.
  const double lr = model.LikelihoodRatio(ErrorClass::kOutlier, key, 8.0, 3.5);
  EXPECT_DOUBLE_EQ(lr, (2.0 + 1.0) / (1.0 + 2.0));
}

TEST(ModelTest, CleanTailDenominatorMode) {
  ModelOptions options;
  options.min_support = 1;
  options.denominator = DenominatorMode::kCleanTail;
  Model model(options);
  const FeatureKey key = KeyFor(ErrorClass::kOutlier);
  model.AddObservation(key, 10.0, 1.0);
  model.AddObservation(key, 2.0, 1.5);
  model.AddObservation(key, 1.0, 0.5);
  model.Finalize();
  // Clean tail for high-direction: den = #{pre <= theta2 = 2.0} = 2.
  const double lr = model.LikelihoodRatio(ErrorClass::kOutlier, key, 9.0, 2.0);
  EXPECT_DOUBLE_EQ(lr, (1.0 + 1.0) / (2.0 + 2.0));
}

TEST(ModelTest, SaveLoadPreservesQueries) {
  ModelOptions options;
  options.min_support = 1;
  Model model(options);
  const FeatureKey key = KeyFor(ErrorClass::kUniqueness);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double pre = rng.Uniform(0.5, 1.0);
    model.AddObservation(key, pre, rng.Uniform(pre, 1.0));
  }
  model.mutable_token_index()->AddTable([] {
    Table table("t");
    EXPECT_TRUE(table.AddColumn(Column("c", {"alpha", "beta"})).ok());
    return table;
  }());
  model.Finalize();

  const std::string path = testing::TempDir() + "/unidetect_model_test.model";
  ASSERT_TRUE(model.Save(path).ok());
  auto loaded = Model::Load(path);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->num_subsets(), model.num_subsets());
  EXPECT_EQ(loaded->num_observations(), model.num_observations());
  EXPECT_EQ(loaded->token_index().TableCount("alpha"), 1u);
  EXPECT_EQ(loaded->options().min_support, options.min_support);
  // Boundary-exact LR agreement (the float round-trip regression test).
  Rng probe(6);
  for (int i = 0; i < 100; ++i) {
    const double theta1 = probe.Uniform(0.5, 1.0);
    const double theta2 = probe.Uniform(theta1, 1.0);
    EXPECT_DOUBLE_EQ(
        model.LikelihoodRatio(ErrorClass::kUniqueness, key, theta1, theta2),
        loaded->LikelihoodRatio(ErrorClass::kUniqueness, key, theta1, theta2));
  }
}

TEST(ModelTest, DeserializeRejectsGarbage) {
  const std::string path = testing::TempDir() + "/unidetect_garbage.model";
  for (const char* garbage :
       {"", "WrongMagic\n", "UniDetectModel v1\nbad\n", "UDSNAP\r"}) {
    ASSERT_TRUE(WriteStringToFile(path, garbage).ok());
    auto result = Model::Load(path);
    ASSERT_FALSE(result.ok()) << garbage;
    EXPECT_TRUE(result.status().IsCorruption()) << result.status();
  }
}

TEST(ModelTest, LoadMissingFileIsIOError) {
  auto result = Model::Load("/nonexistent/dir/model.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

}  // namespace
}  // namespace unidetect
