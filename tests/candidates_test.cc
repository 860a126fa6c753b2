#include "learn/candidates.h"

#include <gtest/gtest.h>

namespace unidetect {
namespace {

ModelOptions TestOptions() {
  ModelOptions options;
  options.min_column_rows = 4;
  return options;
}

TEST(OutlierCandidateTest, FindsTheExtremeValue) {
  Column col("c", {"10", "11", "12", "10.5", "11.5", "9000"});
  const OutlierCandidate cand = ExtractOutlierCandidate(col, TestOptions());
  ASSERT_TRUE(cand.valid);
  EXPECT_EQ(col.NumericRows()[cand.index], 5u);
  EXPECT_DOUBLE_EQ(cand.value, 9000.0);
  EXPECT_GT(cand.theta1, cand.theta2);  // removal cleans the column
}

TEST(OutlierCandidateTest, RejectsNonNumericAndTiny) {
  EXPECT_FALSE(
      ExtractOutlierCandidate(Column("c", {"a", "b", "c", "d", "e"}),
                              TestOptions())
          .valid);
  EXPECT_FALSE(
      ExtractOutlierCandidate(Column("c", {"1", "2"}), TestOptions()).valid);
  // Mostly-text columns with a few numbers are not outlier targets.
  EXPECT_FALSE(ExtractOutlierCandidate(
                   Column("c", {"1", "2", "x", "y", "z", "w"}), TestOptions())
                   .valid);
}

TEST(SpellingCandidateTest, ThetasComeFromProfile) {
  Column col("c", {"Chicago", "Chicagoo", "Boston", "Denver", "Seattle"});
  const SpellingCandidate cand = ExtractSpellingCandidate(col, TestOptions());
  ASSERT_TRUE(cand.valid);
  EXPECT_DOUBLE_EQ(cand.theta1, 1.0);
  EXPECT_GT(cand.theta2, cand.theta1);
}

TEST(UniquenessCandidateTest, EpsilonCapsTheDrop) {
  ModelOptions options = TestOptions();
  options.epsilon.min_rows = 1;
  options.epsilon.fraction = 0.0;
  // Three duplicate rows but epsilon = 1: only one may be dropped, and
  // theta2 is the partially-cleaned UR.
  Column col("c", {"a", "a", "a", "b", "c", "d"});
  TokenIndex index;
  const UniquenessCandidate cand =
      ExtractUniquenessCandidate(col, 0, index, options);
  ASSERT_TRUE(cand.valid);
  EXPECT_EQ(cand.dropped_rows.size(), 1u);
  EXPECT_DOUBLE_EQ(cand.theta1, 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(cand.theta2, 4.0 / 5.0);
}

TEST(UniquenessCandidateTest, FullDropReachesOne) {
  ModelOptions options = TestOptions();
  Column col("c", {"a", "a", "b", "c", "d", "e"});
  TokenIndex index;
  const UniquenessCandidate cand =
      ExtractUniquenessCandidate(col, 0, index, options);
  ASSERT_TRUE(cand.valid);
  EXPECT_DOUBLE_EQ(cand.theta2, 1.0);
}

TEST(FdCandidateTest, ViolatingRowsDropped) {
  ModelOptions options = TestOptions();
  Column lhs("k", {"a", "a", "b", "b", "c", "d"});
  Column rhs("v", {"1", "2", "3", "3", "4", "5"});
  const FdCandidate cand =
      ExtractFdCandidate(lhs, rhs, TokenIndex(), options);
  ASSERT_TRUE(cand.valid);
  EXPECT_EQ(cand.violating_groups, 1u);
  EXPECT_EQ(cand.dropped_rows.size(), 1u);
  EXPECT_LT(cand.theta1, 1.0);
  EXPECT_DOUBLE_EQ(cand.theta2, 1.0);
}

TEST(FdCandidateTest, CleanPairHasNoDrops) {
  ModelOptions options = TestOptions();
  Column lhs("k", {"a", "a", "b", "b"});
  Column rhs("v", {"1", "1", "2", "2"});
  const FdCandidate cand =
      ExtractFdCandidate(lhs, rhs, TokenIndex(), options);
  ASSERT_TRUE(cand.valid);
  EXPECT_TRUE(cand.dropped_rows.empty());
  EXPECT_DOUBLE_EQ(cand.theta1, 1.0);
}

TEST(CandidateKeysTest, MatchDirectFeaturization) {
  // The extraction layer must produce exactly the keys the featurizers
  // produce — train/serve consistency.
  ModelOptions options = TestOptions();
  Column col("c", {"10", "11", "12", "13", "900"});
  const OutlierCandidate cand = ExtractOutlierCandidate(col, options);
  ASSERT_TRUE(cand.valid);
  EXPECT_TRUE(cand.key ==
              OutlierFeatures(col, LogTransformFitsBetter(col.NumericValues()),
                              options.featurize));
}

}  // namespace
}  // namespace unidetect
