#include "featurize/features.h"

#include <gtest/gtest.h>

#include "corpus/token_index.h"
#include "featurize/buckets.h"
#include "reference/prevalence_reference.h"

namespace unidetect {
namespace {

// ---------------------------------------------------------------------------
// Bucketizers: boundaries are inclusive on the right, per the paper's
// "(0-20], (20-50], ..." notation.

TEST(BucketsTest, RowCountBoundaries) {
  EXPECT_EQ(RowCountBucket(1), 0);
  EXPECT_EQ(RowCountBucket(20), 0);
  EXPECT_EQ(RowCountBucket(21), 1);
  EXPECT_EQ(RowCountBucket(50), 1);
  EXPECT_EQ(RowCountBucket(100), 2);
  EXPECT_EQ(RowCountBucket(500), 3);
  EXPECT_EQ(RowCountBucket(1000), 4);
  EXPECT_EQ(RowCountBucket(1001), 5);
  EXPECT_EQ(RowCountBucket(1000000), 5);
}

TEST(BucketsTest, TokenLengthBoundaries) {
  EXPECT_EQ(TokenLengthBucket(3.0), 0);
  EXPECT_EQ(TokenLengthBucket(5.0), 0);
  EXPECT_EQ(TokenLengthBucket(5.1), 1);
  EXPECT_EQ(TokenLengthBucket(10.0), 1);
  EXPECT_EQ(TokenLengthBucket(15.0), 2);
  EXPECT_EQ(TokenLengthBucket(20.0), 3);
  EXPECT_EQ(TokenLengthBucket(21.0), 4);
}

TEST(BucketsTest, PrevalenceBoundaries) {
  EXPECT_EQ(PrevalenceBucket(0.0), 0);
  EXPECT_EQ(PrevalenceBucket(50.0), 0);
  EXPECT_EQ(PrevalenceBucket(100.0), 1);
  EXPECT_EQ(PrevalenceBucket(1000.0), 2);
  EXPECT_EQ(PrevalenceBucket(10000.0), 3);
  EXPECT_EQ(PrevalenceBucket(100000.0), 4);
  EXPECT_EQ(PrevalenceBucket(100001.0), 5);
}

TEST(BucketsTest, LeftnessCapped) {
  EXPECT_EQ(LeftnessBucket(0), 0);
  EXPECT_EQ(LeftnessBucket(2), 2);
  EXPECT_EQ(LeftnessBucket(3), 3);
  EXPECT_EQ(LeftnessBucket(99), 3);
}

// ---------------------------------------------------------------------------
// Feature keys.

TEST(FeaturesTest, ClassesNeverCollide) {
  // Even with featurization disabled, different error classes get
  // different keys (the class tag lives in the low bits).
  FeaturizeOptions off;
  off.enabled = false;
  Column col("c", {"a", "b", "c"});
  const TokenIndex index;
  const FeatureKey outlier = OutlierFeatures(col, false, off);
  const FeatureKey spelling = SpellingFeatures(col, 0, off);
  const uint8_t prevalence =
      PrevalenceBucket(PrevalenceReference(index).AveragePrevalence(col));
  const FeatureKey uniqueness = UniquenessFeatures(col, 0, prevalence, off);
  const FeatureKey fd = FdFeatures(col, col, prevalence, off);
  EXPECT_FALSE(outlier == spelling);
  EXPECT_FALSE(spelling == uniqueness);
  EXPECT_FALSE(uniqueness == fd);
  EXPECT_FALSE(outlier == fd);
}

TEST(FeaturesTest, DisabledFeaturizationCollapsesSubsets) {
  FeaturizeOptions off;
  off.enabled = false;
  Column ints("c", {"1", "2", "3"});
  Column strings("c", {"a", "b", "c"});
  // The log-fit bit is ignored too.
  EXPECT_TRUE(OutlierFeatures(ints, true, off) ==
              OutlierFeatures(strings, false, off));
}

TEST(FeaturesTest, TypeSeparatesSubsets) {
  FeaturizeOptions on;
  Column ints("c", {"1", "2", "3"});
  Column floats("c", {"1.5", "2.5", "3.5"});
  EXPECT_FALSE(OutlierFeatures(ints, false, on) ==
               OutlierFeatures(floats, false, on));
}

TEST(FeaturesTest, RowBucketSeparatesSubsets) {
  FeaturizeOptions on;
  std::vector<std::string> small(10, "1");
  std::vector<std::string> large(200, "1");
  for (size_t i = 0; i < small.size(); ++i) small[i] = std::to_string(i);
  for (size_t i = 0; i < large.size(); ++i) large[i] = std::to_string(i);
  Column a("c", small);
  Column b("c", large);
  EXPECT_FALSE(OutlierFeatures(a, false, on) ==
               OutlierFeatures(b, false, on));
}

TEST(FeaturesTest, LeftnessAffectsUniquenessKey) {
  FeaturizeOptions on;
  const TokenIndex index;
  Column col("c", {"a", "b", "c"});
  const uint8_t prevalence =
      PrevalenceBucket(PrevalenceReference(index).AveragePrevalence(col));
  EXPECT_FALSE(UniquenessFeatures(col, 0, prevalence, on) ==
               UniquenessFeatures(col, 1, prevalence, on));
  // ...but positions past the cap collapse.
  EXPECT_TRUE(UniquenessFeatures(col, 3, prevalence, on) ==
              UniquenessFeatures(col, 7, prevalence, on));
}

TEST(FeaturesTest, FdKeyUsesBothColumnTypes) {
  FeaturizeOptions on;
  const TokenIndex index;
  const PrevalenceReference prevalence(index);
  Column s("c", {"a", "b", "c"});
  Column n("c", {"1", "2", "3"});
  EXPECT_FALSE(
      FdFeatures(s, n, PrevalenceBucket(prevalence.AveragePrevalence(n)), on) ==
      FdFeatures(n, s, PrevalenceBucket(prevalence.AveragePrevalence(s)), on));
}

TEST(FeaturesTest, HashSpreadsKeys) {
  FeatureKeyHash hash;
  EXPECT_NE(hash(FeatureKey{1}), hash(FeatureKey{2}));
  EXPECT_EQ(hash(FeatureKey{42}), hash(FeatureKey{42}));
}

TEST(FeaturesTest, DebugStringMentionsClass) {
  FeaturizeOptions on;
  Column col("c", {"1", "2", "3"});
  const std::string repr =
      FeatureKeyToString(OutlierFeatures(col, false, on));
  EXPECT_NE(repr.find("class=outlier"), std::string::npos);
}

TEST(FeaturesTest, ErrorClassNames) {
  EXPECT_STREQ(ErrorClassToString(ErrorClass::kOutlier), "outlier");
  EXPECT_STREQ(ErrorClassToString(ErrorClass::kSpelling), "spelling");
  EXPECT_STREQ(ErrorClassToString(ErrorClass::kUniqueness), "uniqueness");
  EXPECT_STREQ(ErrorClassToString(ErrorClass::kFd), "fd");
  EXPECT_STREQ(ErrorClassToString(ErrorClass::kPattern), "pattern");
}

}  // namespace
}  // namespace unidetect
