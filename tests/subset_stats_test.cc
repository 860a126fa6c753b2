#include "learn/subset_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "learn/model.h"
#include "model_format/model_snapshot.h"
#include "reference/subset_stats_reference.h"
#include "util/random.h"

namespace unidetect {
namespace {

SubsetStats MakeStats(std::vector<std::pair<double, double>> pairs) {
  SubsetStats stats;
  for (auto [pre, post] : pairs) stats.Add(pre, post);
  stats.Finalize();
  return stats;
}

TEST(SubsetStatsTest, CountSurprisingHigherDirection) {
  // max-MAD style: suspicious = high pre, clean = low post.
  SubsetStats stats = MakeStats({{10, 2}, {8, 7}, {5, 4}, {12, 1}, {3, 3}});
  EXPECT_EQ(stats.CountSurprising(SurpriseDirection::kHigherMoreSurprising,
                                  /*theta1=*/8, /*theta2=*/2),
            2u);  // (10,2) and (12,1)
  EXPECT_EQ(stats.CountSurprising(SurpriseDirection::kHigherMoreSurprising,
                                  8, 7),
            3u);  // adds (8,7)
  EXPECT_EQ(stats.CountSurprising(SurpriseDirection::kHigherMoreSurprising,
                                  100, 0),
            0u);
}

TEST(SubsetStatsTest, CountSurprisingLowerDirection) {
  // MPD/UR style: suspicious = low pre, clean = high post.
  SubsetStats stats = MakeStats({{1, 9}, {1, 1}, {2, 2}, {3, 9}, {9, 9}});
  EXPECT_EQ(stats.CountSurprising(SurpriseDirection::kLowerMoreSurprising,
                                  /*theta1=*/1, /*theta2=*/9),
            1u);  // only (1,9)
  EXPECT_EQ(stats.CountSurprising(SurpriseDirection::kLowerMoreSurprising,
                                  3, 9),
            2u);  // (1,9) and (3,9)
}

TEST(SubsetStatsTest, TailCountsInclusive) {
  SubsetStats stats = MakeStats({{1, 0}, {2, 0}, {2, 0}, {5, 0}});
  EXPECT_EQ(stats.CountPreSuspiciousTail(
                SurpriseDirection::kHigherMoreSurprising, 2),
            3u);  // pre >= 2
  EXPECT_EQ(stats.CountPreSuspiciousTail(
                SurpriseDirection::kLowerMoreSurprising, 2),
            3u);  // pre <= 2
  EXPECT_EQ(stats.CountPreCleanTail(
                SurpriseDirection::kHigherMoreSurprising, 2),
            3u);  // pre <= 2
  EXPECT_EQ(stats.CountPreCleanTail(
                SurpriseDirection::kLowerMoreSurprising, 2),
            3u);  // pre >= 2
}

TEST(SubsetStatsTest, PointCountsQuantize) {
  SubsetStats stats = MakeStats({{1.02, 2.04}, {1.04, 2.01}, {1.3, 2.0}});
  EXPECT_EQ(stats.CountPointPair(1.0, 2.0, 0.1), 2u);
  EXPECT_EQ(stats.CountPointPre(1.3, 0.1), 1u);
}

TEST(SubsetStatsTest, SmallSubsetsBuildNoTree) {
  // Below kTreeMinSize neither Finalize() nor any snapshot load path
  // materializes the merge-sort tree: tree_owned_ stays unallocated
  // (OwnedBytes counts only the observation arrays) and CountSurprising
  // falls through to the linear scan with identical answers.
  SubsetStats small;
  Rng rng(91);
  for (size_t i = 0; i + 1 < SubsetStats::kTreeMinSize; ++i) {
    const double pre = rng.Uniform(0.0, 10.0);
    small.Add(pre, rng.Uniform(0.0, pre));
  }
  small.Finalize();
  ASSERT_LT(small.size(), SubsetStats::kTreeMinSize);
  EXPECT_EQ(SubsetStats::TreeLevelsFor(small.size()), 0u);
  EXPECT_EQ(small.tree_levels(), 0u);
  EXPECT_TRUE(small.tree_data().empty());
  // The decode paths (exact-capacity arrays) show the missing tree in
  // the byte accounting: observations only, no tree storage.
  auto decoded = SubsetStats::FromSortedArraysWithTree(
      std::vector<float>(small.pres().begin(), small.pres().end()),
      std::vector<float>(small.posts().begin(), small.posts().end()), {});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->OwnedBytes(), 2 * small.size() * sizeof(float));
  for (double theta1 : {0.5, 2.0, 5.0, 9.5}) {
    EXPECT_EQ(small.CountSurprising(SurpriseDirection::kHigherMoreSurprising,
                                    theta1, 1.0),
              CountSurprisingLinear(small,
                                    SurpriseDirection::kHigherMoreSurprising,
                                    theta1, 1.0));
  }

  // One more observation crosses the threshold and the tree appears.
  SubsetStats large;
  Rng rng2(92);
  for (size_t i = 0; i < SubsetStats::kTreeMinSize; ++i) {
    const double pre = rng2.Uniform(0.0, 10.0);
    large.Add(pre, rng2.Uniform(0.0, pre));
  }
  large.Finalize();
  EXPECT_EQ(large.tree_levels(),
            SubsetStats::TreeLevelsFor(SubsetStats::kTreeMinSize));
  EXPECT_GT(large.tree_levels(), 0u);
  EXPECT_EQ(large.tree_data().size(), large.tree_levels() * large.size());
}

TEST(SubsetStatsTest, MergeThenFinalize) {
  SubsetStats a;
  a.Add(1, 2);
  SubsetStats b;
  b.Add(3, 4);
  a.Merge(b);
  a.Finalize();
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.CountPreSuspiciousTail(
                SurpriseDirection::kHigherMoreSurprising, 0),
            2u);
}

TEST(SubsetStatsTest, SerializationRoundTripExact) {
  // Values chosen to be inexact in binary: the snapshot stores the raw
  // f32 bits, so the round trip must preserve boundary equality (a
  // column with UR 10/13 must still compare equal to a queried theta of
  // 10/13 after the model is saved and reloaded).
  ModelOptions options;
  options.min_support = 1;
  Model model(options);
  const FeatureKey key{7};
  model.AddObservation(key, 10.0 / 13.0, 10.0 / 11.0);
  model.AddObservation(key, 20.0 / 21.0, 1.0);
  model.Finalize();
  auto restored_model = DecodeModelSnapshot(EncodeModelSnapshot(model));
  ASSERT_TRUE(restored_model.ok()) << restored_model.status();
  const SubsetStats* stats = model.FindSubset(key);
  const SubsetStats* restored = restored_model->FindSubset(key);
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->size(), 2u);
  EXPECT_EQ(restored->CountSurprising(SurpriseDirection::kLowerMoreSurprising,
                                      10.0 / 13.0, 10.0 / 11.0),
            stats->CountSurprising(SurpriseDirection::kLowerMoreSurprising,
                                   10.0 / 13.0, 10.0 / 11.0));
  EXPECT_EQ(restored->CountPreSuspiciousTail(
                SurpriseDirection::kLowerMoreSurprising, 20.0 / 21.0),
            2u);
}

TEST(SubsetStatsTest, DeserializeRejectsTruncation) {
  // The decode factories take arrays carved from snapshot bytes; a
  // truncated or reordered array is Corruption, never a partial store.
  auto short_posts =
      SubsetStats::FromSortedArraysWithTree({1, 2, 3}, {1, 2}, {});
  ASSERT_FALSE(short_posts.ok());
  EXPECT_TRUE(short_posts.status().IsCorruption());
  auto unsorted = SubsetStats::FromSortedArraysWithTree({3, 1}, {1, 2}, {});
  ASSERT_FALSE(unsorted.ok());
  EXPECT_TRUE(unsorted.status().IsCorruption());
  // A subset at kTreeMinSize must carry its full serialized tree.
  const std::vector<float> sorted(SubsetStats::kTreeMinSize, 1.0f);
  auto short_tree = SubsetStats::FromBorrowedSorted(
      sorted, sorted, std::span<const float>(sorted).first(8),
      /*validate_sorted=*/true);
  ASSERT_FALSE(short_tree.ok());
  EXPECT_TRUE(short_tree.status().IsCorruption());
}

// Property: the numerator is monotone — widening either threshold can
// only add observations (this is the structural fact behind Theorem 1).
class SubsetStatsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubsetStatsPropertyTest, NumeratorMonotone) {
  Rng rng(GetParam());
  SubsetStats stats;
  for (int i = 0; i < 500; ++i) {
    stats.Add(rng.Uniform(0, 100), rng.Uniform(0, 100));
  }
  stats.Finalize();
  for (int trial = 0; trial < 100; ++trial) {
    const double t1 = rng.Uniform(0, 100);
    const double t2 = rng.Uniform(0, 100);
    const double t1_wider = t1 - rng.Uniform(0, 10);   // lower theta1
    const double t2_wider = t2 + rng.Uniform(0, 10);   // higher theta2
    // Higher-surprising direction: num(theta1, theta2) grows when theta1
    // shrinks or theta2 grows.
    EXPECT_LE(stats.CountSurprising(
                  SurpriseDirection::kHigherMoreSurprising, t1, t2),
              stats.CountSurprising(
                  SurpriseDirection::kHigherMoreSurprising, t1_wider, t2));
    EXPECT_LE(stats.CountSurprising(
                  SurpriseDirection::kHigherMoreSurprising, t1, t2),
              stats.CountSurprising(
                  SurpriseDirection::kHigherMoreSurprising, t1, t2_wider));
    // Tails are monotone in theta2.
    EXPECT_GE(stats.CountPreSuspiciousTail(
                  SurpriseDirection::kHigherMoreSurprising, t2),
              stats.CountPreSuspiciousTail(
                  SurpriseDirection::kHigherMoreSurprising, t2_wider));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetStatsPropertyTest,
                         ::testing::Values(11, 22, 33));

// Property: the merge-sort-tree dominance count agrees with the linear
// reference scan for every direction, on sizes straddling the tree-build
// threshold, with thetas both random and snapped to stored values (the
// inclusive-boundary cases).
class TreeVsLinearPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeVsLinearPropertyTest, TreeCountMatchesLinear) {
  Rng rng(GetParam());
  for (const size_t n : {3u, 63u, 64u, 65u, 127u, 500u, 1000u}) {
    SubsetStats stats;
    std::vector<std::pair<double, double>> raw;
    for (size_t i = 0; i < n; ++i) {
      // Quantized values create heavy ties, stressing the inclusive
      // bounds on both axes.
      const double pre = std::round(rng.Uniform(0, 40)) / 4.0;
      const double post = std::round(rng.Uniform(0, 40)) / 4.0;
      raw.emplace_back(pre, post);
      stats.Add(pre, post);
    }
    stats.Finalize();
    for (int trial = 0; trial < 50; ++trial) {
      double t1 = rng.Uniform(-1, 11);
      double t2 = rng.Uniform(-1, 11);
      if (trial % 2 == 0) {
        const auto& hit = raw[rng.NextBounded(raw.size())];
        t1 = hit.first;
        t2 = hit.second;
      }
      for (const auto dir : {SurpriseDirection::kHigherMoreSurprising,
                             SurpriseDirection::kLowerMoreSurprising}) {
        EXPECT_EQ(stats.CountSurprising(dir, t1, t2),
                  CountSurprisingLinear(stats, dir, t1, t2))
            << "n=" << n << " t1=" << t1 << " t2=" << t2
            << " dir=" << static_cast<int>(dir);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeVsLinearPropertyTest,
                         ::testing::Values(7, 77, 777));

// Property: the linear leaf scans inside CountSurprising agree with the
// linear oracle, including non-finite thetas, NaN/Inf/denormal posts,
// every subset size up to one past kTreeMinSize, and sizes that leave
// ragged leaf blocks. Sweeping theta1 over every pre value starts the
// leaf scans at every offset of the posts array.
TEST(SubsetStatsTest, CountSurprisingMatchesLinear) {
  Rng rng(0x51D);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const size_t n : {1u, 63u, 64u, 65u, 127u, 129u, 500u, 1001u}) {
    SubsetStats stats;
    for (size_t i = 0; i < n; ++i) {
      stats.Add(std::round(rng.Uniform(0, 40)) / 4.0,
                std::round(rng.Uniform(0, 40)) / 4.0);
    }
    stats.Finalize();
    std::vector<std::pair<double, double>> thetas = {
        {5.0, 5.0}, {-1.0, 11.0}, {inf, -inf}, {nan, 5.0}, {5.0, nan}};
    for (int trial = 0; trial < 20; ++trial) {
      thetas.emplace_back(rng.Uniform(-1, 11), rng.Uniform(-1, 11));
    }
    for (const auto& [t1, t2] : thetas) {
      for (const auto dir : {SurpriseDirection::kHigherMoreSurprising,
                             SurpriseDirection::kLowerMoreSurprising}) {
        EXPECT_EQ(stats.CountSurprising(dir, t1, t2),
                  CountSurprisingLinear(stats, dir, t1, t2))
            << "n=" << n << " t1=" << t1 << " t2=" << t2;
      }
    }
  }

  // Adversarial posts. The pres are distinct, so Finalize's tie-break
  // never compares two posts. A NaN post has no place in the sorted tree
  // blocks, so NaN posts appear only below kTreeMinSize, where the whole
  // query is one leaf scan; the infinities and denormals appear at every
  // size.
  const float post_thetas[] = {0.0f, 1.5f, -273.0f,
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN()};
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 65; ++n) sizes.push_back(n);
  sizes.push_back(257);
  for (const size_t n : sizes) {
    SubsetStats stats;
    for (size_t i = 0; i < n; ++i) {
      float post = static_cast<float>(rng.Normal(0.0, 100.0));
      switch (rng.NextBounded(8)) {
        case 0:
          if (n < SubsetStats::kTreeMinSize) {
            post = std::numeric_limits<float>::quiet_NaN();
          }
          break;
        case 1:
          post = std::numeric_limits<float>::infinity();
          break;
        case 2:
          post = -std::numeric_limits<float>::infinity();
          break;
        case 3:
          post = std::numeric_limits<float>::denorm_min() *
                 static_cast<float>(rng.NextBounded(5));
          break;
        default:
          break;
      }
      stats.Add(static_cast<double>(n - i), post);
    }
    stats.Finalize();
    // Every pre value and every gap between them, so the leaf scans
    // start at every offset; post thetas include a stored post, which
    // the inclusive bounds must count.
    std::vector<double> pre_thetas = {-inf, inf, nan};
    for (size_t i = 0; i <= n; ++i) {
      pre_thetas.push_back(static_cast<double>(i));
      pre_thetas.push_back(static_cast<double>(i) + 0.5);
    }
    std::vector<float> t2s(std::begin(post_thetas), std::end(post_thetas));
    if (n > 0) t2s.push_back(stats.posts()[n / 2]);
    for (const double t1 : pre_thetas) {
      for (const float t2 : t2s) {
        for (const auto dir : {SurpriseDirection::kHigherMoreSurprising,
                               SurpriseDirection::kLowerMoreSurprising}) {
          EXPECT_EQ(stats.CountSurprising(dir, t1, t2),
                    CountSurprisingLinear(stats, dir, t1, t2))
              << "n=" << n << " t1=" << t1 << " t2=" << t2;
        }
      }
    }
  }
}

}  // namespace
}  // namespace unidetect
