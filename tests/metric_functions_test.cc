#include "metrics/metric_functions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "reference/mpd_reference.h"
#include "util/random.h"
#include "util/simd.h"

namespace unidetect {
namespace {

// ---------------------------------------------------------------------------
// Uniqueness ratio.

TEST(UrProfileTest, AllUnique) {
  Column col("c", {"a", "b", "c", "d"});
  const UrProfile profile = ComputeUrProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.ur, 1.0);
  EXPECT_DOUBLE_EQ(profile.ur_perturbed, 1.0);
  EXPECT_TRUE(profile.duplicate_rows.empty());
}

TEST(UrProfileTest, OneDuplicatePair) {
  Column col("c", {"a", "b", "a", "c"});
  const UrProfile profile = ComputeUrProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.ur, 0.75);
  EXPECT_DOUBLE_EQ(profile.ur_perturbed, 1.0);
  EXPECT_EQ(profile.duplicate_rows, (std::vector<size_t>{2}));
}

TEST(UrProfileTest, TripleValueDropsTwoRows) {
  Column col("c", {"a", "a", "a", "b"});
  const UrProfile profile = ComputeUrProfile(col);
  EXPECT_DOUBLE_EQ(profile.ur, 0.5);
  EXPECT_EQ(profile.duplicate_rows, (std::vector<size_t>{1, 2}));
  EXPECT_DOUBLE_EQ(profile.ur_perturbed, 1.0);
}

TEST(UrProfileTest, EmptyCellsIgnored) {
  Column col("c", {"a", "", "a", "  "});
  const UrProfile profile = ComputeUrProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.ur, 0.5);  // 1 distinct / 2 non-empty
  EXPECT_EQ(profile.duplicate_rows, (std::vector<size_t>{2}));
}

TEST(UrProfileTest, AllEmptyInvalid) {
  Column col("c", {"", " "});
  EXPECT_FALSE(ComputeUrProfile(col).valid);
}

// ---------------------------------------------------------------------------
// Minimum pair-wise distance.

TEST(MpdProfileTest, PaperExample1Shape) {
  // "Kevin Doeling"/"Kevin Dowling" are the closest pair; removing one
  // jumps the MPD to the distance between unrelated names.
  Column col("cast", {"Kevin Doeling", "Kevin Dowling", "Alan Myerson",
                      "Rob Morrow", "Jane Lynch"});
  const MpdProfile profile = ComputeMpdProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.mpd, 1u);
  EXPECT_TRUE((profile.value_a == "Kevin Doeling" &&
               profile.value_b == "Kevin Dowling") ||
              (profile.value_a == "Kevin Dowling" &&
               profile.value_b == "Kevin Doeling"));
  EXPECT_GT(profile.mpd_perturbed, 5u);
  EXPECT_TRUE(profile.drop_row == profile.row_a ||
              profile.drop_row == profile.row_b);
}

TEST(MpdProfileTest, InherentlyClosePairsKeepMpdLow) {
  // Roman-numeral series: removing one value leaves other distance-1
  // pairs (Figure 2(h)); the perturbed MPD stays small.
  Column col("event", {"Super Bowl XX", "Super Bowl XXI", "Super Bowl XXII",
                       "Super Bowl XXV", "Super Bowl XXVI"});
  const MpdProfile profile = ComputeMpdProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.mpd, 1u);
  EXPECT_LE(profile.mpd_perturbed, 2u);
}

TEST(MpdProfileTest, NumericColumnsInvalid) {
  Column ints("c", {"1", "2", "3", "4"});
  EXPECT_FALSE(ComputeMpdProfile(ints).valid);
  Column dates("c", {"2015-04-01", "2015-05-26", "2015-06-02"});
  EXPECT_FALSE(ComputeMpdProfile(dates).valid);
}

TEST(MpdProfileTest, NeedsThreeDistinctValues) {
  Column col("c", {"abc", "abd", "abc", "abd"});
  EXPECT_FALSE(ComputeMpdProfile(col).valid);
}

TEST(MpdProfileTest, DistanceCapApplies) {
  Column col("c", {"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                   "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
                   "cccccccccccccccccccccccccccccc"});
  MpdOptions options;
  options.distance_cap = 5;
  const MpdProfile profile = ComputeMpdProfile(col, options);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.mpd, 6u);  // cap + 1 means "far"
}

TEST(MpdProfileTest, DiffTokenLengthLongVsShort) {
  Column long_tokens("c", {"Kevin Doeling", "Kevin Dowling", "Alan Myerson",
                           "Rob Morrow"});
  Column short_tokens("c", {"Super Bowl XXI", "Super Bowl XXII",
                            "Super Bowl XXV", "Super Bowl XL"});
  const MpdProfile lp = ComputeMpdProfile(long_tokens);
  const MpdProfile sp = ComputeMpdProfile(short_tokens);
  ASSERT_TRUE(lp.valid);
  ASSERT_TRUE(sp.valid);
  EXPECT_GT(lp.avg_diff_token_length, 5.0);  // "Doeling"/"Dowling"
  EXPECT_LT(sp.avg_diff_token_length, 5.0);  // "XXI"/"XXII"
}

// ---------------------------------------------------------------------------
// FD compliance ratio.

TEST(FrProfileTest, ExactFd) {
  Column lhs("city", {"London", "Paris", "London", "Paris"});
  Column rhs("country", {"UK", "France", "UK", "France"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.fr, 1.0);
  EXPECT_TRUE(profile.violating_rows.empty());
  EXPECT_EQ(profile.violating_groups, 0u);
}

TEST(FrProfileTest, OneViolatingGroup) {
  Column lhs("city", {"London", "Paris", "London", "Berlin"});
  Column rhs("country", {"UK", "France", "England", "Germany"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  // Distinct pairs: (London,UK), (London,England), (Paris,France),
  // (Berlin,Germany): 2 of 4 conform... the London group contributes two
  // conflicting pairs, so FR = 2/4.
  EXPECT_DOUBLE_EQ(profile.fr, 0.5);
  EXPECT_EQ(profile.violating_groups, 1u);
  // Majority tie resolved toward the first-seen rhs: row 2 is dropped.
  EXPECT_EQ(profile.violating_rows, (std::vector<size_t>{2}));
  EXPECT_DOUBLE_EQ(profile.fr_perturbed, 1.0);
}

TEST(FrProfileTest, MajorityRhsKept) {
  Column lhs("k", {"a", "a", "a", "b"});
  Column rhs("v", {"1", "2", "2", "9"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  // "2" has majority support in group "a"; row 0 (value "1") is dropped.
  EXPECT_EQ(profile.violating_rows, (std::vector<size_t>{0}));
}

TEST(FrProfileTest, PaperFigure4cRatio) {
  // FR("ID" -> "Awardee") = 4/6 in the paper's example: 6 distinct pairs,
  // 4 in conforming groups. Reconstruct an equivalent shape.
  Column lhs("id", {"1", "2", "3", "3", "4", "5", "5"});
  Column rhs("awardee", {"A", "B", "C", "C2", "D", "E", "E2"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  // Pairs: 1A 2B 3C 3C2 4D 5E 5E2 -> 7 distinct, 3 conforming (1A,2B,4D).
  EXPECT_NEAR(profile.fr, 3.0 / 7.0, 1e-12);
  EXPECT_EQ(profile.violating_groups, 2u);
}

TEST(FrProfileTest, ConstantLhsInvalid) {
  Column lhs("k", {"a", "a", "a"});
  Column rhs("v", {"1", "2", "3"});
  EXPECT_FALSE(ComputeFrProfile(lhs, rhs).valid);
}

TEST(FrProfileTest, EmptyCellsSkipped) {
  Column lhs("k", {"a", "", "a", "b"});
  Column rhs("v", {"1", "9", "2", "3"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.violating_groups, 1u);
}

TEST(FrProfileTest, ViolatingRowsSorted) {
  Column lhs("k", {"a", "b", "a", "b", "a"});
  Column rhs("v", {"1", "7", "2", "8", "1"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_TRUE(std::is_sorted(profile.violating_rows.begin(),
                             profile.violating_rows.end()));
}

// ---------------------------------------------------------------------------
// Single-pass closest pair vs the three-scan reference.

void ExpectSameMpdProfile(const Column& column, const MpdOptions& options,
                          const std::string& context) {
  EXPECT_EQ(MpdProfileDiff(ComputeMpdProfile(column, options),
                           ComputeMpdProfileReference(column, options)),
            "")
      << context;
}

class MpdEquivalencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MpdEquivalencePropertyTest, SinglePassMatchesThreeScans) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 3 + rng.NextBounded(40);
    std::vector<std::string> cells;
    const int flavor = static_cast<int>(rng.NextBounded(4));
    for (size_t i = 0; i < n; ++i) {
      switch (flavor) {
        case 0:  // random short strings, many near-collisions
          cells.push_back(rng.AlphaString(1 + rng.NextBounded(5)));
          break;
        case 1:  // equal-length ids (length-gap prefilter never fires)
          cells.push_back(rng.AlphaString(8));
          break;
        case 2: {  // clustered values: common prefix + small suffix edit
          std::string s = "prefix-" + rng.AlphaString(3);
          cells.push_back(std::move(s));
          break;
        }
        default:  // wide length spread, stresses the sorted-order break
          cells.push_back(rng.AlphaString(rng.NextBounded(30)));
          break;
      }
    }
    const Column column("c", cells);
    MpdOptions options;
    // Small caps exercise the cap+1 clamp paths; the default cap the
    // common ones.
    options.distance_cap = trial % 3 == 0 ? 2 : 20;
    ExpectSameMpdProfile(column, options,
                         "seed=" + std::to_string(GetParam()) +
                             " trial=" + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpdEquivalencePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(MpdEquivalenceTest, AllPairsBeyondCap) {
  // No pair within the cap: both implementations must report the first
  // two distinct values with mpd = cap + 1.
  Column column("c", {"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd"});
  MpdOptions options;
  options.distance_cap = 3;
  ExpectSameMpdProfile(column, options, "beyond-cap");
  const MpdProfile fast = ComputeMpdProfile(column, options);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 4u);
  EXPECT_EQ(fast.value_a, "aaaaaaaa");
  EXPECT_EQ(fast.value_b, "bbbbbbbb");
}

TEST(MpdEquivalenceTest, TieOnMinimumPicksFirstPair) {
  // Two distance-1 pairs; the reference's in-order scan reports the
  // lexicographically-first one.
  Column column("c", {"gamma", "gamme", "delto", "delta"});
  ExpectSameMpdProfile(column, MpdOptions{}, "ties");
  const MpdProfile fast = ComputeMpdProfile(column);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 1u);
  EXPECT_EQ(fast.value_a, "gamma");
  EXPECT_EQ(fast.value_b, "gamme");
}

TEST(MpdEquivalenceTest, SimdPrefilterMatchesReferenceWithSimdOnAndOff) {
  // The chunked SIMD prefilter (util/simd.h MpdPrefilterMask) must leave
  // every profile field identical to the reference with the vector path
  // forced on and off — including dethrone-heavy columns (many
  // progressively closer pairs, which re-mask mid-chunk) and columns
  // larger than one 64-candidate chunk.
  Rng rng(0xE017);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t n = 70 + rng.NextBounded(80);  // > one prefilter chunk
    std::vector<std::string> cells;
    for (size_t i = 0; i < n; ++i) {
      // Near-duplicates around a handful of stems create repeated
      // dethrones as the scan tightens the best distance.
      std::string s = "stem" + std::to_string(rng.NextBounded(6)) +
                      rng.AlphaString(1 + rng.NextBounded(6));
      if (rng.NextBounded(3) == 0) s[rng.NextBounded(s.size())] = 'q';
      cells.push_back(std::move(s));
    }
    const Column column("c", cells);
    MpdOptions options;
    options.distance_cap = trial % 2 == 0 ? 20 : 3;
    for (bool enabled : {true, false}) {
      simd::SetSimdEnabled(enabled);
      ExpectSameMpdProfile(column, options,
                           "trial=" + std::to_string(trial) +
                               " simd=" + std::to_string(enabled));
    }
    simd::SetSimdEnabled(true);
  }
}

TEST(MpdEquivalenceTest, LongStringsUseBandedFallback) {
  // Values longer than 64 chars leave the bit-parallel kernel's word
  // width and must fall back to the banded DP.
  const std::string base(70, 'x');
  std::string typo = base;
  typo[35] = 'y';
  Column column("c", {base + "a", typo + "a", base + "zzz", "short"});
  ExpectSameMpdProfile(column, MpdOptions{}, "long-strings");
  const MpdProfile fast = ComputeMpdProfile(column);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 1u);
}

}  // namespace
}  // namespace unidetect
