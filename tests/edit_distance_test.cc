#include "metrics/edit_distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/random.h"

namespace unidetect {
namespace {

TEST(EditDistanceTest, KnownPairs) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  // The paper's examples.
  EXPECT_EQ(EditDistance("Kevin Doeling", "Kevin Dowling"), 1u);
  EXPECT_EQ(EditDistance("Mississippi", "Mississipi"), 1u);
  EXPECT_EQ(EditDistance("H2O", "H2O2"), 1u);
  EXPECT_EQ(EditDistance("Super Bowl XXI", "Super Bowl XXII"), 1u);
  EXPECT_EQ(EditDistance("Bromine", "Bromide"), 1u);
}

TEST(EditDistanceTest, Symmetry) {
  EXPECT_EQ(EditDistance("abcdef", "azced"), EditDistance("azced", "abcdef"));
}

TEST(BoundedEditDistanceTest, AgreesWithinBound) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 5), 3u);
}

TEST(BoundedEditDistanceTest, ReportsBoundPlusOneWhenExceeded) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 2), 3u);
  EXPECT_EQ(BoundedEditDistance("", "abcdef", 3), 4u);
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 1), 2u);
}

TEST(BoundedEditDistanceTest, LengthGapShortCircuit) {
  // |len difference| > bound can never fit.
  EXPECT_EQ(BoundedEditDistance("ab", "abcdefgh", 3), 4u);
}

// Property: bounded distance equals full distance whenever it fits the
// bound, over random string pairs.
class EditDistancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EditDistancePropertyTest, BoundedMatchesFull) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = rng.AlphaString(rng.NextBounded(12));
    std::string b = a;
    // Mutate b a random number of times for interesting distances.
    const size_t edits = rng.NextBounded(5);
    for (size_t e = 0; e < edits && !b.empty(); ++e) {
      const size_t pos = rng.NextBounded(b.size());
      switch (rng.NextBounded(3)) {
        case 0:
          b[pos] = static_cast<char>('a' + rng.NextBounded(26));
          break;
        case 1:
          b.erase(pos, 1);
          break;
        default:
          b.insert(pos, 1, static_cast<char>('a' + rng.NextBounded(26)));
          break;
      }
    }
    const size_t full = EditDistance(a, b);
    for (size_t bound : {size_t{1}, size_t{3}, size_t{20}}) {
      const size_t bounded = BoundedEditDistance(a, b, bound);
      if (full <= bound) {
        EXPECT_EQ(bounded, full) << a << " vs " << b << " bound " << bound;
      } else {
        EXPECT_EQ(bounded, bound + 1) << a << " vs " << b;
      }
    }
    // Triangle inequality against a third string.
    const std::string c = rng.AlphaString(rng.NextBounded(12));
    EXPECT_LE(EditDistance(a, c), full + EditDistance(b, c));
  }
}

// Property: past 64 bytes the banded DP equals the full distance clamped
// at bound + 1. One scratch serves every call, across lengths and
// bounds, so cells left over from an earlier call are in the rows.
TEST_P(EditDistancePropertyTest, BandedMatchesFullFrom65To300Bytes) {
  Rng rng(GetParam());
  EditDistanceScratch scratch;
  for (int trial = 0; trial < 24; ++trial) {
    const std::string a = rng.AlphaString(65 + rng.NextBounded(236));
    std::string b = a;
    // Up to 30 edits over a 4-letter alphabet, so the distances span the
    // bounds below and the band's edges hold small values.
    const size_t edits = rng.NextBounded(31);
    for (size_t e = 0; e < edits && !b.empty(); ++e) {
      const size_t pos = rng.NextBounded(b.size());
      const char c = static_cast<char>('a' + rng.NextBounded(4));
      switch (rng.NextBounded(3)) {
        case 0:
          b[pos] = c;
          break;
        case 1:
          b.erase(pos, 1);
          break;
        default:
          b.insert(pos, 1, c);
          break;
      }
    }
    const size_t full = EditDistance(a, b);
    for (size_t bound : {size_t{0}, size_t{1}, size_t{3}, size_t{20}}) {
      const size_t want = std::min(full, bound + 1);
      EXPECT_EQ(BoundedEditDistance(a, b, bound, &scratch), want)
          << "|a|=" << a.size() << " |b|=" << b.size() << " bound " << bound;
      EXPECT_EQ(BoundedEditDistance(b, a, bound, &scratch), want)
          << "|a|=" << a.size() << " |b|=" << b.size() << " bound " << bound;
    }
  }
}

// Property: short, close heads on a shared tail of 70 bytes. The tail
// forces the banded path, and a distance of exactly the bound, or one
// more, decided at the band's edge, is common: a length gap equal to the
// bound puts the best path on the band's upper edge.
TEST_P(EditDistancePropertyTest, BandEdgesPastLengthGapEqualToBound) {
  Rng rng(GetParam());
  EditDistanceScratch scratch;
  const std::string tail = rng.AlphaString(70);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t bound = 1 + rng.NextBounded(5);
    std::string u;
    std::string v;
    const size_t u_size = rng.NextBounded(8);
    for (size_t k = 0; k < u_size; ++k) u.push_back("ab"[rng.NextBounded(2)]);
    for (size_t k = 0; k < u_size + bound; ++k) {
      v.push_back("ab"[rng.NextBounded(2)]);
    }
    const std::string a = u + tail;
    const std::string b = v + tail;
    const size_t want = std::min(EditDistance(a, b), bound + 1);
    EXPECT_EQ(BoundedEditDistance(a, b, bound, &scratch), want)
        << u << " vs " << v << " bound " << bound;
    EXPECT_EQ(BoundedEditDistance(b, a, bound, &scratch), want)
        << u << " vs " << v << " bound " << bound;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistancePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace unidetect
