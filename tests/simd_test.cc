// Property tests for the vector MPD prefilter mask (util/simd.h): the
// dispatched mask must be BIT-identical to the scalar reference on every
// input — random counts plus the corners (saturated counts, bounds at
// and one past a gate, candidate counts that leave a scalar tail) — with
// the vector path forced on and off via SetSimdEnabled().

#include "util/simd.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace unidetect {
namespace simd {
namespace {

// Restores the detected dispatch level when a test scope ends.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) { SetSimdEnabled(enabled); }
  ~ScopedSimd() { SetSimdEnabled(true); }
};

// ---------------------------------------------------------------------------
// MPD prefilter kernel (length gap + bag bound over character counts).

// Count arrays for `n` candidates: mostly small counts, with saturated
// 255 lanes and arbitrary bytes mixed in.
std::vector<uint8_t> RandomCounts(Rng& rng, size_t n) {
  std::vector<uint8_t> counts(n * kMpdCountClasses);
  for (uint8_t& c : counts) {
    const uint64_t kind = rng.NextBounded(8);
    c = static_cast<uint8_t>(kind == 0   ? 255
                             : kind == 1 ? rng.NextBounded(256)
                                         : rng.NextBounded(3));
  }
  return counts;
}

void ExpectMaskMatchesScalar(const std::vector<int32_t>& lengths,
                             const std::vector<uint8_t>& counts,
                             int32_t len_a, const uint8_t* counts_a,
                             int32_t bound) {
  const uint64_t want = MpdPrefilterMaskScalar(
      lengths.data(), counts.data(), lengths.size(), len_a, counts_a, bound);
  for (bool enabled : {true, false}) {
    ScopedSimd scoped(enabled);
    EXPECT_EQ(MpdPrefilterMask(lengths.data(), counts.data(), lengths.size(),
                               len_a, counts_a, bound),
              want)
        << "count=" << lengths.size() << " bound=" << bound
        << " simd=" << enabled;
  }
}

TEST(SimdMpdPrefilterTest, MatchesScalarOnRandomInputs) {
  // Random counts (saturated lanes included) at every candidate count up
  // to a full chunk, so both the 8-wide body and the scalar tail run.
  Rng rng(0x3DD);
  for (size_t count = 0; count <= 64; ++count) {
    for (int trial = 0; trial < 12; ++trial) {
      const int32_t len_a = static_cast<int32_t>(rng.NextBounded(300));
      const std::vector<uint8_t> probe = RandomCounts(rng, 1);
      std::vector<int32_t> lengths(count);
      for (int32_t& len : lengths) {
        len = len_a + static_cast<int32_t>(rng.NextBounded(12));
      }
      const std::vector<uint8_t> counts = RandomCounts(rng, count);
      const int32_t bound = static_cast<int32_t>(rng.NextBounded(64));
      ExpectMaskMatchesScalar(lengths, counts, len_a, probe.data(), bound);
    }
  }
}

TEST(SimdMpdPrefilterTest, BoundaryBounds) {
  // Bound 0 admits only candidates with the probe's exact counts and
  // length; bound 2^20 admits everything (the largest possible bag bound
  // is (64 * 255 + gap) / 2).
  Rng rng(0xB0D);
  for (size_t count : {size_t{7}, size_t{8}, size_t{13}, size_t{64}}) {
    const std::vector<uint8_t> probe = RandomCounts(rng, 1);
    std::vector<uint8_t> counts = RandomCounts(rng, count);
    std::vector<int32_t> lengths(count, 50);
    for (size_t i = 0; i < count; i += 3) {  // every third is a twin
      std::memcpy(&counts[i * kMpdCountClasses], probe.data(),
                  kMpdCountClasses);
    }
    for (int32_t bound : {0, 1, 1 << 20}) {
      ExpectMaskMatchesScalar(lengths, counts, 50, probe.data(), bound);
    }
    ScopedSimd on(true);
    uint64_t twins = 0;
    for (size_t i = 0; i < count; i += 3) twins |= uint64_t{1} << i;
    const uint64_t all = count == 64 ? ~uint64_t{0}
                                     : (uint64_t{1} << count) - 1;
    const uint64_t at_zero = MpdPrefilterMask(lengths.data(), counts.data(),
                                              count, 50, probe.data(), 0);
    EXPECT_EQ(at_zero & twins, twins) << "count=" << count;
    EXPECT_EQ(MpdPrefilterMask(lengths.data(), counts.data(), count, 50,
                               probe.data(), 1 << 20),
              all)
        << "count=" << count;
  }
  // All 64 classes saturated on both sides: the bag is blind, only the
  // length gap prunes.
  const std::vector<uint8_t> full(9 * kMpdCountClasses, 255);
  const std::vector<int32_t> lengths = {300, 300, 301, 302, 303,
                                        304, 305, 306, 400};
  for (int32_t bound : {0, 1, 3, 1 << 20}) {
    ExpectMaskMatchesScalar(lengths, full, 300, full.data(), bound);
  }
}

TEST(SimdMpdPrefilterTest, LengthGapsAtTheBound) {
  // Candidates whose gap or bag bound sits exactly at, or one past, the
  // bound; a candidate count that is not a multiple of 8 puts some of
  // them in the scalar tail.
  const int32_t bound = 4;
  const int32_t len_a = 10;
  std::vector<uint8_t> probe(kMpdCountClasses, 0);
  probe[1] = 10;  // "aaaaaaaaaa"
  std::vector<int32_t> lengths;
  std::vector<uint8_t> counts;
  std::vector<bool> expect;
  const auto add = [&](int32_t len, uint8_t a_count, uint8_t b_count,
                       bool pass) {
    std::vector<uint8_t> c(kMpdCountClasses, 0);
    c[1] = a_count;
    c[2] = b_count;
    counts.insert(counts.end(), c.begin(), c.end());
    lengths.push_back(len);
    expect.push_back(pass);
  };
  for (int rep = 0; rep < 2; ++rep) {
    add(14, 10, 4, true);   // gap 4 = bound; SAD 4: bag (4 + 4) / 2 = 4
    add(15, 10, 5, false);  // gap 5 > bound
    add(10, 6, 4, true);    // SAD 8, gap 0: bag 4
    add(10, 5, 5, false);   // SAD 10, gap 0: bag 5
    add(10, 5, 4, true);    // SAD 9, gap 0: bag floor(9 / 2) = 4
    add(11, 6, 5, false);   // SAD 9, gap 1: bag 5
    add(12, 7, 5, false);   // SAD 8, gap 2: bag 5
    add(12, 8, 4, true);    // SAD 6, gap 2: bag 4
  }
  add(10, 10, 0, true);  // twin, alone in the scalar tail
  uint64_t want = 0;
  for (size_t i = 0; i < expect.size(); ++i) {
    if (expect[i]) want |= uint64_t{1} << i;
  }
  EXPECT_EQ(MpdPrefilterMaskScalar(lengths.data(), counts.data(),
                                   lengths.size(), len_a, probe.data(), bound),
            want);
  ExpectMaskMatchesScalar(lengths, counts, len_a, probe.data(), bound);
}

TEST(SimdMpdPrefilterTest, CountBoundIsHalfSadPlusGap) {
  std::vector<uint8_t> a(kMpdCountClasses, 0);
  std::vector<uint8_t> b(kMpdCountClasses, 0);
  EXPECT_EQ(MpdCountBound(a.data(), b.data(), 0, 0), 0);
  a[0] = 255;
  b[63] = 255;
  EXPECT_EQ(MpdCountBound(a.data(), b.data(), 300, 255), (510 + 45) / 2);
  EXPECT_EQ(MpdCountBound(b.data(), a.data(), 255, 300), (510 + 45) / 2);
}

TEST(SimdDispatchTest, LevelNameAndToggle) {
  // The initial level may already be kScalar (UNIDETECT_DISABLE_SIMD is
  // applied at first use); SetSimdEnabled overrides in both directions
  // and always lands back on the same detected hardware level.
  EXPECT_NE(SimdLevelName(ActiveSimdLevel()), nullptr);
  SetSimdEnabled(true);
  const SimdLevel hardware = ActiveSimdLevel();
  EXPECT_NE(SimdLevelName(hardware), nullptr);
  SetSimdEnabled(false);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  SetSimdEnabled(true);
  EXPECT_EQ(ActiveSimdLevel(), hardware);
}

}  // namespace
}  // namespace simd
}  // namespace unidetect
