#include "util/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define UNIDETECT_SIMD_X86 1
#include <immintrin.h>
#endif

namespace unidetect {
namespace simd {

namespace {

// Process-wide dispatch state: the detected level is fixed at first use;
// the enabled flag implements both the UNIDETECT_DISABLE_SIMD override
// and SetSimdEnabled(). Deterministic for any fixed host + environment.
std::atomic<int> g_detected_level{-1};  // NOLINT(determinism)
std::atomic<bool> g_simd_enabled{true};  // NOLINT(determinism)

int DetectLevel() {
#if defined(UNIDETECT_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) {
    return static_cast<int>(SimdLevel::kAvx2);
  }
#endif
  return static_cast<int>(SimdLevel::kScalar);
}

bool DisabledByEnv() {
  const char* env = std::getenv("UNIDETECT_DISABLE_SIMD");
  if (env == nullptr || *env == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

SimdLevel Level() {
  int level = g_detected_level.load(std::memory_order_relaxed);
  if (level < 0) {
    if (DisabledByEnv()) g_simd_enabled.store(false);
    level = DetectLevel();
    g_detected_level.store(level);
  }
  if (!g_simd_enabled.load(std::memory_order_relaxed)) {
    return SimdLevel::kScalar;
  }
  return static_cast<SimdLevel>(level);
}

}  // namespace

SimdLevel ActiveSimdLevel() { return Level(); }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void SetSimdEnabled(bool enabled) {
  Level();  // pin the detected level before flipping the switch
  g_simd_enabled.store(enabled);
}

// ---------------------------------------------------------------------------
// Scalar kernels. MpdPrefilterMaskScalar defines the mask's semantics;
// the AVX2 mask below must match it bit for bit.

int64_t MpdCountBound(const uint8_t* counts_a, const uint8_t* counts_b,
                      int32_t len_a, int32_t len_b) {
  int32_t sad = 0;
  for (size_t k = 0; k < kMpdCountClasses; ++k) {
    sad += std::abs(int32_t{counts_a[k]} - int32_t{counts_b[k]});
  }
  const int64_t gap = int64_t{len_a} - int64_t{len_b};
  return (int64_t{sad} + (gap < 0 ? -gap : gap)) / 2;
}

void MpdBigramCounts(const char* s, size_t size, uint8_t* grams) {
  unsigned char prev = 0;  // the front frame byte
  for (size_t k = 0; k <= size; ++k) {
    // The back frame byte closes the last 2-gram.
    const unsigned char c = k < size ? static_cast<unsigned char>(s[k]) : 1;
    uint8_t& slot = grams[MpdBigramClass(prev, c)];
    if (slot != 255) ++slot;
    prev = c;
  }
}

int64_t MpdBigramBound(const uint8_t* grams_a, const uint8_t* grams_b) {
  // Plain integer work that compilers turn into SAD instructions.
  int32_t sad = 0;
  for (size_t k = 0; k < kMpdCountClasses; ++k) {
    sad += std::abs(int32_t{grams_a[k]} - int32_t{grams_b[k]});
  }
  return (int64_t{sad} + 3) / 4;
}

uint64_t MpdPrefilterMaskScalar(const int32_t* lengths, const uint8_t* counts,
                                size_t count, int32_t len_a,
                                const uint8_t* counts_a, int32_t bound) {
  uint64_t mask = 0;
  for (size_t i = 0; i < count; ++i) {
    if (lengths[i] - len_a > bound) continue;
    if (MpdCountBound(counts_a, counts + i * kMpdCountClasses, len_a,
                      lengths[i]) > bound) {
      continue;
    }
    mask |= uint64_t{1} << i;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// The AVX2 mask. Compiled with per-function target attributes so the rest
// of the translation unit (and the build) needs no -mavx2; only reached
// after __builtin_cpu_supports says the host has the instructions.

#if defined(UNIDETECT_SIMD_X86)

// Helpers of the count mask, named functions (not lambdas inside the
// kernel) because closures do not inherit the enclosing function's
// target attribute, and gcc refuses to inline AVX2 intrinsics into a
// non-AVX2 closure body.

// SAD of one candidate's 64 counts against the probe's, as four partial
// sums in the 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i CountSad(const uint8_t* counts,
                                                        __m256i probe_lo,
                                                        __m256i probe_hi) {
  // Trusted in-memory count array; the caller keeps the 64-byte read
  // inside it.
  const __m256i lo = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(counts));  // NOLINT(unsafe-bytes)
  const __m256i hi = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(counts + 32));  // NOLINT(unsafe-bytes)
  return _mm256_add_epi64(_mm256_sad_epu8(lo, probe_lo),
                          _mm256_sad_epu8(hi, probe_hi));
}

// Lane k of the result is the sum of the four lanes of s_k.
__attribute__((target("avx2"))) inline __m256i SumLanes4(__m256i s0,
                                                         __m256i s1,
                                                         __m256i s2,
                                                         __m256i s3) {
  const __m256i s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(s0, s1),
                                       _mm256_unpackhi_epi64(s0, s1));
  const __m256i s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(s2, s3),
                                       _mm256_unpackhi_epi64(s2, s3));
  return _mm256_add_epi64(_mm256_permute2x128_si256(s01, s23, 0x20),
                          _mm256_permute2x128_si256(s01, s23, 0x31));
}

// Bag-gate failures of the four candidates at `counts`, whose absolute
// length gaps are the 32-bit lanes of `abs_gap`.
__attribute__((target("avx2"))) inline unsigned BagFail4(
    const uint8_t* counts, __m128i abs_gap, __m256i probe_lo,
    __m256i probe_hi, __m256i limit) {
  constexpr size_t kStride = kMpdCountClasses;
  const __m256i sad = SumLanes4(
      CountSad(counts, probe_lo, probe_hi),
      CountSad(counts + kStride, probe_lo, probe_hi),
      CountSad(counts + 2 * kStride, probe_lo, probe_hi),
      CountSad(counts + 3 * kStride, probe_lo, probe_hi));
  const __m256i twice = _mm256_add_epi64(sad, _mm256_cvtepu32_epi64(abs_gap));
  return static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(twice, limit))));
}

__attribute__((target("avx2"))) uint64_t MpdPrefilterMaskAvx2(
    const int32_t* lengths, const uint8_t* counts, size_t count,
    int32_t len_a, const uint8_t* counts_a, int32_t bound) {
  const __m256i vlen_a = _mm256_set1_epi32(len_a);
  const __m256i vbound = _mm256_set1_epi32(bound);
  // floor((sad + gap) / 2) > bound  <=>  sad + gap > 2 * bound + 1.
  const __m256i limit = _mm256_set1_epi64x(2 * int64_t{bound} + 1);
  // Trusted in-memory probe counts (kMpdCountClasses bytes).
  const __m256i probe_lo = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(counts_a));  // NOLINT(unsafe-bytes)
  const __m256i probe_hi = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(counts_a + 32));  // NOLINT(unsafe-bytes)

  uint64_t mask = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    // SIMD lane load from a trusted in-memory array; the loop bound keeps
    // the 32-byte read inside [lengths, lengths + count), and the eight
    // candidates' counts inside [counts, counts + count * 64).
    const __m256i len = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(lengths + i));  // NOLINT(unsafe-bytes)
    const __m256i gap = _mm256_sub_epi32(len, vlen_a);
    const unsigned len_fail = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(gap, vbound))));
    const __m256i abs_gap = _mm256_abs_epi32(gap);
    const uint8_t* base = counts + i * kMpdCountClasses;
    const unsigned bag_fail =
        BagFail4(base, _mm256_castsi256_si128(abs_gap), probe_lo, probe_hi,
                 limit) |
        (BagFail4(base + 4 * kMpdCountClasses,
                  _mm256_extracti128_si256(abs_gap, 1), probe_lo, probe_hi,
                  limit)
         << 4);
    mask |= static_cast<uint64_t>(~(len_fail | bag_fail) & 0xffu) << i;
  }
  for (; i < count; ++i) {
    if (lengths[i] - len_a > bound) continue;
    if (MpdCountBound(counts_a, counts + i * kMpdCountClasses, len_a,
                      lengths[i]) > bound) {
      continue;
    }
    mask |= uint64_t{1} << i;
  }
  return mask;
}

#endif  // UNIDETECT_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.

uint64_t MpdPrefilterMask(const int32_t* lengths, const uint8_t* counts,
                          size_t count, int32_t len_a,
                          const uint8_t* counts_a, int32_t bound) {
#if defined(UNIDETECT_SIMD_X86)
  if (Level() == SimdLevel::kAvx2) {
    return MpdPrefilterMaskAvx2(lengths, counts, count, len_a, counts_a,
                                bound);
  }
#endif
  return MpdPrefilterMaskScalar(lengths, counts, count, len_a, counts_a,
                                bound);
}

}  // namespace simd
}  // namespace unidetect
