#include "util/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#define UNIDETECT_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define UNIDETECT_SIMD_NEON 1
#include <arm_neon.h>
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
#elif defined(UNIDETECT_SIMD_NEON)
  return static_cast<int>(SimdLevel::kNeon);
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
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

void SetSimdEnabled(bool enabled) {
  Level();  // pin the detected level before flipping the switch
  g_simd_enabled.store(enabled);
}

// ---------------------------------------------------------------------------
// Scalar references. These define the semantics; every vector kernel
// below must match them bit for bit.

uint64_t CountLessEqualF32Scalar(const float* v, size_t n, float theta) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] <= theta) ++count;
  }
  return count;
}

uint64_t CountGreaterEqualF32Scalar(const float* v, size_t n, float theta) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] >= theta) ++count;
  }
  return count;
}

ArgMaxResult ArgMaxAbsDeviationScalar(const double* v, size_t n,
                                      double center, double denom) {
  ArgMaxResult out{std::fabs(v[0] - center) / denom, 0};
  for (size_t i = 1; i < n; ++i) {
    const double s = std::fabs(v[i] - center) / denom;
    if (s > out.score) {
      out.score = s;
      out.index = i;
    }
  }
  return out;
}

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
// AVX2 kernels. Compiled with per-function target attributes so the rest
// of the translation unit (and the build) needs no -mavx2; only reached
// after __builtin_cpu_supports says the host has the instructions.

#if defined(UNIDETECT_SIMD_X86)

__attribute__((target("avx2"))) uint64_t CountLessEqualF32Avx2(
    const float* v, size_t n, float theta) {
  const __m256 t = _mm256_set1_ps(theta);
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    // Ordered-quiet <= : false for NaN on either side, like scalar <=.
    const __m256 le = _mm256_cmp_ps(x, t, _CMP_LE_OQ);
    count += static_cast<uint64_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(le))));
  }
  for (; i < n; ++i) {
    if (v[i] <= theta) ++count;
  }
  return count;
}

__attribute__((target("avx2"))) uint64_t CountGreaterEqualF32Avx2(
    const float* v, size_t n, float theta) {
  const __m256 t = _mm256_set1_ps(theta);
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 ge = _mm256_cmp_ps(x, t, _CMP_GE_OQ);
    count += static_cast<uint64_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(ge))));
  }
  for (; i < n; ++i) {
    if (v[i] >= theta) ++count;
  }
  return count;
}

__attribute__((target("avx2"))) ArgMaxResult ArgMaxAbsDeviationAvx2(
    const double* v, size_t n, double center, double denom) {
  // Scores are |x| / denom with denom > 0, so every non-NaN score is
  // >= 0 and -1.0 is a safe "no lane selected yet" sentinel. The scalar
  // seed rule (index 0 wins outright when its score is NaN) is handled
  // before the vector body.
  const double s0 = std::fabs(v[0] - center) / denom;
  if (std::isnan(s0)) return ArgMaxResult{s0, 0};

  const __m256d c = _mm256_set1_pd(center);
  const __m256d d = _mm256_set1_pd(denom);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d best_score = _mm256_set1_pd(-1.0);
  __m256i best_index = _mm256_set1_epi64x(0);
  __m256i index = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i step = _mm256_set1_epi64x(4);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    const __m256d s =
        _mm256_div_pd(_mm256_and_pd(_mm256_sub_pd(x, c), abs_mask), d);
    // Strict > keeps the first (lowest-index) maximum within each lane's
    // subsequence; NaN scores never pass an ordered compare.
    const __m256d gt = _mm256_cmp_pd(s, best_score, _CMP_GT_OQ);
    best_score = _mm256_blendv_pd(best_score, s, gt);
    best_index = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(best_index), _mm256_castsi256_pd(index), gt));
    index = _mm256_add_epi64(index, step);
  }

  alignas(32) double lane_score[4];
  alignas(32) int64_t lane_index[4];
  _mm256_store_pd(lane_score, best_score);
  // Spill to a local alignas(32) array; trusted in-memory destination.
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_index),  // NOLINT(unsafe-bytes)
                     best_index);
  // Cross-lane reduce in fixed order: larger score wins; equal scores go
  // to the smaller index. That reproduces the scalar first-strict-
  // improvement scan, whose winner is the smallest index attaining the
  // global maximum.
  ArgMaxResult out{s0, 0};
  bool seeded = false;
  for (int lane = 0; lane < 4; ++lane) {
    if (lane_score[lane] < 0.0) continue;  // sentinel: lane never selected
    const auto idx = static_cast<size_t>(lane_index[lane]);
    if (!seeded || lane_score[lane] > out.score ||
        (lane_score[lane] == out.score && idx < out.index)) {
      out.score = lane_score[lane];
      out.index = idx;
      seeded = true;
    }
  }
  for (; i < n; ++i) {
    const double s = std::fabs(v[i] - center) / denom;
    if (s > out.score) {
      out.score = s;
      out.index = i;
    }
  }
  return out;
}

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
// NEON kernels (aarch64 baseline; no runtime detection needed). Only the
// counting kernels are vectorized — the argmax and prefilter kernels
// fall back to the scalar references, which the dispatch contract
// permits because scalar IS the semantics.

#if defined(UNIDETECT_SIMD_NEON)

uint64_t CountLessEqualF32Neon(const float* v, size_t n, float theta) {
  const float32x4_t t = vdupq_n_f32(theta);
  uint64_t count = 0;
  size_t i = 0;
  uint32x4_t acc = vdupq_n_u32(0);
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t le = vcleq_f32(vld1q_f32(v + i), t);
    acc = vsubq_u32(acc, le);  // lanes are 0 or 0xffffffff (== -1)
    if ((i & 0x3ffc) == 0x3ffc) {  // drain before any u32 lane could wrap
      count += vaddlvq_u32(acc);
      acc = vdupq_n_u32(0);
    }
  }
  count += vaddlvq_u32(acc);
  for (; i < n; ++i) {
    if (v[i] <= theta) ++count;
  }
  return count;
}

uint64_t CountGreaterEqualF32Neon(const float* v, size_t n, float theta) {
  const float32x4_t t = vdupq_n_f32(theta);
  uint64_t count = 0;
  size_t i = 0;
  uint32x4_t acc = vdupq_n_u32(0);
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t ge = vcgeq_f32(vld1q_f32(v + i), t);
    acc = vsubq_u32(acc, ge);
    if ((i & 0x3ffc) == 0x3ffc) {
      count += vaddlvq_u32(acc);
      acc = vdupq_n_u32(0);
    }
  }
  count += vaddlvq_u32(acc);
  for (; i < n; ++i) {
    if (v[i] >= theta) ++count;
  }
  return count;
}

#endif  // UNIDETECT_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch.

uint64_t CountLessEqualF32(const float* v, size_t n, float theta) {
#if defined(UNIDETECT_SIMD_X86)
  if (Level() == SimdLevel::kAvx2) return CountLessEqualF32Avx2(v, n, theta);
#elif defined(UNIDETECT_SIMD_NEON)
  if (Level() == SimdLevel::kNeon) return CountLessEqualF32Neon(v, n, theta);
#endif
  return CountLessEqualF32Scalar(v, n, theta);
}

uint64_t CountGreaterEqualF32(const float* v, size_t n, float theta) {
#if defined(UNIDETECT_SIMD_X86)
  if (Level() == SimdLevel::kAvx2) {
    return CountGreaterEqualF32Avx2(v, n, theta);
  }
#elif defined(UNIDETECT_SIMD_NEON)
  if (Level() == SimdLevel::kNeon) {
    return CountGreaterEqualF32Neon(v, n, theta);
  }
#endif
  return CountGreaterEqualF32Scalar(v, n, theta);
}

ArgMaxResult ArgMaxAbsDeviation(const double* v, size_t n, double center,
                                double denom) {
#if defined(UNIDETECT_SIMD_X86)
  // The vector body's -1 sentinel assumes non-negative scores, which
  // requires denom > 0 (the dispersion callers guarantee it; anything
  // else routes to the scalar reference).
  if (Level() == SimdLevel::kAvx2 && n >= 8 && denom > 0.0) {
    return ArgMaxAbsDeviationAvx2(v, n, center, denom);
  }
#endif
  return ArgMaxAbsDeviationScalar(v, n, center, denom);
}

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
