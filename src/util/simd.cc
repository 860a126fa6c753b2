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
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul")) {
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
// The AVX2 mask and the PCLMULQDQ CRC fold. Compiled with per-function
// target attributes so the rest of the translation unit (and the build)
// needs no -mavx2 or -mpclmul; only reached after __builtin_cpu_supports
// says the host has the instructions.

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

// ---------------------------------------------------------------------------
// The CRC-32 fold (simd.h). Each constant is a power of x modulo the
// CRC polynomial P, bit-reflected and shifted left one, as the reflected
// fold needs them:
//
//   k1 = x^(4*128+32) mod P    k2 = x^(4*128-32) mod P   (fold 64 bytes)
//   k3 = x^(128+32) mod P      k4 = x^(128-32) mod P     (fold 16 bytes)
//   k5 = x^64 mod P                                      (128 -> 64 bits)
//   mu = floor(x^64 / P), and P itself                   (Barrett, 64 -> 32)

// Folds lane `x` across the distance its constant pair `k` encodes: the
// low half times k's low constant, xor the high half times k's high one.
__attribute__((target("pclmul,sse4.1"))) inline __m128i FoldLane(__m128i x,
                                                                 __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i LoadBlock(
    const char* p) {
  // The caller's buffer; every call site keeps the 16-byte read inside
  // [data, data + size).
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(p));  // NOLINT(unsafe-bytes)
}

// The CRC register after the size / 16 whole blocks at `data` (size >=
// 64), starting from register `crc`.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32FoldClmul(
    const char* data, size_t size, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, 0, 0);

  __m128i x0 = _mm_xor_si128(LoadBlock(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = LoadBlock(data + 16);
  __m128i x2 = LoadBlock(data + 32);
  __m128i x3 = LoadBlock(data + 48);
  size_t pos = 64;
  for (; size - pos >= 64; pos += 64) {
    x0 = _mm_xor_si128(FoldLane(x0, k1k2), LoadBlock(data + pos));
    x1 = _mm_xor_si128(FoldLane(x1, k1k2), LoadBlock(data + pos + 16));
    x2 = _mm_xor_si128(FoldLane(x2, k1k2), LoadBlock(data + pos + 32));
    x3 = _mm_xor_si128(FoldLane(x3, k1k2), LoadBlock(data + pos + 48));
  }
  x0 = _mm_xor_si128(FoldLane(x0, k3k4), x1);
  x0 = _mm_xor_si128(FoldLane(x0, k3k4), x2);
  x0 = _mm_xor_si128(FoldLane(x0, k3k4), x3);
  for (; size - pos >= 16; pos += 16) {
    x0 = _mm_xor_si128(FoldLane(x0, k3k4), LoadBlock(data + pos));
  }
  // 128 -> 64 bits, appending the register's 32 zero bits; then 64 -> 32.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                     _mm_srli_si128(x0, 8));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett: the quotient floor(x0 * mu / x^64), times P, cancels all
  // but the 32-bit remainder, left in lane 1.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), mu_p, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // UNIDETECT_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.

size_t Crc32Fold(const char* data, size_t size, uint32_t* crc) {
#if defined(UNIDETECT_SIMD_X86)
  if (size >= 64 && Level() == SimdLevel::kAvx2) {
    *crc = Crc32FoldClmul(data, size, *crc);
    return size & ~size_t{15};
  }
#else
  (void)data;
  (void)crc;
#endif
  return 0;
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
