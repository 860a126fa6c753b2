// The vector kernels: the MPD pair scan's prefilter mask and the CRC-32
// fold behind every snapshot checksum (DESIGN.md section 13.1).
//
// Design: each kernel has a plain scalar body and a dispatch entry point
// that routes to the vector body when the host has it. The prefilter
// mask exists twice, a scalar reference (`MpdPrefilterMaskScalar`) and
// an AVX2 body; the CRC fold has a PCLMULQDQ body, and its scalar path
// is the slicing-by-8 loop of `Crc32` (util/binary_io.h) itself. Vector
// and scalar are BIT-IDENTICAL on every input: the mask is exact integer
// work and a CRC is a CRC. Property tests (tests/simd_test.cc,
// tests/crc32_test.cc) pin the equivalence with dispatch forced on and
// off. Vector code lives only here, where an end-to-end bench shows its
// win; the LR leaf counts and the max-MAD / max-SD argmax are plain
// loops at their call sites.
//
// Runtime dispatch: the implementation is chosen once per process from
// CPU feature detection. The vector level needs both AVX2 (the mask) and
// PCLMULQDQ (the CRC fold), so one switch covers both kernels: setting
// the environment variable UNIDETECT_DISABLE_SIMD (to anything but "0"
// or the empty string) forces the scalar path. Tests flip the same
// switch via SetSimdEnabled().

#pragma once

#include <cstddef>
#include <cstdint>

namespace unidetect {
namespace simd {

/// \brief Which kernel family the dispatcher selected.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,  ///< AVX2 and PCLMULQDQ (every AVX2 x86 host has both)
};

/// \brief The active kernel family (after the UNIDETECT_DISABLE_SIMD
/// override and any SetSimdEnabled() call).
SimdLevel ActiveSimdLevel();

const char* SimdLevelName(SimdLevel level);

/// \brief Forces the scalar kernels (false) or restores the detected
/// vector kernels (true). Used by the equivalence tests; not thread-safe
/// against in-flight kernels, so flip it only from a quiesced process.
void SetSimdEnabled(bool enabled);

// ---------------------------------------------------------------------------
// MPD prefilter kernel (the pair scan's length and character-count gates).
//
// Each value carries kMpdCountClasses byte counts: count[k] is the number
// of its bytes c with c & 63 == k, saturating at 255. For a probe value `a`
// and a candidate `b`, the bag bound
//
//   floor((SAD(count_a, count_b) + |len_a - len_b|) / 2)
//
// is a lower bound on their Levenshtein distance (DESIGN.md section 8).
// For up to 64 candidates, the mask kernel decides in one pass which
// survive both gates:
//
//   lengths[i] - len_a  <= bound   (length gap; candidates are scanned in
//                                   ascending length, so the gap is
//                                   non-negative)
//   bag bound of (a, i) <= bound
//
// Bit i of the result is set iff candidate i survives both gates.
// Candidate i's counts are counts[i * kMpdCountClasses ...]. The sums are
// exact integer work, so the vector and scalar masks are identical bit
// for bit.

inline constexpr size_t kMpdCountClasses = 64;

/// \brief The bag bound of one pair: the scalar predicate both mask
/// kernels reproduce, and the pair scan's per-pair gate.
int64_t MpdCountBound(const uint8_t* counts_a, const uint8_t* counts_b,
                      int32_t len_a, int32_t len_b);

uint64_t MpdPrefilterMask(const int32_t* lengths, const uint8_t* counts,
                          size_t count, int32_t len_a,
                          const uint8_t* counts_a, int32_t bound);
uint64_t MpdPrefilterMaskScalar(const int32_t* lengths, const uint8_t* counts,
                                size_t count, int32_t len_a,
                                const uint8_t* counts_a, int32_t bound);

// The 2-gram bound: the pair scan's last gate before an exact distance.
//
// Each value also carries kMpdCountClasses counts of the 2-grams (the
// adjacent byte pairs) of its framed form "\x00" s "\x01", hashed to
// MpdBigramClass buckets and saturating at 255. The frame adds a first
// and a last 2-gram, so values that differ only at an end still differ
// in their counts, and it leaves the distance alone: a common prefix and
// suffix never change a Levenshtein distance. One unit edit changes at
// most four 2-gram counts: a substitution removes two 2-grams and adds
// two, an insertion or a deletion removes one and adds two or the
// reverse. So
//
//   ceil(SAD(grams_a, grams_b) / 4)
//
// is a lower bound on the Levenshtein distance; hashing and saturation
// only lower the SAD (DESIGN.md section 8).

/// \brief The bucket of the 2-gram (a, b), in [0, kMpdCountClasses).
inline constexpr size_t MpdBigramClass(unsigned char a, unsigned char b) {
  return static_cast<size_t>(
      ((uint32_t{a} << 8 | uint32_t{b}) * uint32_t{0x9E3779B1u}) >> 26);
}

/// \brief Adds the size + 1 2-grams of the framed `size` bytes at `s` to
/// the saturating bucket counts at `grams`.
void MpdBigramCounts(const char* s, size_t size, uint8_t* grams);

/// \brief ceil(SAD(grams_a, grams_b) / 4) over kMpdCountClasses buckets.
int64_t MpdBigramBound(const uint8_t* grams_a, const uint8_t* grams_b);

// ---------------------------------------------------------------------------
// CRC-32 fold: the IEEE CRC of util/binary_io.h (reflected polynomial
// 0xEDB88320) by carry-less multiplication, after Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Intel, 2009). Four 128-bit lanes fold 64 bytes a step, one lane folds
// the remaining 16-byte blocks, and a Barrett reduction brings the
// 128-bit remainder down to the 32-bit register.

/// \brief Folds the whole 16-byte blocks of the `size` bytes at `data`
/// into the CRC register `*crc` (the caller owns the initial and final
/// inversion) and returns how many bytes it consumed: `size` rounded down
/// to a multiple of 16 on the vector level when `size` >= 64, else 0 and
/// `*crc` untouched. The caller finishes the remaining bytes. Never reads
/// outside [data, data + size).
size_t Crc32Fold(const char* data, size_t size, uint32_t* crc);

}  // namespace simd
}  // namespace unidetect
