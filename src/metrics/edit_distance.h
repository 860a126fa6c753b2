// Levenshtein edit distance. Three implementations share one contract:
//
//   EditDistance          -- classic rolling-row DP, O(|a| * |b|).
//   BoundedEditDistance   -- early-exit variant: Myers bit-parallel scan
//                            (O(max(|a|,|b|)) word operations) when the
//                            shorter string fits in one 64-bit word,
//                            otherwise a banded DP of width 2*bound+1.
//   EditDistancePattern   -- the bounded variant with one side fixed: the
//                            Myers match table is built once and reused
//                            for every string compared against it.
//
// The bounded variants power the O(n^2) closest-pair loop behind the MPD
// metric, so they must not allocate per call: callers inside hot loops
// pass an EditDistanceScratch they own, and the scratch-less overload
// falls back to a thread_local buffer.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace unidetect {

/// \brief Reusable work space for BoundedEditDistance.
///
/// Holds the two DP rows of the banded fallback and the 256-entry
/// pattern-match table of the Myers bit-parallel kernel. The table is
/// kept all-zero between calls (the kernel clears exactly the entries it
/// set), so reuse costs nothing.
struct EditDistanceScratch {
  std::vector<size_t> row;
  std::vector<size_t> next;
  uint64_t peq[256] = {};
};

/// \brief Levenshtein distance (unit-cost insert/delete/substitute).
size_t EditDistance(std::string_view a, std::string_view b);

/// \brief Levenshtein distance with early exit: returns `bound + 1` as
/// soon as the true distance provably exceeds `bound`.
///
/// Allocation-free: all per-call state lives in `*scratch`.
size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound, EditDistanceScratch* scratch);

/// \brief Convenience overload using a thread_local scratch buffer.
size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound);

/// \brief One string prepared for many bounded distance computations.
///
/// A pattern of 1..kBitParallelMax bytes gets its Myers match table built
/// once by Assign(), so each BoundedDistance() is a |text|-step scan.
/// Longer (or empty) patterns hand every call to BoundedEditDistance.
/// The table is separate from EditDistanceScratch, which the banded
/// fallback uses. BoundedDistance() reads the pattern through a view, so
/// the string must stay alive while it is called.
class EditDistancePattern {
 public:
  static constexpr size_t kBitParallelMax = 64;

  /// \brief Replaces the pattern, zeroing the previous one's entries
  /// (the previous string need not be alive).
  void Assign(std::string_view pattern);

  /// \brief True when calls run the bit-parallel scan.
  bool bit_parallel() const {
    return !pattern_.empty() && pattern_.size() <= kBitParallelMax;
  }

  /// \brief BoundedEditDistance(pattern, text, bound, scratch).
  size_t BoundedDistance(std::string_view text, size_t bound,
                         EditDistanceScratch* scratch) const;

 private:
  std::string_view pattern_;
  /// The bit-parallel pattern's bytes, so Assign can zero their entries
  /// after the caller's string is gone.
  char copy_[kBitParallelMax] = {};
  size_t copy_size_ = 0;
  uint64_t peq_[256] = {};
};

}  // namespace unidetect
