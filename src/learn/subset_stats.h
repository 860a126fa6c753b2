// SubsetStats: the materialized evidence for one corpus subset S_D^F(T).
//
// During offline learning, every corpus column contributes one
// (theta1, theta2) = (m(D), m(D_O^P)) observation to the subset its
// feature key selects. Online, the smoothed likelihood ratio of Eq. 12 is
// two counting queries over these observations.
//
// Storage model (DESIGN.md section 12): every query runs over
// span<const float> views. In the trainer and owned-decode paths the
// spans point at vectors the object owns; in the UDSNAP mmap path they
// borrow directly from the mapped snapshot (the Model's backing region
// keeps the mapping alive), so loading a subset allocates nothing and
// touches no observation bytes until a query faults the pages in.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/result.h"

namespace unidetect {

/// \brief Which metric tail counts as "more suspicious".
///
/// max-MAD is suspicious when large (kHigherMoreSurprising); MPD, UR and
/// FR are suspicious when small (kLowerMoreSurprising) — a tiny MPD means
/// a near-duplicate pair, a UR/FR just under 1 means a near-constraint.
enum class SurpriseDirection : int {
  kHigherMoreSurprising = 0,
  kLowerMoreSurprising = 1,
};

/// \brief Immutable-after-Finalize store of (pre, post) metric pairs.
class SubsetStats {
 public:
  /// Below this size the linear scan beats the merge-sort tree (and the
  /// tree's memory overhead buys nothing); counts are identical either
  /// way. Neither Finalize() nor the snapshot writer materializes a tree
  /// for subsets smaller than this.
  static constexpr size_t kTreeMinSize = 64;

  /// Tree blocks at or below this size are not binary-searched during a
  /// prefix count: the block decomposition stops here and the remaining
  /// (< 2 * kLeafBlock) observations are counted with one linear scan
  /// over the contiguous posts array. Query results and snapshot bytes
  /// do not depend on it — only the leaf strategy differs.
  static constexpr size_t kLeafBlock = 64;

  /// \brief Number of merge-sort-tree levels Finalize() builds for a
  /// subset of `n` observations (0 below kTreeMinSize). Part of the v2
  /// wire contract: the serialized tree section holds exactly
  /// TreeLevelsFor(n) * n floats per subset.
  static size_t TreeLevelsFor(size_t n);

  /// \brief Adds one observation (build phase only).
  void Add(double pre, double post);

  /// \brief Sorts observations; must be called before any query.
  void Finalize();

  size_t size() const { return pres().size(); }
  bool finalized() const { return finalized_; }

  /// \brief True when observation storage borrows from an external
  /// buffer (a mapped snapshot) instead of owned vectors.
  bool borrowed() const { return borrowed_; }

  /// \brief Heap bytes owned by this object (0 for borrowed storage);
  /// feeds the serving tier's model_resident_bytes gauge.
  uint64_t OwnedBytes() const;

  /// \brief Numerator of Eq. 12: observations at least as surprising as
  /// (theta1, theta2) — pre on theta1's suspicious side AND post on
  /// theta2's clean side. Bounds are inclusive.
  ///
  /// Answered as a 2-D dominance count over the merge-sort tree built at
  /// Finalize(): O(log^2 n) instead of the O(n) scan of the test-only
  /// reference, CountSurprisingLinear (tests/reference/).
  uint64_t CountSurprising(SurpriseDirection dir, double theta1,
                           double theta2) const;

  /// \brief Denominator of Eq. 12 in the paper's formulation: pre values
  /// on the suspicious side of theta2 (inclusive).
  uint64_t CountPreSuspiciousTail(SurpriseDirection dir, double theta2) const;

  /// \brief Ablation denominator: pre values on the clean side of theta2.
  uint64_t CountPreCleanTail(SurpriseDirection dir, double theta2) const;

  /// \brief Point-estimate (unsmoothed) numerator/denominator for the
  /// smoothing ablation: equality after quantization to `grid` steps.
  uint64_t CountPointPair(double theta1, double theta2, double grid) const;
  uint64_t CountPointPre(double theta2, double grid) const;

  /// \brief Merges another (non-finalized or finalized) stats object.
  void Merge(const SubsetStats& other);

  /// \brief Finalized observation arrays in canonical (pre, post) order;
  /// consumed by the snapshot codec (model_format/).
  std::span<const float> pres() const {
    return borrowed_ ? pres_view_ : std::span<const float>(pres_owned_);
  }
  std::span<const float> posts() const {
    return borrowed_ ? posts_view_ : std::span<const float>(posts_owned_);
  }

  /// \brief The merge-sort tree as one flat array: tree_levels() levels
  /// of size() floats each, level k holding posts sorted within aligned
  /// blocks of 2^(k+1). Empty below kTreeMinSize. The v2 writer
  /// serializes this verbatim so Finalize() never runs at load time.
  std::span<const float> tree_data() const {
    return borrowed_ ? tree_view_ : std::span<const float>(tree_owned_);
  }
  size_t tree_levels() const { return tree_levels_; }

  /// \brief Owned snapshot decode path: rebuilds a finalized stats object
  /// from arrays already in canonical order and installs the
  /// pre-serialized flat tree instead of rebuilding it, so load never
  /// re-runs the Finalize() sort/merge work. `tree` must hold exactly
  /// TreeLevelsFor(pres.size()) * pres.size() floats. Rejects unsorted
  /// or size-mismatched input as Corruption: re-sorting here could
  /// reorder posts among tied pres and break the bit-identical
  /// Save -> Load -> Save guarantee.
  static Result<SubsetStats> FromSortedArraysWithTree(
      std::vector<float> pres, std::vector<float> posts,
      std::vector<float> tree);

  /// \brief Zero-copy snapshot decode path: observation and tree storage stay
  /// in the caller's buffer (a mapped snapshot section). The caller
  /// guarantees the buffer outlives the object — in practice via the
  /// owning Model's backing region. `validate_sorted` controls the O(n)
  /// pre-order check (on for full snapshot validation, skipped in the
  /// deferred serving mode whose structural checks are O(#subsets)).
  static Result<SubsetStats> FromBorrowedSorted(std::span<const float> pres,
                                                std::span<const float> posts,
                                                std::span<const float> tree,
                                                bool validate_sorted);

 private:
  /// Builds the flat merge-sort tree over posts (pres must be sorted).
  void BuildTree();

  /// Counts posts on the given side of `theta` (inclusive) within the
  /// prefix [0, prefix_len) of the pre-sorted observation order: binary
  /// block decomposition over the tree levels down to kLeafBlock, then
  /// one linear scan over the leftover posts.
  uint64_t CountPostsInPrefix(size_t prefix_len, float theta,
                              bool count_geq) const;

  // Parallel arrays sorted by (pre, post) after Finalize(). Owned
  // storage is used by the build/trainer and owned-decode paths; the
  // *_view_ spans are populated only in borrowed mode.
  std::vector<float> pres_owned_;
  std::vector<float> posts_owned_;
  // Flat merge-sort tree over posts in pre-sorted order, built by
  // Finalize() for subsets of at least kTreeMinSize observations:
  // tree_levels_ levels of size() floats each (~n log n floats total,
  // O(n log n) build), one allocation.
  std::vector<float> tree_owned_;
  std::span<const float> pres_view_;
  std::span<const float> posts_view_;
  std::span<const float> tree_view_;
  size_t tree_levels_ = 0;
  bool borrowed_ = false;
  bool finalized_ = false;
};

}  // namespace unidetect
