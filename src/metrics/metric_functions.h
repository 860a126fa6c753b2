// The four metric functions m() that describe a column (or column pair)
// as a number, per Sections 3.1-3.4:
//
//   max-MAD  -- numeric outliers   (Eq. 10; see dispersion.h)
//   MPD      -- spelling mistakes  (minimum pair-wise edit distance)
//   UR       -- uniqueness         (distinct / total)
//   FR       -- FD violations      (conforming distinct pairs / pairs)
//
// Each function also reports the natural perturbation candidate O (the
// rows whose removal defines D_O^P) and the post-perturbation metric
// value, since detectors need the (theta1, theta2) pair.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "table/column.h"

namespace unidetect {

// ---------------------------------------------------------------------------
// Dictionary codes: the shared input of the UR, FR and MPD kernels.

/// \brief A column's trimmed cells as dense dictionary codes.
///
/// UR and FR only ever compare trimmed cells for equality, so a column
/// encoded once can be scored against every partner column by integer
/// compares instead of string hashing; MPD reads its distinct values off
/// the first-occurrence numbering (DESIGN.md section 17).
struct ColumnCodes {
  /// One code per row: 0 for a cell that is empty after Trim, otherwise
  /// 1..distinct, numbered in first-occurrence row order.
  std::vector<uint32_t> codes;
  /// Number of distinct non-empty trimmed values (the largest code).
  uint32_t distinct = 0;

  size_t size() const { return codes.size(); }
};

/// \brief Encodes `column`; two rows share a code iff their trimmed
/// cells are equal.
ColumnCodes EncodeColumn(const Column& column);

// ---------------------------------------------------------------------------
// Uniqueness ratio (UR), Section 3.3.

/// \brief UR(C) plus the duplicate rows that form the perturbation.
struct UrProfile {
  bool valid = false;       ///< false for empty columns
  double ur = 0.0;          ///< num-distinct / num-total
  double ur_perturbed = 0.0;  ///< UR after dropping `duplicate_rows`
  /// Every row beyond the first occurrence of a repeated value, in row
  /// order. Dropping them all makes the column exactly unique.
  std::vector<size_t> duplicate_rows;
};

/// \brief Computes the uniqueness profile of a column. Empty cells are
/// ignored for duplicate detection (missing values are not duplicates).
/// Encodes the column and runs the coded kernel below.
UrProfile ComputeUrProfile(const Column& column);

/// \brief The UR kernel over dictionary codes. Rows listed in
/// `dropped_rows` are skipped, which scores the perturbed column D \ O
/// exactly as ComputeUrProfile(column.WithoutRows(dropped_rows)) would,
/// except that reported rows keep their original indices.
UrProfile ComputeUrProfile(const ColumnCodes& column,
                           std::span<const size_t> dropped_rows = {});

// ---------------------------------------------------------------------------
// Minimum pair-wise edit distance (MPD), Section 3.2 / Example 1.

/// \brief MPD(C) plus the closest pair and the perturbed MPD.
struct MpdProfile {
  bool valid = false;  ///< false when < 3 distinct values
  size_t mpd = 0;      ///< min edit distance over distinct value pairs
  /// Rows of the closest pair (first occurrence of each value).
  size_t row_a = 0;
  size_t row_b = 0;
  std::string value_a;
  std::string value_b;
  /// MPD after removing the better endpoint of the closest pair (the
  /// removal maximizing the perturbed MPD, i.e. minimizing the LR).
  size_t mpd_perturbed = 0;
  /// Which row the perturbation drops (row_a or row_b).
  size_t drop_row = 0;
  /// Average length of the tokens that differ between the MPD pair
  /// (featurization dimension (3) of Section 3.2): long differing tokens
  /// ("Doeling"/"Dowling") suggest typos, short ones ("XXI"/"XXII") do not.
  double avg_diff_token_length = 0.0;
};

/// \brief Options bounding the O(n^2) pair scan.
struct MpdOptions {
  /// Distances above this are treated as "far" and reported as cap + 1.
  size_t distance_cap = 20;
  /// Columns with more distinct values than this are subsampled
  /// deterministically (closest pairs among the first `max_values` kept
  /// by first occurrence).
  size_t max_values = 400;
};

/// \brief False for numeric-ish columns (integer, float, date), which are
/// not meaningful targets for edit-distance spelling analysis.
bool IsMpdEligible(const Column& column);

/// \brief Computes the MPD profile of a column over distinct, non-empty,
/// non-numeric-only values; ineligible columns (IsMpdEligible) return
/// valid = false. Encodes the column and runs the kernel below.
MpdProfile ComputeMpdProfile(const Column& column, const MpdOptions& options = {});

/// \brief The MPD kernel: `codes` must be EncodeColumn(column), and
/// supplies the distinct values and their first rows.
///
/// Runs a single length-sorted pass over value pairs that yields the
/// closest pair and both endpoint-exclusion minima at once, with
/// bit-parallel bounded edit distances behind length and character-count
/// lower bounds (see metric_functions.cc and DESIGN.md section 8).
MpdProfile ComputeMpdProfile(const Column& column, const ColumnCodes& codes,
                             const MpdOptions& options = {});

/// \brief Average length of the tokens in which `a` and `b` differ, as a
/// multiset difference (MpdProfile::avg_diff_token_length).
double AvgDifferingTokenLength(std::string_view a, std::string_view b);

// ---------------------------------------------------------------------------
// FD compliance ratio (FR), Section 3.4.

/// \brief FR of a candidate FD (lhs -> rhs) plus its violations.
struct FrProfile {
  bool valid = false;  ///< false when the pair is degenerate (see .cc)
  double fr = 0.0;     ///< conforming distinct (lhs,rhs) pairs / all pairs
  double fr_perturbed = 0.0;  ///< FR after dropping `violating_rows`
  /// Rows participating in violating lhs-groups, minus one "kept" row per
  /// group (the majority rhs representative): the minimal row set whose
  /// removal makes the FD hold exactly.
  std::vector<size_t> violating_rows;
  /// Number of lhs groups with more than one distinct rhs.
  size_t violating_groups = 0;
};

/// \brief Computes the FR profile of the (lhs, rhs) column pair. Encodes
/// both columns and runs the coded kernel below.
FrProfile ComputeFrProfile(const Column& lhs, const Column& rhs);

/// \brief The FR kernel over dictionary codes: groups rows by lhs code
/// with a counting sort and counts rhs codes per group in a dense array.
/// Rows listed in `dropped_rows` are skipped, matching
/// ComputeFrProfile(lhs.WithoutRows(rows), rhs.WithoutRows(rows)) up to
/// the original row indices in `violating_rows`.
FrProfile ComputeFrProfile(const ColumnCodes& lhs, const ColumnCodes& rhs,
                           std::span<const size_t> dropped_rows = {});

}  // namespace unidetect
