// Candidate extraction: computes, for one column (or column pair), the
// feature key and the (theta1, theta2) metric transition of the natural
// perturbation for each error class.
//
// The Trainer records these transitions for every corpus column; the
// detectors compute the same transition for a test column and look up its
// likelihood ratio. Keeping extraction in one place guarantees the
// offline and online paths agree on metrics, perturbations, and keys.
//
// The spelling, uniqueness and FD extractors run on an EncodedColumn, so
// a table's TableColumns shares each column's codes and Prev(C) across
// every class and pair (learn/table_columns.h). Their Column overloads
// encode just the given column(s) and call the same code.
//
// The uniqueness and FD keys read Prev(C), so the EncodedColumn
// extractors leave `key` unset and UniquenessKey / FdKey compute it on
// demand: the trainer keys every valid candidate, while a detector keys
// only the candidates that pass its gate (DESIGN.md section 17.3). The
// Column overloads still fill `key`.
//
// The detectors' gates can be decided before the candidate is built:
// UniquenessGateCanPass and FdGateScreen count the rows the perturbation
// would drop and stop once they exceed epsilon. The rest ask the model
// before the costly half of a candidate (DESIGN.md section 17.6):
// SpellingGateCanPass before the MPD scan, OutlierGateCanPass before
// theta1, and UniquenessKeyCanPass and FdKeyCanPass before Prev(C).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/token_index.h"
#include "featurize/features.h"
#include "learn/model.h"
#include "learn/model_stack.h"
#include "learn/table_columns.h"
#include "metrics/dispersion.h"
#include "metrics/metric_functions.h"
#include "table/column.h"

namespace unidetect {

/// \brief Numeric-outlier candidate (Section 3.1): theta = max-MAD score
/// before/after dropping the most outlying value.
struct OutlierCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  /// The suspected outlier's position in Column::NumericValues(); its
  /// row is Column::NumericRows()[index], which only a finding needs.
  size_t index = 0;
  double value = 0.0;    ///< its numeric value
};

OutlierCandidate ExtractOutlierCandidate(const Column& column,
                                         const ModelOptions& options);

/// \brief ExtractOutlierCandidate in steps, so that a detector can ask
/// the model between them. Step 1: whether `column` can have a candidate
/// at all (numeric type, at least `min_column_rows` numeric values, at
/// least 80% numeric cells).
bool OutlierEligible(const Column& column, const ModelOptions& options);

/// \brief Step 2 is theta1, `before` = MaxMadScore(column.NumericValues())
/// of an eligible column. Step 3, given a valid `before`: theta2, the
/// max-MAD score of one copy of the values without the one `before`
/// picks, and the key. Invalid when fewer than three values remain.
OutlierCandidate OutlierCandidateFrom(const Column& column,
                                      const MaxScore& before,
                                      const ModelOptions& options);

/// \brief The outlier detector's screen on the model, before theta1:
/// false for columns with no candidate (!OutlierEligible), and for
/// columns where no candidate can score LR < min(alpha, 1) against
/// `model`.
///
/// The key's log-fit bit is unknown before step 3, so both keys are
/// tried (one with featurization off). Every MAD score is >= 0, so
/// theta2 >= 0. Under the default LR mode (kRange with kSuspiciousTail)
/// num = #(pre >= theta1, post <= theta2) and den = #(pre >= theta2)
/// make LR non-increasing in theta1 and non-decreasing in theta2, and
/// the support and denominator gates are easiest to meet at theta2 = 0,
/// so LR(key, +inf, 0) bounds every candidate from below (DESIGN.md
/// section 17.6). The bound needs scores that are never NaN: a column
/// that fails MadScoresNeverNan, like any eligible column under another
/// LR mode, always passes.
bool OutlierGateCanPass(const Column& column, const ModelStack& model,
                        double alpha);

/// \brief Spelling candidate (Section 3.2): theta = MPD before/after
/// dropping one endpoint of the closest pair.
struct SpellingCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  MpdProfile profile;
};

SpellingCandidate ExtractSpellingCandidate(const EncodedColumn& column,
                                           const ModelOptions& options);
SpellingCandidate ExtractSpellingCandidate(const Column& column,
                                           const ModelOptions& options);

/// \brief The spelling detector's gate without the MPD scan: false only
/// when no spelling candidate of `column` can score LR < min(alpha, 1)
/// against `model`.
///
/// The candidate's key is (type, row bucket, token-length bucket), and
/// only the last is unknown before the scan, so every token-length
/// bucket is tried. Values are distinct after Trim, so theta1 >= 1, and
/// theta2 <= cap + 1. Under the default LR mode (kRange with
/// kSuspiciousTail) LR is non-decreasing in theta1 and non-increasing in
/// theta2, and the support and denominator gates are easiest to meet at
/// the same corner, so LR(key, 1, cap + 1) is the least LR any candidate
/// can score (DESIGN.md section 17.6). Under any other mode LR is not
/// monotone, and every column with a candidate passes.
bool SpellingGateCanPass(const EncodedColumn& column, const ModelStack& model,
                         double alpha);

/// \brief Uniqueness candidate (Section 3.3): theta = UR before/after
/// dropping up to epsilon duplicate rows.
struct UniquenessCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  /// Duplicate rows the perturbation drops (already capped by epsilon).
  std::vector<size_t> dropped_rows;
};

/// Leaves `key` unset; see UniquenessKey.
UniquenessCandidate ExtractUniquenessCandidate(const EncodedColumn& column,
                                               const ModelOptions& options);
UniquenessCandidate ExtractUniquenessCandidate(const Column& column,
                                               size_t column_position,
                                               const TokenPrevalence& index,
                                               const ModelOptions& options);

/// \brief The feature key of a valid uniqueness candidate of `column`.
FeatureKey UniquenessKey(const EncodedColumn& column, size_t column_position,
                         const ModelOptions& options);

/// \brief The uniqueness detector's screen on the model, once theta1 and
/// theta2 are known: false only when LR(key, theta1, theta2) >=
/// min(alpha, 1) at the key of every prevalence bucket. The key's other
/// dimensions are known, and Prev(C)'s bucket is one of the six tried
/// (duplicate keys skipped, so featurization off is one lookup), so this
/// is exact under every LR mode, and Prev(C) is never computed here.
bool UniquenessKeyCanPass(const EncodedColumn& column, size_t column_position,
                          const ModelStack& model, double theta1,
                          double theta2, double alpha);

/// \brief The uniqueness detector's gate without the candidate: true iff
/// ExtractUniquenessCandidate(column, options) is valid, drops at least
/// one row and has theta2 >= 1.
///
/// That holds iff the column has at least `min_column_rows` rows and
/// 1 <= duplicates <= epsilon, where duplicates = non-empty rows minus
/// distinct values. With more duplicates than epsilon, a duplicate row
/// outlives the capped drop beside its value's first row, so UR stays
/// below 1 (DESIGN.md section 17.6).
bool UniquenessGateCanPass(const EncodedColumn& column,
                           const ModelOptions& options);

/// \brief FD candidate (Section 3.4) for the ordered pair (lhs -> rhs):
/// theta = FR before/after dropping up to epsilon violating rows.
struct FdCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  /// Violating rows the perturbation drops (already capped by epsilon).
  std::vector<size_t> dropped_rows;
  size_t violating_groups = 0;
};

/// Leaves `key` unset; see FdKey.
FdCandidate ExtractFdCandidate(const EncodedColumn& lhs,
                               const EncodedColumn& rhs,
                               const ModelOptions& options);
FdCandidate ExtractFdCandidate(const Column& lhs, const Column& rhs,
                               const TokenPrevalence& index,
                               const ModelOptions& options);

/// \brief The feature key of a valid FD candidate (lhs -> rhs).
FeatureKey FdKey(const EncodedColumn& lhs, const EncodedColumn& rhs,
                 const ModelOptions& options);

/// \brief UniquenessKeyCanPass for the FD pair (lhs -> rhs): tries every
/// prevalence bucket of Prev(rhs).
bool FdKeyCanPass(const EncodedColumn& lhs, const EncodedColumn& rhs,
                  const ModelStack& model, double theta1, double theta2,
                  double alpha);

/// \brief The FD detector's gate without the candidate, for one lhs
/// against many rhs columns.
///
/// CanPass(rhs) is true iff ExtractFdCandidate(lhs, rhs, options) is
/// valid, drops at least one row and has theta2 >= 1. Over the rows
/// where both codes are non-empty, that holds iff lhs has at least
/// `min_column_rows` rows, there are at least two lhs groups, and
/// 1 <= V <= epsilon, where V sums each group's size minus its majority
/// rhs count (the rows FR's perturbation drops). With V > epsilon, a
/// violating row outlives the capped drop beside its group's majority
/// rows, so FR stays below 1 (DESIGN.md section 17.6). Counting stops
/// as soon as V passes epsilon.
class FdGateScreen {
 public:
  /// Groups lhs's rows by code once. Borrows nothing.
  FdGateScreen(const EncodedColumn& lhs, const ModelOptions& options);

  bool CanPass(const EncodedColumn& rhs);

 private:
  size_t lhs_rows_ = 0;
  /// 0 when no pair with this lhs can pass: too few rows, or no lhs
  /// value repeats (then V = 0 for every rhs).
  size_t epsilon_ = 0;
  /// Rows with a non-empty lhs code, grouped by code, ascending within
  /// a group; group g is rows_[begin_[g], begin_[g + 1]).
  std::vector<size_t> rows_;
  std::vector<size_t> begin_;
  /// Per-group rhs code counts, all zero between calls.
  std::vector<uint32_t> count_;
};

}  // namespace unidetect
