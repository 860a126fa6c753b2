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

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "corpus/token_index.h"
#include "featurize/features.h"
#include "learn/model.h"
#include "learn/table_columns.h"
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
  size_t row = 0;        ///< row of the suspected outlier
  std::string cell;      ///< its raw cell text
  double value = 0.0;    ///< its numeric value
};

OutlierCandidate ExtractOutlierCandidate(const Column& column,
                                         const ModelOptions& options);

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

}  // namespace unidetect
