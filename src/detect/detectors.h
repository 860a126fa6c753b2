// The paper's four error classes (Sections 3.1-3.4), one function each.
//
// A class is a metric, its perturbation and an LR lookup (Definition 4).
// Each function scans one table's columns (or column pairs), appends a
// finding for every candidate whose LR is below min(alpha, 1), and asks
// the model before its costly half wherever no LR that low is reachable
// (DESIGN.md section 17.6). UniDetect::DetectTable calls the enabled
// ones and ranks their findings together.
//
// `columns` must be encoded against `model.token_prevalence()`.

#pragma once

#include <cstddef>
#include <vector>

#include "detect/dictionary.h"
#include "detect/finding.h"
#include "learn/model_stack.h"
#include "learn/table_columns.h"

namespace unidetect {

/// \brief Numeric outliers (Section 3.1): flags a column's most outlying
/// value when removing it makes the max-MAD drop surprisingly.
void DetectOutliers(const TableColumns& columns, const ModelStack& model,
                    double alpha, std::vector<Finding>* out);

/// \brief Spelling mistakes (Section 3.2): flags a column's closest value
/// pair when removing one endpoint raises the MPD surprisingly. With a
/// `dictionary` (may be null), a pair whose values are both made of
/// known words is refuted: the UNIDETECT+Dict variant of Section 4.3.
void DetectSpellingErrors(const TableColumns& columns, const ModelStack& model,
                          double alpha, const Dictionary* dictionary,
                          std::vector<Finding>* out);

/// \brief Uniqueness violations (Section 3.3): flags duplicate values in
/// columns the corpus evidence says are meant to be unique (ID-like
/// subsets: mixed-alphanumeric type, rare tokens, leftmost position).
void DetectUniquenessViolations(const TableColumns& columns,
                                const ModelStack& model, double alpha,
                                std::vector<Finding>* out);

/// \brief FD violations (Section 3.4): flags rows that break an FD
/// lhs -> rhs which almost holds, when the corpus evidence says such
/// near-FDs are normally exact. At most `max_pairs_per_table` ordered
/// column pairs are tried, in (lhs, rhs) order.
void DetectFdViolations(const TableColumns& columns, const ModelStack& model,
                        double alpha, size_t max_pairs_per_table,
                        std::vector<Finding>* out);

}  // namespace unidetect
