// FD-synthesis detection (Appendix D): FD-violation detection restricted
// to column pairs with a learnt programmatic relationship. The LR
// reasoning is identical to the FD class (Section 3.4, "The exact
// error-detection reasoning for FD-synthesis in UNIDETECT is identical to
// FD"); requiring a synthesized program prunes the coincidental
// almost-FDs that drag plain FD precision down (Figure 12).

#pragma once

#include <cstddef>
#include <vector>

#include "detect/finding.h"
#include "learn/model_stack.h"
#include "learn/table_columns.h"

namespace unidetect {

/// \brief UniDetect-FD over synthesized programmatic pairs only: for each
/// of at most `max_pairs_per_table` ordered column pairs, a program is
/// synthesized with the default SynthesisOptions, and a pair it explains
/// but for a few rows runs the FD perturbation test. Findings with
/// LR < 1 are kept. `columns` must be encoded against
/// `model.token_prevalence()`.
void DetectFdSynthesisViolations(const TableColumns& columns,
                                 const ModelStack& model,
                                 size_t max_pairs_per_table,
                                 std::vector<Finding>* out);

}  // namespace unidetect
