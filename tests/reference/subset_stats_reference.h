// Test-only oracle for SubsetStats::CountSurprising, the Eq. 12
// numerator: a plain scalar scan over the finalized pres()/posts()
// arrays, with no merge-sort tree. The tree query with its linear leaf
// scans must return the same count on every input; property tests, the perf
// smoke check and bench_perf's BM_LrQueryLinear use it.

#pragma once

#include <cstdint>

#include "learn/subset_stats.h"

namespace unidetect {

/// \brief Observations with pre on theta1's suspicious side and post on
/// theta2's clean side (inclusive bounds), counted in O(n).
uint64_t CountSurprisingLinear(const SubsetStats& stats, SurpriseDirection dir,
                               double theta1, double theta2);

}  // namespace unidetect
