// Test-only oracle for the MPD metric (Section 3.2): the seed algorithm,
// three full banded-DP closest-pair scans over the distinct values,
// kept outside the library as the reference the optimized single-pass
// kernel (metrics/metric_functions.h) is checked and benchmarked
// against. It collects the distinct values through its own string map,
// so it also checks the kernel's dictionary-code collection.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "metrics/metric_functions.h"
#include "table/column.h"

namespace unidetect {

/// \brief ComputeMpdProfile by three full scans; results are identical.
MpdProfile ComputeMpdProfileReference(const Column& column,
                                      const MpdOptions& options = {});

/// \brief Empty when `a` and `b` agree on every field (doubles bit for
/// bit), else the first field that differs with both values.
std::string MpdProfileDiff(const MpdProfile& a, const MpdProfile& b);

/// \brief The seed bounded edit distance: a banded DP with per-call
/// allocations. Returns bound + 1 once the distance exceeds `bound`.
size_t ReferenceBoundedEditDistance(std::string_view a, std::string_view b,
                                    size_t bound);

}  // namespace unidetect
