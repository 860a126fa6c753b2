// Test-only oracle for the max-MAD / max-SD metric functions (Section
// 3.1): the original per-element scorer loop, quadratic but trivially
// correct. It re-derives the column statistics for every element through
// its own copies of the Eq. 8 / Eq. 9 scorers, so it shares nothing with
// the hoisted single-scan fast paths (metrics/dispersion.h) beyond the basic
// statistics. The fast paths must return bit-identical
// (score, index, valid) on every input; property tests pin that.

#pragma once

#include <vector>

#include "metrics/dispersion.h"

namespace unidetect {

MaxScore MaxMadScoreReference(const std::vector<double>& values);
MaxScore MaxSdScoreReference(const std::vector<double>& values);

}  // namespace unidetect
