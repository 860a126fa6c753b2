// Structural properties of metric functions under their natural
// perturbations, checked over every generated archetype:
//
//   UR:  removing duplicates can only raise the uniqueness ratio.
//   MPD: removing a value can only remove pairs, so the minimum
//        pair-wise distance never decreases.
//   FR:  dropping all violating rows makes the FD hold exactly.
//
// These are the facts behind the LR test's "perturbation moves the
// metric toward clean" precondition.

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "learn/candidates.h"
#include "metrics/metric_functions.h"
#include "util/string_util.h"

namespace unidetect {
namespace {

class ArchetypePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ArchetypePropertyTest, PerturbationsMoveMetricsTowardClean) {
  Rng rng(1000 + static_cast<uint64_t>(GetParam()));
  for (size_t rows : {12u, 30u, 80u}) {
    const AnnotatedTable t =
        GenerateTable(static_cast<Archetype>(GetParam()), rows, rng);
    for (size_t c = 0; c < t.table.num_columns(); ++c) {
      const Column& column = t.table.column(c);

      const UrProfile ur = ComputeUrProfile(column);
      if (ur.valid) {
        EXPECT_GE(ur.ur_perturbed + 1e-12, ur.ur) << column.name();
        EXPECT_LE(ur.ur, 1.0 + 1e-12);
        // Dropping every duplicate restores exact uniqueness.
        EXPECT_DOUBLE_EQ(ur.ur_perturbed, 1.0) << column.name();
      }

      const MpdProfile mpd = ComputeMpdProfile(column);
      if (mpd.valid) {
        EXPECT_GE(mpd.mpd_perturbed, mpd.mpd) << column.name();
        EXPECT_NE(mpd.value_a, mpd.value_b);
        EXPECT_GT(mpd.mpd, 0u);  // distinct values have distance >= 1
      }

      for (size_t r = 0; r < t.table.num_columns(); ++r) {
        if (r == c) continue;
        const FrProfile fr = ComputeFrProfile(column, t.table.column(r));
        if (fr.valid) {
          EXPECT_LE(fr.fr, 1.0 + 1e-12);
          EXPECT_DOUBLE_EQ(fr.fr_perturbed, 1.0);
          EXPECT_EQ(fr.violating_rows.empty(), fr.violating_groups == 0);
        }
      }
    }
  }
}

TEST_P(ArchetypePropertyTest, CandidateExtractionIsConsistent) {
  Rng rng(2000 + static_cast<uint64_t>(GetParam()));
  const AnnotatedTable t =
      GenerateTable(static_cast<Archetype>(GetParam()), 40, rng);
  ModelOptions options;
  TokenIndex index;
  for (size_t c = 0; c < t.table.num_columns(); ++c) {
    const Column& column = t.table.column(c);
    const OutlierCandidate outlier = ExtractOutlierCandidate(column, options);
    if (outlier.valid) {
      ASSERT_LT(outlier.index, column.NumericRows().size());
      const size_t row = column.NumericRows()[outlier.index];
      EXPECT_LT(row, column.size());
      EXPECT_EQ(ParseNumeric(column.cell(row)), outlier.value);
      // Removing the most outlying value cannot raise max-MAD above the
      // original (the removed value defined the maximum or tied it).
      EXPECT_LE(outlier.theta2, outlier.theta1 + 1e-9);
    }
    const UniquenessCandidate uniq =
        ExtractUniquenessCandidate(column, c, index, options);
    if (uniq.valid) {
      const size_t epsilon = options.epsilon.AllowedRows(column.size());
      EXPECT_LE(uniq.dropped_rows.size(), epsilon);
      for (size_t row : uniq.dropped_rows) EXPECT_LT(row, column.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchetypes, ArchetypePropertyTest,
                         ::testing::Range(0, kNumArchetypes));

}  // namespace
}  // namespace unidetect
