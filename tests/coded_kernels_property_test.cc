// The dictionary-coded UR/FR kernels against string-map oracles.
//
// ComputeFrProfileReference and ComputeUrProfileReference below are the
// original string-keyed implementations, kept here only as test oracles.
// Every check compares field by field:
//   - the coded kernels (both the Column wrappers and the ColumnCodes
//     entry points) against the references;
//   - the masked perturbation (kernel with dropped rows) against the
//     reference run on Column::WithoutRows copies;
//   - the EncodedColumn and Column overloads of
//     Extract{Fd,Uniqueness}Candidate against a reference extraction
//     built from the oracles, WithoutRows, and the string-based Prev(C)
//     oracle (tests/reference/prevalence_reference.h). The EncodedColumn
//     overloads leave the key to UniquenessKey / FdKey, which are
//     checked against the same reference key.
// Inputs are randomized columns plus adversarial shapes: whitespace-only
// cells, trim-equal values, empty lhs/rhs rows, majority ties, unequal
// column lengths, and a single lhs group.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus/token_index.h"
#include "featurize/buckets.h"
#include "learn/candidates.h"
#include "learn/table_columns.h"
#include "metrics/metric_functions.h"
#include "reference/prevalence_reference.h"
#include "util/random.h"
#include "util/string_util.h"

namespace unidetect {
namespace {

// ---------------------------------------------------------------------------
// Oracles.

UrProfile ComputeUrProfileReference(const Column& column) {
  UrProfile out;
  std::unordered_map<std::string_view, size_t> first_row;
  size_t total = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    std::string_view cell = Trim(column.cell(row));
    if (cell.empty()) continue;
    ++total;
    auto [it, inserted] = first_row.emplace(cell, row);
    if (!inserted) out.duplicate_rows.push_back(row);
  }
  if (total == 0) return out;
  out.valid = true;
  const double distinct = static_cast<double>(first_row.size());
  out.ur = distinct / static_cast<double>(total);
  const double remaining =
      static_cast<double>(total - out.duplicate_rows.size());
  out.ur_perturbed = remaining > 0 ? distinct / remaining : 1.0;
  return out;
}

FrProfile ComputeFrProfileReference(const Column& lhs, const Column& rhs) {
  FrProfile out;
  const size_t n = std::min(lhs.size(), rhs.size());
  if (n == 0) return out;

  // Group rows by lhs value; within each group count distinct rhs values.
  struct Group {
    std::unordered_map<std::string_view, std::vector<size_t>> rhs_rows;
  };
  std::unordered_map<std::string_view, Group> groups;
  size_t used_rows = 0;
  for (size_t row = 0; row < n; ++row) {
    std::string_view l = Trim(lhs.cell(row));
    std::string_view r = Trim(rhs.cell(row));
    if (l.empty() || r.empty()) continue;
    ++used_rows;
    groups[l].rhs_rows[r].push_back(row);
  }
  if (used_rows == 0) return out;
  if (groups.size() <= 1) return out;

  size_t distinct_pairs = 0;
  size_t conforming_pairs = 0;
  for (auto& [l, group] : groups) {
    distinct_pairs += group.rhs_rows.size();
    if (group.rhs_rows.size() == 1) {
      conforming_pairs += 1;
      continue;
    }
    ++out.violating_groups;
    // Keep the majority rhs (ties: the one appearing first); all rows of
    // the minority rhs values form the perturbation set.
    size_t best_support = 0;
    size_t best_first_row = std::numeric_limits<size_t>::max();
    std::string_view best_rhs;
    for (const auto& [r, rows] : group.rhs_rows) {
      if (rows.size() > best_support ||
          (rows.size() == best_support && rows.front() < best_first_row)) {
        best_support = rows.size();
        best_first_row = rows.front();
        best_rhs = r;
      }
    }
    for (const auto& [r, rows] : group.rhs_rows) {
      if (r == best_rhs) continue;
      out.violating_rows.insert(out.violating_rows.end(), rows.begin(),
                                rows.end());
    }
  }
  out.valid = true;
  out.fr = static_cast<double>(conforming_pairs) /
           static_cast<double>(distinct_pairs);
  out.fr_perturbed = 1.0;
  std::sort(out.violating_rows.begin(), out.violating_rows.end());
  return out;
}

UniquenessCandidate ExtractUniquenessCandidateReference(
    const Column& column, size_t column_position, const TokenPrevalence& index,
    const ModelOptions& options) {
  UniquenessCandidate out;
  if (column.size() < options.min_column_rows) return out;
  const UrProfile profile = ComputeUrProfileReference(column);
  if (!profile.valid) return out;
  const size_t epsilon = options.epsilon.AllowedRows(column.size());
  out.dropped_rows = profile.duplicate_rows;
  if (out.dropped_rows.size() > epsilon) out.dropped_rows.resize(epsilon);
  out.valid = true;
  out.key = UniquenessFeatures(
      column, column_position,
      PrevalenceBucket(PrevalenceReference(index).AveragePrevalence(column)),
      options.featurize);
  out.theta1 = profile.ur;
  if (out.dropped_rows.size() == profile.duplicate_rows.size()) {
    out.theta2 = profile.ur_perturbed;
  } else {
    const UrProfile partial =
        ComputeUrProfileReference(column.WithoutRows(out.dropped_rows));
    out.theta2 = partial.valid ? partial.ur : profile.ur;
  }
  return out;
}

FdCandidate ExtractFdCandidateReference(const Column& lhs, const Column& rhs,
                                        const TokenPrevalence& index,
                                        const ModelOptions& options) {
  FdCandidate out;
  if (lhs.size() < options.min_column_rows) return out;
  const FrProfile profile = ComputeFrProfileReference(lhs, rhs);
  if (!profile.valid) return out;
  const size_t epsilon = options.epsilon.AllowedRows(lhs.size());
  out.dropped_rows = profile.violating_rows;
  if (out.dropped_rows.size() > epsilon) out.dropped_rows.resize(epsilon);
  out.valid = true;
  out.key = FdFeatures(
      lhs, rhs,
      PrevalenceBucket(PrevalenceReference(index).AveragePrevalence(rhs)),
      options.featurize);
  out.theta1 = profile.fr;
  out.violating_groups = profile.violating_groups;
  if (out.dropped_rows.size() == profile.violating_rows.size()) {
    out.theta2 = profile.fr_perturbed;
  } else {
    const FrProfile partial = ComputeFrProfileReference(
        lhs.WithoutRows(out.dropped_rows), rhs.WithoutRows(out.dropped_rows));
    out.theta2 = partial.valid ? partial.fr : profile.fr;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Field-by-field comparisons. Doubles compare exactly: the kernels must
// produce the same bits, not merely close values.

// Rows of `column` that survive WithoutRows(dropped), in order: index i of
// the reduced column is original row kept[i].
std::vector<size_t> KeptRows(size_t size, const std::vector<size_t>& dropped) {
  std::vector<size_t> kept;
  for (size_t row = 0; row < size; ++row) {
    if (std::find(dropped.begin(), dropped.end(), row) == dropped.end()) {
      kept.push_back(row);
    }
  }
  return kept;
}

std::vector<size_t> MapRows(const std::vector<size_t>& rows,
                            const std::vector<size_t>& kept) {
  std::vector<size_t> out;
  for (const size_t row : rows) out.push_back(kept[row]);
  return out;
}

void ExpectSameUr(const UrProfile& actual, const UrProfile& expected,
                  const std::string& context) {
  ASSERT_EQ(actual.valid, expected.valid) << context;
  EXPECT_EQ(actual.ur, expected.ur) << context;
  EXPECT_EQ(actual.ur_perturbed, expected.ur_perturbed) << context;
  EXPECT_EQ(actual.duplicate_rows, expected.duplicate_rows) << context;
}

void ExpectSameFr(const FrProfile& actual, const FrProfile& expected,
                  const std::string& context) {
  ASSERT_EQ(actual.valid, expected.valid) << context;
  EXPECT_EQ(actual.fr, expected.fr) << context;
  EXPECT_EQ(actual.fr_perturbed, expected.fr_perturbed) << context;
  EXPECT_EQ(actual.violating_groups, expected.violating_groups) << context;
  EXPECT_EQ(actual.violating_rows, expected.violating_rows) << context;
}

void ExpectSameCandidate(const UniquenessCandidate& actual,
                         const UniquenessCandidate& expected,
                         const std::string& context) {
  ASSERT_EQ(actual.valid, expected.valid) << context;
  EXPECT_EQ(actual.key.packed, expected.key.packed) << context;
  EXPECT_EQ(actual.theta1, expected.theta1) << context;
  EXPECT_EQ(actual.theta2, expected.theta2) << context;
  EXPECT_EQ(actual.dropped_rows, expected.dropped_rows) << context;
}

void ExpectSameCandidate(const FdCandidate& actual,
                         const FdCandidate& expected,
                         const std::string& context) {
  ASSERT_EQ(actual.valid, expected.valid) << context;
  EXPECT_EQ(actual.key.packed, expected.key.packed) << context;
  EXPECT_EQ(actual.theta1, expected.theta1) << context;
  EXPECT_EQ(actual.theta2, expected.theta2) << context;
  EXPECT_EQ(actual.dropped_rows, expected.dropped_rows) << context;
  EXPECT_EQ(actual.violating_groups, expected.violating_groups) << context;
}

// A small index so Prev(C) is non-trivial and lands in several buckets.
const TokenIndex& TestIndex() {
  static const TokenIndex* index = [] {
    auto* out = new TokenIndex;
    Rng rng(77);
    for (int t = 0; t < 40; ++t) {
      Table table("t");
      std::vector<std::string> cells;
      for (int i = 0; i < 6; ++i) {
        cells.push_back(StrCat("k", rng.NextBounded(6 + t), " v",
                               rng.NextBounded(4)));
      }
      EXPECT_TRUE(table.AddColumn(Column("c", std::move(cells))).ok());
      out->AddTable(table);
    }
    return out;
  }();
  return *index;
}

ModelOptions TestOptions() {
  ModelOptions options;
  options.min_column_rows = 4;
  return options;
}

// Runs every comparison on one (lhs, rhs) pair and one drop set.
void CheckPair(const Column& lhs, const Column& rhs,
               const std::vector<size_t>& dropped, const std::string& context) {
  const ColumnCodes lhs_codes = EncodeColumn(lhs);
  const ColumnCodes rhs_codes = EncodeColumn(rhs);

  const FrProfile fr_ref = ComputeFrProfileReference(lhs, rhs);
  ExpectSameFr(ComputeFrProfile(lhs, rhs), fr_ref, context + " fr/column");
  ExpectSameFr(ComputeFrProfile(lhs_codes, rhs_codes), fr_ref,
               context + " fr/codes");
  const UrProfile ur_ref = ComputeUrProfileReference(lhs);
  ExpectSameUr(ComputeUrProfile(lhs), ur_ref, context + " ur/column");
  ExpectSameUr(ComputeUrProfile(lhs_codes), ur_ref, context + " ur/codes");

  // Masked perturbation vs WithoutRows copies; the reference reports
  // reduced-column indices, the kernel original ones.
  const std::vector<size_t> kept = KeptRows(lhs.size(), dropped);
  FrProfile fr_partial = ComputeFrProfileReference(lhs.WithoutRows(dropped),
                                                   rhs.WithoutRows(dropped));
  fr_partial.violating_rows = MapRows(fr_partial.violating_rows, kept);
  ExpectSameFr(ComputeFrProfile(lhs_codes, rhs_codes, dropped), fr_partial,
               context + " fr/masked");
  UrProfile ur_partial = ComputeUrProfileReference(lhs.WithoutRows(dropped));
  ur_partial.duplicate_rows = MapRows(ur_partial.duplicate_rows, kept);
  ExpectSameUr(ComputeUrProfile(lhs_codes, dropped), ur_partial,
               context + " ur/masked");

  // Extractors: encoded overload, Column overload, reference.
  const TokenPrevalence prevalence(TestIndex());
  const ModelOptions options = TestOptions();
  const EncodedColumn lhs_encoded(lhs, prevalence);
  const EncodedColumn rhs_encoded(rhs, prevalence);
  const FdCandidate fd_ref =
      ExtractFdCandidateReference(lhs, rhs, prevalence, options);
  FdCandidate fd_encoded =
      ExtractFdCandidate(lhs_encoded, rhs_encoded, options);
  EXPECT_EQ(fd_encoded.key.packed, FeatureKey{}.packed) << context;
  if (fd_encoded.valid) {
    fd_encoded.key = FdKey(lhs_encoded, rhs_encoded, options);
  }
  ExpectSameCandidate(fd_encoded, fd_ref, context + " fd/encoded");
  ExpectSameCandidate(ExtractFdCandidate(lhs, rhs, prevalence, options),
                      fd_ref, context + " fd/column");
  const UniquenessCandidate ur_cand_ref =
      ExtractUniquenessCandidateReference(lhs, 1, prevalence, options);
  UniquenessCandidate ur_encoded =
      ExtractUniquenessCandidate(lhs_encoded, options);
  EXPECT_EQ(ur_encoded.key.packed, FeatureKey{}.packed) << context;
  if (ur_encoded.valid) {
    ur_encoded.key = UniquenessKey(lhs_encoded, 1, options);
  }
  ExpectSameCandidate(ur_encoded, ur_cand_ref,
                      context + " uniqueness/encoded");
  ExpectSameCandidate(
      ExtractUniquenessCandidate(lhs, 1, prevalence, options), ur_cand_ref,
      context + " uniqueness/column");
}

// ---------------------------------------------------------------------------
// Randomized inputs.

// Cells drawn from a tiny vocabulary so groups, duplicates, and
// violations are common; the decorated variants are trim-equal or
// whitespace-only.
std::string RandomCell(Rng& rng, size_t vocabulary) {
  const std::string base = StrCat("v", rng.NextBounded(vocabulary));
  switch (rng.NextBounded(10)) {
    case 0:
      return "";
    case 1:
      return rng.Bernoulli(0.5) ? "  " : "\t";
    case 2:
      return " " + base;
    case 3:
      return base + "  ";
    default:
      return base;
  }
}

class CodedKernelsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodedKernelsPropertyTest, MatchesReferenceOnRandomColumns) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const size_t rows = 1 + rng.NextBounded(60);
    // Mostly equal lengths; sometimes the rhs is shorter or longer.
    const size_t rhs_rows =
        rng.Bernoulli(0.8) ? rows : 1 + rng.NextBounded(60);
    const size_t lhs_vocab = 1 + rng.NextBounded(12);
    const size_t rhs_vocab = 1 + rng.NextBounded(6);
    std::vector<std::string> lhs_cells;
    std::vector<std::string> rhs_cells;
    for (size_t i = 0; i < rows; ++i) {
      lhs_cells.push_back(RandomCell(rng, lhs_vocab));
    }
    for (size_t i = 0; i < rhs_rows; ++i) {
      // Mostly a function of the lhs (a near-FD), sometimes noise.
      if (i < rows && rng.Bernoulli(0.8)) {
        rhs_cells.push_back(
            StrCat("r", std::hash<std::string_view>{}(Trim(lhs_cells[i])) %
                            rhs_vocab));
      } else {
        rhs_cells.push_back(RandomCell(rng, rhs_vocab));
      }
    }
    // Drop sets: unsorted, with duplicates and out-of-range indices.
    std::vector<size_t> dropped;
    const size_t drops = rng.NextBounded(6);
    for (size_t d = 0; d < drops; ++d) {
      dropped.push_back(rng.NextBounded(rows + 3));
    }
    CheckPair(Column("l", lhs_cells), Column("r", rhs_cells), dropped,
              StrCat("seed=", GetParam(), " trial=", trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodedKernelsPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Adversarial shapes.

TEST(CodedKernelsTest, WhitespaceOnlyCellsAreEmpty) {
  const Column lhs("l", {"  ", "\t", "", "a", "a", "b", " \n", "b"});
  const Column rhs("r", {"x", "y", "z", "x", "y", "", "x", "z"});
  CheckPair(lhs, rhs, {}, "whitespace");
  CheckPair(lhs, rhs, {3}, "whitespace/drop");
  const ColumnCodes codes = EncodeColumn(lhs);
  EXPECT_EQ(codes.codes, (std::vector<uint32_t>{0, 0, 0, 1, 1, 2, 0, 2}));
  EXPECT_EQ(codes.distinct, 2u);
}

TEST(CodedKernelsTest, TrimEqualValuesShareACode) {
  const Column lhs("l", {" a", "a", "a ", "b", " b ", "c", "c", "c"});
  const Column rhs("r", {"1", " 1", "2", "3", "3", "4 ", "4", " 5"});
  CheckPair(lhs, rhs, {}, "trim");
  CheckPair(lhs, rhs, {2, 7}, "trim/drop");
  const ColumnCodes codes = EncodeColumn(lhs);
  EXPECT_EQ(codes.codes, (std::vector<uint32_t>{1, 1, 1, 2, 2, 3, 3, 3}));
}

TEST(CodedKernelsTest, EmptyLhsAndRhsRowsAreSkipped) {
  const Column lhs("l", {"", "a", "a", "b", "b", "", "c", "c"});
  const Column rhs("r", {"x", "", "y", "z", "z", "", "w", "q"});
  CheckPair(lhs, rhs, {}, "empty");
  CheckPair(lhs, rhs, {6}, "empty/drop");
  CheckPair(Column("l", {"", "", ""}), Column("r", {"x", "y", "z"}), {},
            "all-empty-lhs");
  CheckPair(Column("l", {"a", "b", "a"}), Column("r", {" ", "", "\t"}), {},
            "all-empty-rhs");
}

TEST(CodedKernelsTest, MajorityTieKeepsFirstRhs) {
  // Group "k" has rhs y, x, x, y: a 2-2 tie, and y occurs first, so the
  // x rows (1, 2) are the perturbation.
  const Column lhs("l", {"k", "k", "k", "k", "m", "m"});
  const Column rhs("r", {"y", "x", "x", "y", "z", "z"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.violating_rows, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(profile.violating_groups, 1u);
  CheckPair(lhs, rhs, {}, "tie");
  CheckPair(lhs, rhs, {0}, "tie/drop-first");

  // Three-way tie: the earliest of the tied rhs wins.
  const Column lhs3("l", {"k", "k", "k", "m", "m"});
  const Column rhs3("r", {"c", "b", "a", "z", "z"});
  EXPECT_EQ(ComputeFrProfile(lhs3, rhs3).violating_rows,
            (std::vector<size_t>{1, 2}));
  CheckPair(lhs3, rhs3, {}, "tie3");
}

TEST(CodedKernelsTest, UnequalColumnLengths) {
  const Column lhs("l", {"a", "a", "b", "b", "c", "c", "d", "d", "e"});
  const Column rhs("r", {"1", "2", "3", "3", "4", "5"});
  CheckPair(lhs, rhs, {}, "lhs-longer");
  CheckPair(lhs, rhs, {1, 7}, "lhs-longer/drop");
  CheckPair(rhs, lhs, {}, "rhs-longer");
  CheckPair(rhs, lhs, {0, 8}, "rhs-longer/drop");
  CheckPair(Column("l", {}), lhs, {}, "empty-lhs-column");
}

TEST(CodedKernelsTest, SingleLhsGroupIsInvalid) {
  const Column lhs("l", {"k", " k", "k ", "k", "", "k"});
  const Column rhs("r", {"1", "2", "1", "1", "3", "2"});
  EXPECT_FALSE(ComputeFrProfile(lhs, rhs).valid);
  CheckPair(lhs, rhs, {}, "single-group");
  // Dropping rows can collapse a two-group pair to one group.
  const Column two("l", {"k", "k", "m", "k"});
  const Column two_rhs("r", {"1", "2", "3", "1"});
  EXPECT_FALSE(ComputeFrProfile(EncodeColumn(two), EncodeColumn(two_rhs),
                                std::vector<size_t>{2})
                   .valid);
  CheckPair(two, two_rhs, {2}, "collapse-to-one-group");
}

TEST(CodedKernelsTest, TableColumnsSharesOneEncodingPerColumn) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column("a", {"1", "1", "2", "3"})).ok());
  ASSERT_TRUE(table.AddColumn(Column("b", {"x", "y", "z", "z"})).ok());
  const TokenPrevalence prevalence(TestIndex());
  const TableColumns columns(table, prevalence);
  ASSERT_EQ(&columns.table(), &table);
  const ColumnCodes* first = &columns.column(1).codes();
  EXPECT_EQ(&columns.column(1).codes(), first);  // built once, then reused
  EXPECT_EQ(first->codes, EncodeColumn(table.column(1)).codes);
  EXPECT_EQ(columns.column(0).prevalence(),
            PrevalenceReference(prevalence).AveragePrevalence(table.column(0)));
}

}  // namespace
}  // namespace unidetect
