// The FD and uniqueness detectors screen candidates before building
// them (DESIGN.md section 17.6): a pair or column goes on to the full
// candidate only when its violating-row (duplicate) count V satisfies
// 1 <= V <= epsilon. These tests pin the screens to the gate they stand
// in for, `valid && !dropped_rows.empty() && theta2 >= 1.0` on the full
// candidate:
//
//   - FdGateScreenTest: FdGateScreen::CanPass against the full FD
//     candidate on random column pairs and on hand-built edges: empty
//     cells on either side, majority ties, V in {0, epsilon,
//     epsilon + 1}, a single-group lhs, an all-distinct lhs, the
//     min_column_rows edge and columns of unequal length.
//   - UniquenessGateScreenTest: UniquenessGateCanPass against the full
//     uniqueness candidate, at the same edges.
//   - ScreenedDetectorsTest: the FD and uniqueness detectors' findings
//     against a reference loop over full candidates (the detectors'
//     bodies before the screens), on injected Enterprise and WEB
//     corpora.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/token_index.h"
#include "detect/fd_detector.h"
#include "detect/finding_json.h"
#include "detect/uniqueness_detector.h"
#include "eval/injection.h"
#include "learn/candidates.h"
#include "learn/model_stack.h"
#include "learn/table_columns.h"
#include "learn/trainer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace unidetect {
namespace {

// The screens read codes only, never Prev(C).
const TokenPrevalence& NoPrevalence() {
  static const TokenPrevalence* prevalence =
      new TokenPrevalence(std::vector<const TokenIndex*>{});
  return *prevalence;
}

template <typename Candidate>
bool FullGate(const Candidate& cand) {
  return cand.valid && !cand.dropped_rows.empty() && cand.theta2 >= 1.0;
}

// Options with epsilon = `rows` at any column size.
ModelOptions OptionsWithEpsilon(size_t rows) {
  ModelOptions options;
  options.epsilon.min_rows = rows;
  options.epsilon.fraction = 0.0;
  return options;
}

bool ScreenSays(const Column& lhs, const Column& rhs,
                const ModelOptions& options) {
  const EncodedColumn lhs_encoded(lhs, NoPrevalence());
  const EncodedColumn rhs_encoded(rhs, NoPrevalence());
  FdGateScreen screen(lhs_encoded, options);
  return screen.CanPass(rhs_encoded);
}

bool GateSays(const Column& lhs, const Column& rhs,
              const ModelOptions& options) {
  return FullGate(ExtractFdCandidate(EncodedColumn(lhs, NoPrevalence()),
                                     EncodedColumn(rhs, NoPrevalence()),
                                     options));
}

// Checks the screen against the full gate and returns the gate.
bool ExpectAgree(const Column& lhs, const Column& rhs,
                 const ModelOptions& options) {
  const bool gate = GateSays(lhs, rhs, options);
  EXPECT_EQ(ScreenSays(lhs, rhs, options), gate)
      << "epsilon=" << options.epsilon.AllowedRows(lhs.size())
      << " rows=" << lhs.size();
  return gate;
}

Column MakeColumn(std::vector<std::string> cells) {
  return Column("c", std::move(cells));
}

// ---------------------------------------------------------------------------
// FD screen.

TEST(FdGateScreenTest, AgreesWithTheFullCandidateOnRandomPairs) {
  Rng rng(0xFD5C);
  size_t passed = 0;
  size_t violated = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t rows = 6 + rng.NextBounded(40);
    const size_t lhs_values = 1 + rng.NextBounded(8);
    const size_t rhs_values = 1 + rng.NextBounded(5);
    // A dependency the rhs mostly follows, so V lands near epsilon.
    std::vector<std::string> lhs(rows);
    std::vector<std::string> rhs(rows);
    for (size_t row = 0; row < rows; ++row) {
      const size_t l = rng.NextBounded(lhs_values);
      lhs[row] = "L" + std::to_string(l);
      rhs[row] = rng.NextBounded(6) == 0
                     ? "R" + std::to_string(rng.NextBounded(rhs_values))
                     : "R" + std::to_string(l % rhs_values);
      if (rng.NextBounded(10) == 0) lhs[row] = rng.NextBounded(2) ? "" : " ";
      if (rng.NextBounded(10) == 0) rhs[row] = "";
    }
    const ModelOptions options = OptionsWithEpsilon(rng.NextBounded(6));
    const FdCandidate cand = ExtractFdCandidate(
        EncodedColumn(MakeColumn(lhs), NoPrevalence()),
        EncodedColumn(MakeColumn(rhs), NoPrevalence()), options);
    if (cand.valid && cand.theta1 < 1.0) ++violated;
    if (ExpectAgree(MakeColumn(lhs), MakeColumn(rhs), options)) ++passed;
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
  // Both outcomes occur often, so the agreement is not vacuous.
  EXPECT_GT(passed, 400u);
  EXPECT_GT(violated - passed, 400u);
}

// Eight rows in two lhs groups; `minority` (at most 3) of group "a"'s
// six rows get a second rhs value, so V = minority.
std::vector<std::string> Lhs8() {
  return {"a", "a", "a", "a", "a", "a", "b", "b"};
}
std::vector<std::string> RhsWithMinority(size_t minority) {
  std::vector<std::string> rhs = {"x", "x", "x", "x", "x", "x", "y", "y"};
  for (size_t k = 0; k < minority; ++k) rhs[k] = "z";
  return rhs;
}

TEST(FdGateScreenTest, ViolatingRowsAtZeroEpsilonAndOnePastIt) {
  const ModelOptions options = OptionsWithEpsilon(2);  // epsilon = 2
  ASSERT_EQ(options.epsilon.AllowedRows(8), 2u);
  const Column lhs = MakeColumn(Lhs8());
  // V = 0: the dependency holds, nothing to drop.
  EXPECT_FALSE(ExpectAgree(lhs, MakeColumn(RhsWithMinority(0)), options));
  // V = 1 and V = epsilon: the whole drop fits.
  EXPECT_TRUE(ExpectAgree(lhs, MakeColumn(RhsWithMinority(1)), options));
  EXPECT_TRUE(ExpectAgree(lhs, MakeColumn(RhsWithMinority(2)), options));
  // V = epsilon + 1 (a 3-3 tie): a minority row outlives the drop.
  EXPECT_FALSE(ExpectAgree(lhs, MakeColumn(RhsWithMinority(3)), options));
  // V spread over both groups: 2 in "a" and 1 in "b" (a 1-1 tie).
  std::vector<std::string> rhs = RhsWithMinority(2);
  rhs[7] = "q";
  EXPECT_FALSE(ExpectAgree(lhs, MakeColumn(rhs), options));
  rhs[1] = "x";  // now 1 + 1
  EXPECT_TRUE(ExpectAgree(lhs, MakeColumn(rhs), options));
  // epsilon = 0 drops nothing, so nothing passes.
  EXPECT_FALSE(ExpectAgree(lhs, MakeColumn(RhsWithMinority(1)),
                           OptionsWithEpsilon(0)));
}

TEST(FdGateScreenTest, MajorityTiesCountTheSameRows) {
  const ModelOptions options = OptionsWithEpsilon(2);
  // Group "a" splits 2-2 between x and z: V = 2 whichever is kept.
  const Column lhs = MakeColumn({"a", "a", "a", "a", "b", "b", "b", "b"});
  EXPECT_TRUE(ExpectAgree(
      lhs, MakeColumn({"x", "z", "z", "x", "y", "y", "y", "y"}), options));
  // Group "a" keeps x (2 of 4) and group "b" splits 2-2: V = 2 + 2.
  EXPECT_FALSE(ExpectAgree(
      lhs, MakeColumn({"x", "z", "w", "x", "y", "v", "v", "y"}), options));
  // A three-way 1-1-1 tie: V = 2.
  EXPECT_TRUE(ExpectAgree(
      MakeColumn({"a", "a", "a", "b", "b", "b", "b", "b"}),
      MakeColumn({"x", "z", "w", "y", "y", "y", "y", "y"}), options));
  // The same tie with one more row: V = 3.
  EXPECT_FALSE(ExpectAgree(
      MakeColumn({"a", "a", "a", "a", "b", "b", "b", "b"}),
      MakeColumn({"x", "z", "w", "q", "y", "y", "y", "y"}), options));
}

TEST(FdGateScreenTest, EmptyCellsOnEitherSideAreNotScored) {
  const ModelOptions options = OptionsWithEpsilon(2);
  // Three minority rows, but two of them have an empty lhs: V = 1.
  EXPECT_TRUE(ExpectAgree(
      MakeColumn({"a", "", " ", "a", "a", "a", "b", "b"}),
      MakeColumn({"z", "z", "z", "x", "x", "x", "y", "y"}), options));
  // The same with the minority rows' rhs empty instead.
  EXPECT_TRUE(ExpectAgree(
      MakeColumn({"a", "a", "a", "a", "a", "a", "b", "b"}),
      MakeColumn({"z", "", "  ", "x", "x", "x", "y", "y"}), options));
  // With every cell filled, the same rows give V = 3.
  EXPECT_FALSE(ExpectAgree(
      MakeColumn({"a", "a", "a", "a", "a", "a", "b", "b"}),
      MakeColumn({"z", "z", "z", "x", "x", "x", "y", "y"}), options));
  // Empty rhs cells leave group "b" with no scored row: one group.
  EXPECT_FALSE(ExpectAgree(
      MakeColumn({"a", "a", "a", "a", "a", "b", "b", "b"}),
      MakeColumn({"z", "x", "x", "x", "x", "", "", ""}), options));
  // Every rhs cell empty: no scored row at all.
  EXPECT_FALSE(ExpectAgree(MakeColumn(Lhs8()),
                           MakeColumn(std::vector<std::string>(8, "")),
                           options));
}

TEST(FdGateScreenTest, DegenerateLhsNeverPasses) {
  const ModelOptions options = OptionsWithEpsilon(2);
  // A single-group (constant) lhs with V = 1.
  EXPECT_FALSE(ExpectAgree(
      MakeColumn(std::vector<std::string>(8, "k")),
      MakeColumn({"z", "x", "x", "x", "x", "x", "x", "x"}), options));
  // An all-distinct lhs: every group is one row, V = 0.
  EXPECT_FALSE(ExpectAgree(
      MakeColumn({"1", "2", "3", "4", "5", "6", "7", "8"}),
      MakeColumn({"z", "x", "x", "y", "x", "x", "x", "x"}), options));
  // All distinct apart from empty cells.
  EXPECT_FALSE(ExpectAgree(
      MakeColumn({"1", "", "3", "", "5", "6", "7", "8"}),
      MakeColumn({"z", "x", "x", "y", "x", "x", "x", "x"}), options));
}

TEST(FdGateScreenTest, MinColumnRowsEdge) {
  ModelOptions options = OptionsWithEpsilon(2);
  options.min_column_rows = 8;
  const Column rhs = MakeColumn(RhsWithMinority(1));
  EXPECT_TRUE(ExpectAgree(MakeColumn(Lhs8()), rhs, options));
  options.min_column_rows = 9;
  EXPECT_FALSE(ExpectAgree(MakeColumn(Lhs8()), rhs, options));
}

TEST(FdGateScreenTest, UnequalLengthsScoreTheSharedRows) {
  const ModelOptions options = OptionsWithEpsilon(2);
  // The rhs ends before the lhs: rows 6.. of the lhs are not scored, so
  // V counts the minority rows of the shared prefix only (3, then 2).
  const Column lhs = MakeColumn(
      {"a", "b", "a", "b", "a", "b", "a", "a", "b", "b", "a", "b"});
  EXPECT_FALSE(ExpectAgree(lhs, MakeColumn({"z", "y", "x", "y", "w", "q"}),
                           options));
  EXPECT_TRUE(ExpectAgree(lhs, MakeColumn({"z", "y", "x", "y", "x", "w"}),
                          options));
  // The lhs ends first.
  EXPECT_TRUE(ExpectAgree(
      MakeColumn(Lhs8()),
      MakeColumn({"z", "x", "x", "x", "x", "y", "y", "y", "q", "q"}),
      options));
}

TEST(FdGateScreenTest, OneScreenServesManyRhsColumns) {
  // The screen's count array is reused across rhs columns of different
  // dictionary sizes, and a pair that stops counting early must leave it
  // clean for the next one.
  const ModelOptions options = OptionsWithEpsilon(2);
  const Column lhs = MakeColumn(Lhs8());
  const EncodedColumn lhs_encoded(lhs, NoPrevalence());
  FdGateScreen screen(lhs_encoded, options);
  const std::vector<std::vector<std::string>> rhs_columns = {
      {"p", "q", "r", "s", "t", "u", "v", "w"},  // stops early, V > 2
      RhsWithMinority(1),
      {"z", "z", "z", "x", "x", "y", "y", "y"},
      RhsWithMinority(2),
      {"1", "2", "1", "2", "1", "2", "1", "2"},
      RhsWithMinority(0)};
  for (size_t k = 0; k < rhs_columns.size(); ++k) {
    const Column rhs = MakeColumn(rhs_columns[k]);
    EXPECT_EQ(screen.CanPass(EncodedColumn(rhs, NoPrevalence())),
              GateSays(lhs, rhs, options))
        << "rhs " << k;
  }
}

// ---------------------------------------------------------------------------
// Uniqueness screen.

bool ExpectUniquenessAgree(const Column& column, const ModelOptions& options) {
  const EncodedColumn encoded(column, NoPrevalence());
  const bool gate = FullGate(ExtractUniquenessCandidate(encoded, options));
  EXPECT_EQ(UniquenessGateCanPass(encoded, options), gate)
      << "epsilon=" << options.epsilon.AllowedRows(column.size());
  return gate;
}

TEST(UniquenessGateScreenTest, AgreesWithTheFullCandidate) {
  Rng rng(0x0D0B);
  size_t passed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t rows = 4 + rng.NextBounded(30);
    const size_t values = std::max<size_t>(1, rows - rng.NextBounded(8));
    std::vector<std::string> cells(rows);
    for (size_t row = 0; row < rows; ++row) {
      cells[row] = rng.NextBounded(8) == 0
                       ? ""
                       : "v" + std::to_string(rng.NextBounded(values));
    }
    const ModelOptions options = OptionsWithEpsilon(rng.NextBounded(6));
    if (ExpectUniquenessAgree(MakeColumn(cells), options)) ++passed;
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial;
      return;
    }
  }
  EXPECT_GT(passed, 300u);
}

TEST(UniquenessGateScreenTest, DuplicatesAtZeroEpsilonAndOnePastIt) {
  const ModelOptions options = OptionsWithEpsilon(2);
  EXPECT_FALSE(ExpectUniquenessAgree(
      MakeColumn({"1", "2", "3", "4", "5", "6", "7", "8"}), options));
  EXPECT_TRUE(ExpectUniquenessAgree(
      MakeColumn({"1", "2", "3", "4", "5", "6", "7", "1"}), options));
  EXPECT_TRUE(ExpectUniquenessAgree(
      MakeColumn({"1", "2", "3", "4", "5", "1", "7", "1"}), options));
  EXPECT_FALSE(ExpectUniquenessAgree(
      MakeColumn({"1", "2", "3", "1", "5", "1", "7", "1"}), options));
  // Empty cells are never duplicates of each other.
  EXPECT_TRUE(ExpectUniquenessAgree(
      MakeColumn({"", "2", " ", "", "5", "", "7", "2"}), options));
  EXPECT_FALSE(ExpectUniquenessAgree(
      MakeColumn(std::vector<std::string>(8, "")), options));
  EXPECT_FALSE(ExpectUniquenessAgree(
      MakeColumn({"1", "2", "3", "4", "5", "6", "7", "1"}),
      OptionsWithEpsilon(0)));
}

TEST(UniquenessGateScreenTest, MinColumnRowsEdge) {
  ModelOptions options = OptionsWithEpsilon(2);
  const Column column = MakeColumn({"1", "2", "3", "4", "5", "6", "7", "1"});
  options.min_column_rows = 8;
  EXPECT_TRUE(ExpectUniquenessAgree(column, options));
  options.min_column_rows = 9;
  EXPECT_FALSE(ExpectUniquenessAgree(column, options));
}

// ---------------------------------------------------------------------------
// Detector level.

const Model& SharedModel() {
  static const Model* model = [] {
    SetLogLevel(LogLevel::kWarning);
    return new Model(
        Trainer().Train(GenerateCorpus(WebCorpusSpec(400, 1901)).corpus));
  }();
  return *model;
}

// The FD detector's body before the screen: every pair up to the cap
// builds its full candidate and meets the gate.
void ReferenceFd(const ModelStack& model, const TableColumns& columns,
                 size_t max_pairs, std::vector<Finding>* out) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  size_t pairs = 0;
  for (size_t l = 0; l < table.num_columns(); ++l) {
    for (size_t r = 0; r < table.num_columns(); ++r) {
      if (l == r) continue;
      if (pairs >= max_pairs) return;
      ++pairs;
      const FdCandidate cand =
          ExtractFdCandidate(columns.column(l), columns.column(r), options);
      if (!FullGate(cand)) continue;
      const double lr = model.LikelihoodRatio(
          ErrorClass::kFd, FdKey(columns.column(l), columns.column(r), options),
          cand.theta1, cand.theta2);
      if (lr >= 1.0) continue;
      Finding finding;
      finding.error_class = ErrorClass::kFd;
      finding.table_name = table.name();
      finding.column = l;
      finding.column2 = r;
      finding.rows = cand.dropped_rows;
      finding.value = table.column(l).cell(cand.dropped_rows.front()) +
                      " -> " +
                      table.column(r).cell(cand.dropped_rows.front());
      finding.score = lr;
      finding.explanation =
          StrCat("FR(", table.column(l).name(), " -> ",
                 table.column(r).name(), ") ", cand.theta1, " -> ",
                 cand.theta2, " after dropping ", cand.dropped_rows.size(),
                 " violating row(s), LR=", lr);
      out->push_back(std::move(finding));
    }
  }
}

// The uniqueness detector's body before the screen.
void ReferenceUniqueness(const ModelStack& model, const TableColumns& columns,
                         std::vector<Finding>* out) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const UniquenessCandidate cand =
        ExtractUniquenessCandidate(columns.column(c), options);
    if (!FullGate(cand)) continue;
    const double lr = model.LikelihoodRatio(
        ErrorClass::kUniqueness, UniquenessKey(columns.column(c), c, options),
        cand.theta1, cand.theta2);
    if (lr >= 1.0) continue;
    Finding finding;
    finding.error_class = ErrorClass::kUniqueness;
    finding.table_name = table.name();
    finding.column = c;
    finding.rows = cand.dropped_rows;
    finding.value = table.column(c).cell(cand.dropped_rows.front());
    finding.score = lr;
    finding.explanation =
        StrCat("UR ", cand.theta1, " -> ", cand.theta2, " after dropping ",
               cand.dropped_rows.size(), " duplicate(s) like '",
               finding.value, "', LR=", lr);
    out->push_back(std::move(finding));
  }
}

// Runs both detectors and both reference loops over every table of the
// injected corpus and compares the findings JSON byte for byte.
void ExpectDetectorsMatchReference(const CorpusSpec& spec, uint64_t seed,
                                   size_t max_fd_pairs) {
  AnnotatedCorpus corpus = GenerateCorpus(spec);
  InjectionSpec injection;
  injection.seed = seed;
  InjectErrors(&corpus, injection);

  const ModelStack model = ModelStack::Borrow(&SharedModel());
  const FdDetector fd(&model, max_fd_pairs);
  const UniquenessDetector uniqueness(&model);
  size_t fd_findings = 0;
  size_t uniqueness_findings = 0;
  for (const Table& table : corpus.corpus.tables) {
    std::vector<Finding> fd_got;
    std::vector<Finding> fd_want;
    std::vector<Finding> ur_got;
    std::vector<Finding> ur_want;
    {
      const TableColumns columns(table, model.token_prevalence());
      fd.Detect(columns, &fd_got);
      uniqueness.Detect(columns, &ur_got);
    }
    {
      const TableColumns columns(table, model.token_prevalence());
      ReferenceFd(model, columns, max_fd_pairs, &fd_want);
      ReferenceUniqueness(model, columns, &ur_want);
    }
    ASSERT_EQ(FindingsToJson(fd_got), FindingsToJson(fd_want)) << table.name();
    ASSERT_EQ(FindingsToJson(ur_got), FindingsToJson(ur_want)) << table.name();
    fd_findings += fd_want.size();
    uniqueness_findings += ur_want.size();
  }
  // The corpora raise findings of both classes, so the comparison bites.
  EXPECT_GT(fd_findings, 0u);
  EXPECT_GT(uniqueness_findings, 0u);
}

TEST(ScreenedDetectorsTest, EnterpriseFindingsMatchFullCandidates) {
  ExpectDetectorsMatchReference(EnterpriseCorpusSpec(48, 1902), 1903, 30);
}

TEST(ScreenedDetectorsTest, WebFindingsMatchFullCandidates) {
  ExpectDetectorsMatchReference(WebCorpusSpec(300, 1904), 1905, 30);
}

TEST(ScreenedDetectorsTest, PairCapStillCountsScreenedPairs) {
  // Screened-out pairs use up the cap exactly as full candidates did.
  ExpectDetectorsMatchReference(EnterpriseCorpusSpec(24, 1906), 1907, 3);
}

}  // namespace
}  // namespace unidetect
