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
//
// The spelling detector screens columns before the MPD scan instead:
// SpellingGateCanPass asks the model for LR(key, 1, cap + 1), the least
// LR any MPD transition can score under the default LR mode, for every
// key the column can have. Pinned here by:
//
//   - SpellingGateScreenTest: the lemma behind the screen (no point of
//     the integer (theta1, theta2) grid scores below the corner, on
//     random subsets and layered stacks), and a hand-built column whose
//     real transition sits on the corner's theta1 = 1 and
//     theta2 = cap + 1 edges.
//   - ScreenedDetectorsTest.Spelling*: the spelling detector's findings
//     against its body before the screen at alpha in {0.01, 0.05, 0.5,
//     1}, over a flat model, a base+delta stack, featurization off, and
//     the non-monotone kPoint and kCleanTail modes, where nothing may be
//     skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/token_index.h"
#include "detect/fd_detector.h"
#include "detect/finding_json.h"
#include "detect/spelling_detector.h"
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
// Spelling screen.

// A model holding only `observations` (pre, post) under `key`.
std::shared_ptr<const Model> ModelWith(
    FeatureKey key, const std::vector<std::pair<double, double>>& observations,
    const ModelOptions& options = {}) {
  auto model = std::make_shared<Model>(options);
  for (const auto& [pre, post] : observations) {
    model->AddObservation(key, pre, post);
  }
  model->Finalize();
  return model;
}

TEST(SpellingGateScreenTest, NoPointOfTheGridScoresBelowTheCorner) {
  // The lemma: under kRange with kSuspiciousTail, num = #(pre <= theta1
  // and post >= theta2) and den = #(pre <= theta2), so LR only grows as
  // theta1 grows or theta2 shrinks, and the support and den gates hold
  // hardest at the corner. Random subsets sit around min_support so the
  // gates fire, on one layer and split over two.
  const ModelOptions options;
  const size_t far = options.mpd.distance_cap + 1;
  const FeatureKey key = SpellingFeatures(MakeColumn({"a"}), 0, {});
  Rng rng(0x5BE1);
  size_t below_one = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::pair<double, double>> base;
    std::vector<std::pair<double, double>> delta;
    const size_t n = 10 + rng.NextBounded(80);
    // Skewed toward small pres, as real MPDs are, so tails vary.
    const size_t pre_span = 1 + rng.NextBounded(far);
    for (size_t k = 0; k < n; ++k) {
      const double pre = static_cast<double>(1 + rng.NextBounded(pre_span));
      const double post = static_cast<double>(1 + rng.NextBounded(far));
      (rng.NextBounded(3) == 0 ? delta : base).emplace_back(pre, post);
    }
    std::vector<std::pair<double, double>> all = base;
    all.insert(all.end(), delta.begin(), delta.end());
    const ModelStack flat({ModelWith(key, all, options)});
    const ModelStack layered(
        {ModelWith(key, base, options), ModelWith(key, delta, options)});
    for (const ModelStack* model : {&flat, &layered}) {
      const double corner = model->LikelihoodRatio(
          ErrorClass::kSpelling, key, 1.0, static_cast<double>(far));
      if (corner < 1.0) ++below_one;
      for (size_t theta1 = 1; theta1 <= far; ++theta1) {
        for (size_t theta2 = 1; theta2 <= far; ++theta2) {
          const double lr = model->LikelihoodRatio(
              ErrorClass::kSpelling, key, static_cast<double>(theta1),
              static_cast<double>(theta2));
          ASSERT_GE(lr, corner) << "trial " << trial << " theta1=" << theta1
                                << " theta2=" << theta2;
        }
      }
    }
  }
  // The corner is often an LR below 1, so the bound is not vacuous.
  EXPECT_GT(below_one, 100u);
}

// Eight distinct 30-byte values, each differing from the others in every
// byte except for one pair at distance 1: theta1 = 1, and dropping an
// endpoint leaves every distance past the cap, so theta2 = cap + 1.
Column FarApartWithOneClosePair() {
  std::vector<std::string> cells;
  for (char c = 'a'; c < 'h'; ++c) cells.push_back(std::string(30, c));
  cells.push_back(std::string(29, 'a') + "z");
  return MakeColumn(std::move(cells));
}

TEST(SpellingGateScreenTest, FindsTheTransitionOnTheCornersEdges) {
  const Column column = FarApartWithOneClosePair();
  const ModelOptions options;
  const double far = static_cast<double>(options.mpd.distance_cap + 1);
  const EncodedColumn encoded(column, NoPrevalence());
  const SpellingCandidate cand = ExtractSpellingCandidate(encoded, options);
  ASSERT_TRUE(cand.valid);
  ASSERT_EQ(cand.theta1, 1.0);
  ASSERT_EQ(cand.theta2, far);
  // Twenty observations with pre 2 and post cap + 1, twenty with pre
  // cap + 1, split over two layers. At (1, cap + 1): num = 0 and
  // den = 40, so LR = 1/42. Screening at theta1 = 2 would read num = 20
  // (LR = 1/2); screening at theta2 = cap would read den = 20, below
  // min_support (LR = 1). Either would skip the column.
  std::vector<std::pair<double, double>> low(20, {2.0, far});
  std::vector<std::pair<double, double>> high(20, {far, far});
  const ModelStack model(
      {ModelWith(cand.key, low, options), ModelWith(cand.key, high, options)});
  ASSERT_DOUBLE_EQ(model.LikelihoodRatio(ErrorClass::kSpelling, cand.key,
                                         cand.theta1, cand.theta2),
                   1.0 / 42.0);
  EXPECT_TRUE(SpellingGateCanPass(encoded, model, 0.05));
  // The bar is strict: LR = 1/42 is not below alpha = 1/42.
  EXPECT_FALSE(SpellingGateCanPass(encoded, model, 1.0 / 42.0));

  Table table("far");
  ASSERT_TRUE(table.AddColumn(column).ok());
  const TableColumns columns(table, NoPrevalence());
  std::vector<Finding> findings;
  SpellingDetector(&model, 0.05).Detect(columns, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_DOUBLE_EQ(findings[0].score, 1.0 / 42.0);
}

TEST(SpellingGateScreenTest, ColumnsWithoutACandidateNeverPass) {
  const ModelOptions options;
  const FeatureKey key =
      SpellingFeatures(FarApartWithOneClosePair(), 0, options.featurize);
  // Any subset with support would do; this one makes every LR small.
  const ModelStack model({ModelWith(
      key, std::vector<std::pair<double, double>>(60, {21.0, 21.0}))});
  const Column numbers =
      MakeColumn({"1", "2", "3", "4", "5", "6", "7", "8", "9"});
  EXPECT_FALSE(SpellingGateCanPass(EncodedColumn(numbers, NoPrevalence()),
                                   model, 1.0));
  const Column short_column = MakeColumn({"ab", "ac", "ad"});
  EXPECT_FALSE(SpellingGateCanPass(
      EncodedColumn(short_column, NoPrevalence()), model, 1.0));
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

// The spelling detector's body before the screen: every column builds
// its full candidate, and the finding stands iff LR < min(alpha, 1).
// Counts the columns the screen would skip, and checks that each of
// them really scores LR >= min(alpha, 1).
void ReferenceSpelling(const ModelStack& model, const TableColumns& columns,
                       double alpha, std::vector<Finding>* out,
                       size_t* skipped) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const SpellingCandidate cand =
        ExtractSpellingCandidate(columns.column(c), options);
    if (!cand.valid) continue;
    const double lr = model.LikelihoodRatio(ErrorClass::kSpelling, cand.key,
                                            cand.theta1, cand.theta2);
    if (!SpellingGateCanPass(columns.column(c), model, alpha)) {
      ++*skipped;
      EXPECT_GE(lr, bar) << table.name() << " column " << c;
    }
    if (lr >= bar) continue;
    Finding finding;
    finding.error_class = ErrorClass::kSpelling;
    finding.table_name = table.name();
    finding.column = c;
    finding.rows = {cand.profile.row_a, cand.profile.row_b};
    finding.value = cand.profile.value_a + " | " + cand.profile.value_b;
    finding.score = lr;
    finding.explanation =
        StrCat("MPD ", cand.theta1, " -> ", cand.theta2, " for pair ('",
               cand.profile.value_a, "', '", cand.profile.value_b,
               "'), LR=", lr);
    out->push_back(std::move(finding));
  }
}

struct SpellingTally {
  size_t findings = 0;  ///< reference findings, summed over the alphas
  size_t skipped = 0;   ///< columns with a candidate the screen skips
};

// Runs the spelling detector and its reference loop over every table of
// an injected corpus at each alpha, and compares the findings JSON byte
// for byte.
SpellingTally ExpectSpellingMatchesReference(const ModelStack& model,
                                             const CorpusSpec& spec,
                                             uint64_t seed) {
  AnnotatedCorpus corpus = GenerateCorpus(spec);
  InjectionSpec injection;
  injection.seed = seed;
  InjectErrors(&corpus, injection);
  SpellingTally tally;
  for (const double alpha : {0.01, 0.05, 0.5, 1.0}) {
    const SpellingDetector detector(&model, alpha);
    for (const Table& table : corpus.corpus.tables) {
      const TableColumns columns(table, model.token_prevalence());
      std::vector<Finding> got;
      std::vector<Finding> want;
      detector.Detect(columns, &got);
      ReferenceSpelling(model, columns, alpha, &want, &tally.skipped);
      EXPECT_EQ(FindingsToJson(got), FindingsToJson(want))
          << table.name() << " alpha=" << alpha;
      if (testing::Test::HasFailure()) return tally;
      tally.findings += want.size();
    }
  }
  return tally;
}

const ModelStack& SharedStack() {
  static const ModelStack* stack =
      new ModelStack(ModelStack::Borrow(&SharedModel()));
  return *stack;
}

TEST(ScreenedDetectorsTest, SpellingEnterpriseFindingsMatchFullCandidates) {
  const SpellingTally tally = ExpectSpellingMatchesReference(
      SharedStack(), EnterpriseCorpusSpec(48, 1902), 1903);
  EXPECT_GT(tally.findings, 0u);
  // Tall Enterprise columns land in subsets the WEB model barely has.
  EXPECT_GT(tally.skipped, 0u);
}

TEST(ScreenedDetectorsTest, SpellingWebFindingsMatchFullCandidates) {
  const SpellingTally tally = ExpectSpellingMatchesReference(
      SharedStack(), WebCorpusSpec(300, 1904), 1905);
  EXPECT_GT(tally.findings, 0u);
}

TEST(ScreenedDetectorsTest, SpellingBaseAndDeltaStackMatchesFullCandidates) {
  // An Enterprise delta gives the tall subsets support, so the screen's
  // counts are layer sums that decide both ways.
  const auto delta = std::make_shared<const Model>(
      Trainer().Train(GenerateCorpus(EnterpriseCorpusSpec(40, 1908)).corpus));
  const ModelStack stack = SharedStack().WithDelta(delta);
  const SpellingTally tally = ExpectSpellingMatchesReference(
      stack, EnterpriseCorpusSpec(48, 1902), 1903);
  EXPECT_GT(tally.findings, 0u);
  EXPECT_GT(tally.skipped, 0u);
}

TEST(ScreenedDetectorsTest, SpellingWithoutFeaturizationMatchesFullCandidates) {
  // One spelling subset for every column: all five token-length buckets
  // map to the same key.
  TrainerOptions trainer;
  trainer.model.featurize.enabled = false;
  const Model model = Trainer(trainer).Train(
      GenerateCorpus(WebCorpusSpec(200, 1909)).corpus);
  const SpellingTally tally = ExpectSpellingMatchesReference(
      ModelStack::Borrow(&model), EnterpriseCorpusSpec(24, 1902), 1903);
  EXPECT_GT(tally.findings, 0u);
}

// The shared model's observations, queried under `smoothing` and
// `denominator`.
Model RequeriedModel(SmoothingMode smoothing, DenominatorMode denominator) {
  ModelOptions options = SharedModel().options();
  options.smoothing = smoothing;
  options.denominator = denominator;
  Model model(options);
  model.Merge(SharedModel());
  model.Finalize();
  return model;
}

TEST(ScreenedDetectorsTest, SpellingScreenSkipsNothingOutsideTheMonotoneMode) {
  // Under point estimates or the clean-tail denominator, LR is not
  // monotone in (theta1, theta2): the screen must pass every column.
  for (const auto& [smoothing, denominator] :
       {std::pair(SmoothingMode::kPoint, DenominatorMode::kSuspiciousTail),
        std::pair(SmoothingMode::kRange, DenominatorMode::kCleanTail)}) {
    const Model model = RequeriedModel(smoothing, denominator);
    const SpellingTally tally = ExpectSpellingMatchesReference(
        ModelStack::Borrow(&model), EnterpriseCorpusSpec(24, 1902), 1903);
    EXPECT_EQ(tally.skipped, 0u);
  }
}

}  // namespace
}  // namespace unidetect
