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
//
// The outlier detector asks the model before theta1 (OutlierGateCanPass),
// and the uniqueness and FD detectors before Prev(C)
// (UniquenessKeyCanPass, FdKeyCanPass):
//
//   - OutlierGateScreenTest: the lemma (no point of a (theta1, theta2)
//     grid scores below LR(+inf, 0), on random subsets, flat and split
//     over two layers), both log-fit keys, a hand-built column whose
//     real transition sits on the corner's theta2 = 0 edge, columns
//     whose scores can be NaN taking the full path, and the kPoint and
//     kCleanTail modes skipping nothing.
//   - PrevalenceGateScreenTest: every prevalence bucket's key is tried,
//     so the real key always is.
//   - ScreenedDetectorsTest (the rest): the outlier, uniqueness and FD
//     detectors against reference loops over full candidates at alpha
//     in {0.05, 0.5, 1}, over a flat model, a base+delta stack,
//     featurization off and the non-monotone modes; every column or
//     pair a screen skips scores LR >= min(alpha, 1) on its full
//     candidate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/token_index.h"
#include "detect/detectors.h"
#include "detect/finding_json.h"
#include "eval/injection.h"
#include "featurize/buckets.h"
#include "learn/candidates.h"
#include "learn/model_stack.h"
#include "learn/table_columns.h"
#include "learn/trainer.h"
#include "metrics/dispersion.h"
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
  DetectSpellingErrors(columns, model, 0.05, /*dictionary=*/nullptr,
                       &findings);
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

// A model trained on WEB tables, shared by the tests below.
const Model& SharedModel() {
  static const Model* model = [] {
    SetLogLevel(LogLevel::kWarning);
    return new Model(
        Trainer().Train(GenerateCorpus(WebCorpusSpec(400, 1901)).corpus));
  }();
  return *model;
}

// ---------------------------------------------------------------------------
// Outlier screen.

// Eight integers: eligible under the default options, MAD > 0.
Column PlainNumbers() {
  return MakeColumn({"10", "12", "11", "13", "12", "14", "11", "90"});
}

// A model with no observations: every LR is 1, so an active screen skips
// every column.
ModelStack EmptyModel(const ModelOptions& options = {}) {
  return ModelStack({ModelWith(FeatureKey{}, {}, options)});
}

TEST(OutlierGateScreenTest, NoPointOfTheGridScoresBelowTheCorner) {
  // The lemma: under kRange with kSuspiciousTail, num = #(pre >= theta1
  // and post <= theta2) and den = #(pre >= theta2), so LR only falls as
  // theta1 grows and only grows as theta2 grows, and no candidate scores
  // below LR(+inf, 0). Random subsets sit around min_support so the
  // gates fire, on one layer and split over two; some pres are +inf, as
  // a score whose MAD underflows is.
  const ModelOptions options;
  const double inf = std::numeric_limits<double>::infinity();
  const FeatureKey key = OutlierFeatures(PlainNumbers(), false, {});
  std::vector<double> grid;
  for (int k = 0; k <= 16; ++k) grid.push_back(0.5 * k);
  grid.push_back(inf);
  Rng rng(0x0D71);
  size_t below_one = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<std::pair<double, double>> base;
    std::vector<std::pair<double, double>> delta;
    const size_t n = 10 + rng.NextBounded(80);
    for (size_t k = 0; k < n; ++k) {
      const double pre = grid[rng.NextBounded(grid.size())];
      const double post = grid[rng.NextBounded(grid.size() - 1)];
      (rng.NextBounded(3) == 0 ? delta : base).emplace_back(pre, post);
    }
    std::vector<std::pair<double, double>> all = base;
    all.insert(all.end(), delta.begin(), delta.end());
    const ModelStack flat({ModelWith(key, all, options)});
    const ModelStack layered(
        {ModelWith(key, base, options), ModelWith(key, delta, options)});
    for (const ModelStack* model : {&flat, &layered}) {
      const double corner =
          model->LikelihoodRatio(ErrorClass::kOutlier, key, inf, 0.0);
      if (corner < 1.0) ++below_one;
      for (const double theta1 : grid) {
        for (const double theta2 : grid) {
          const double lr = model->LikelihoodRatio(ErrorClass::kOutlier, key,
                                                   theta1, theta2);
          ASSERT_GE(lr, corner) << "trial " << trial << " theta1=" << theta1
                                << " theta2=" << theta2;
        }
      }
    }
  }
  // The corner is often an LR below 1, so the bound is not vacuous.
  EXPECT_GT(below_one, 50u);
}

TEST(OutlierGateScreenTest, AsksTheModelAtBothLogFitKeys) {
  const Column column = PlainNumbers();
  const ModelOptions options;
  // Forty observations that make LR small at theta2 = 0: every pre and
  // post is high, so none dropped as far as the corner does.
  const std::vector<std::pair<double, double>> evidence(40, {50.0, 50.0});
  EXPECT_FALSE(OutlierGateCanPass(column, EmptyModel(), 0.05));
  for (const bool log_fit : {false, true}) {
    const ModelStack model({ModelWith(
        OutlierFeatures(column, log_fit, options.featurize), evidence)});
    EXPECT_TRUE(OutlierGateCanPass(column, model, 0.05)) << log_fit;
    // Past every pre, num = 0 and den = 40: LR = 1/42. The bar is
    // strict, as in the detector.
    EXPECT_FALSE(OutlierGateCanPass(column, model, 1.0 / 42.0)) << log_fit;
  }
}

TEST(OutlierGateScreenTest, FindsTheTransitionOnTheCornersEdges) {
  // Six 5s, a 6 and a 100: the MAD is 0, so the scale is IQR / 1.349 =
  // 0.25 / 1.349 and theta1 = 95 / that. Without the 100 the quartiles
  // are equal too, so every score is 0: theta2 = 0, on the corner.
  const Column column =
      MakeColumn({"5", "5", "5", "5", "5", "5", "6", "100"});
  const ModelOptions options;
  const OutlierCandidate cand = ExtractOutlierCandidate(column, options);
  ASSERT_TRUE(cand.valid);
  ASSERT_GT(cand.theta1, 500.0);
  ASSERT_EQ(cand.theta2, 0.0);
  // Five observations of (10, 0) and forty of (0.5, 0.5) in one layer,
  // forty more of (0.5, 0.5) in another. At (theta1, 0): num = 0 and
  // den = 85, so LR = 1/87. A corner at a finite theta1 such as 3 would
  // count the five (LR = 6/87 > 0.05), and one at theta2 = 1 would leave
  // den = 5, below min_support (LR = 1). Either would skip the column.
  std::vector<std::pair<double, double>> low(5, {10.0, 0.0});
  low.insert(low.end(), 40, {0.5, 0.5});
  const std::vector<std::pair<double, double>> high(40, {0.5, 0.5});
  const ModelStack model(
      {ModelWith(cand.key, low, options), ModelWith(cand.key, high, options)});
  ASSERT_DOUBLE_EQ(model.LikelihoodRatio(ErrorClass::kOutlier, cand.key,
                                         cand.theta1, cand.theta2),
                   1.0 / 87.0);
  EXPECT_TRUE(OutlierGateCanPass(column, model, 0.05));
  // The bar is strict: LR = 1/87 is not below alpha = 1/87.
  EXPECT_FALSE(OutlierGateCanPass(column, model, 1.0 / 87.0));

  Table table("edges");
  ASSERT_TRUE(table.AddColumn(column).ok());
  const TableColumns columns(table, NoPrevalence());
  std::vector<Finding> findings;
  DetectOutliers(columns, model, 0.05, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_DOUBLE_EQ(findings[0].score, 1.0 / 87.0);
  EXPECT_EQ(findings[0].value, "100");
}

TEST(OutlierGateScreenTest, ColumnsWhoseScoresCanBeNanTakeTheFullPath) {
  // max - min overflows: the screen must pass whatever the model says.
  const ModelOptions options;
  const ModelStack empty = EmptyModel();
  const Column wide =
      MakeColumn({"-1e308", "1e308", "1", "2", "3", "4", "5", "6"});
  ASSERT_TRUE(OutlierEligible(wide, options));
  ASSERT_FALSE(MadScoresNeverNan(wide.NumericValues()));
  EXPECT_TRUE(OutlierGateCanPass(wide, empty, 0.05));
  // A finite spread can still overflow the median of an even count, and
  // then theta1 is NaN, where no corner bounds anything.
  const Column high =
      MakeColumn({"1e308", "1.1e308", "1.5e308", "1.6e308", "1.2e308",
                  "1.3e308", "1.4e308", "1.7e308"});
  ASSERT_TRUE(OutlierEligible(high, options));
  EXPECT_TRUE(std::isnan(ExtractOutlierCandidate(high, options).theta1));
  EXPECT_TRUE(OutlierGateCanPass(high, empty, 0.05));
  // The same model skips an ordinary column.
  EXPECT_FALSE(OutlierGateCanPass(PlainNumbers(), empty, 0.05));
}

TEST(OutlierGateScreenTest, ColumnsWithoutACandidateNeverPass) {
  const ModelStack empty = EmptyModel();
  const ModelOptions options;
  const Column words =
      MakeColumn({"a", "b", "c", "d", "e", "f", "g", "h"});
  ASSERT_FALSE(OutlierEligible(words, options));
  EXPECT_FALSE(OutlierGateCanPass(words, empty, 1.0));
  // Not eligible under any LR mode either.
  ModelOptions point;
  point.smoothing = SmoothingMode::kPoint;
  EXPECT_FALSE(OutlierGateCanPass(words, EmptyModel(point), 1.0));
}

TEST(OutlierGateScreenTest, SkipsNothingOutsideTheMonotoneMode) {
  for (const auto& [smoothing, denominator] :
       {std::pair(SmoothingMode::kPoint, DenominatorMode::kSuspiciousTail),
        std::pair(SmoothingMode::kRange, DenominatorMode::kCleanTail)}) {
    ModelOptions options;
    options.smoothing = smoothing;
    options.denominator = denominator;
    EXPECT_TRUE(OutlierGateCanPass(PlainNumbers(), EmptyModel(options), 0.05));
  }
}

// ---------------------------------------------------------------------------
// Prevalence-bucket screen.

TEST(PrevalenceGateScreenTest, TriesTheKeyOfEveryBucket) {
  // Evidence under one bucket's key only: the screen must find it
  // whichever bucket holds it, so the real key (some bucket's) is always
  // among the keys tried. Uniqueness and FD are low-surprising: at
  // (theta1, theta2) = (0.75, 1), pres of 1 give num = 0 and den = 40.
  const ModelOptions options;
  const Column ids = MakeColumn({"a1", "a2", "a3", "a4", "a5", "a6", "a7",
                                 "a1"});
  const Column names = MakeColumn({"x", "y", "z", "w", "v", "u", "t", "s"});
  const EncodedColumn lhs(ids, NoPrevalence());
  const EncodedColumn rhs(names, NoPrevalence());
  const std::vector<std::pair<double, double>> evidence(40, {1.0, 1.0});
  const double theta1 = 0.75;
  const double theta2 = 1.0;
  for (uint8_t bucket = 0; bucket < kNumPrevalenceBuckets; ++bucket) {
    const ModelStack unique_model({ModelWith(
        UniquenessFeatures(ids, 2, bucket, options.featurize), evidence)});
    EXPECT_TRUE(UniquenessKeyCanPass(lhs, 2, unique_model, theta1, theta2,
                                     0.05))
        << int{bucket};
    // Another position's key is not this column's.
    EXPECT_FALSE(UniquenessKeyCanPass(lhs, 0, unique_model, theta1, theta2,
                                      0.05));
    const ModelStack fd_model({ModelWith(
        FdFeatures(ids, names, bucket, options.featurize), evidence)});
    EXPECT_TRUE(FdKeyCanPass(lhs, rhs, fd_model, theta1, theta2, 0.05))
        << int{bucket};
    EXPECT_FALSE(FdKeyCanPass(rhs, lhs, fd_model, theta1, theta2, 0.05));
  }
  // The real keys are among them, and the bar is strict (LR = 1/42).
  const ModelStack model({ModelWith(UniquenessKey(lhs, 2, options), evidence)});
  EXPECT_TRUE(UniquenessKeyCanPass(lhs, 2, model, theta1, theta2, 0.05));
  EXPECT_FALSE(
      UniquenessKeyCanPass(lhs, 2, model, theta1, theta2, 1.0 / 42.0));
  const ModelStack fd_model({ModelWith(FdKey(lhs, rhs, options), evidence)});
  EXPECT_TRUE(FdKeyCanPass(lhs, rhs, fd_model, theta1, theta2, 0.05));
}

TEST(PrevalenceGateScreenTest, RealKeysOfACorpusAreAmongTheKeysTried) {
  // Over real columns with real Prev(C), the key the detectors look up
  // after the screen is one of the six the screen tries.
  const Model& model = SharedModel();
  const ModelStack stack = ModelStack::Borrow(&model);
  const ModelOptions& options = model.options();
  size_t columns_seen = 0;
  std::vector<bool> buckets_seen(kNumPrevalenceBuckets);
  for (const Table& table :
       GenerateCorpus(WebCorpusSpec(40, 1910)).corpus.tables) {
    const TableColumns columns(table, stack.token_prevalence());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const FeatureKey key = UniquenessKey(columns.column(c), c, options);
      const uint8_t real = PrevalenceBucket(columns.column(c).prevalence());
      ASSERT_LT(real, kNumPrevalenceBuckets);
      buckets_seen[real] = true;
      EXPECT_TRUE(key == UniquenessFeatures(table.column(c), c, real,
                                            options.featurize));
      const size_t other = (c + 1) % table.num_columns();
      EXPECT_TRUE(FdKey(columns.column(other), columns.column(c), options) ==
                  FdFeatures(table.column(other), table.column(c), real,
                             options.featurize));
      ++columns_seen;
    }
  }
  EXPECT_GT(columns_seen, 100u);
  // The corpus spans several buckets, so the keys differ by bucket.
  EXPECT_GE(std::count(buckets_seen.begin(), buckets_seen.end(), true), 2);
}

// ---------------------------------------------------------------------------
// Detector level.

// Columns and pairs the model screens skipped, each checked to score
// LR >= min(alpha, 1) on its full candidate.
struct ScreenTally {
  size_t outlier_findings = 0;
  size_t uniqueness_findings = 0;
  size_t fd_findings = 0;
  size_t outlier_skipped = 0;  ///< by OutlierGateCanPass
  size_t key_skipped = 0;      ///< by UniquenessKeyCanPass or FdKeyCanPass
};

// The outlier candidate as ExtractOutlierCandidate built it before the
// steps: theta2 from MaxMadScore over a copy without the picked value.
OutlierCandidate FullOutlierCandidate(const Column& column,
                                      const ModelOptions& options) {
  OutlierCandidate out;
  const ColumnType type = column.type();
  if (type != ColumnType::kInteger && type != ColumnType::kFloat) return out;
  if (column.size() < options.min_column_rows) return out;
  const std::vector<double>& values = column.NumericValues();
  if (values.size() < options.min_column_rows) return out;
  if (column.NumericFraction() < 0.8) return out;
  const MaxScore before = MaxMadScore(values);
  if (!before.valid) return out;
  std::vector<double> remaining = values;
  remaining.erase(remaining.begin() +
                  static_cast<std::ptrdiff_t>(before.index));
  const MaxScore after = MaxMadScore(remaining);
  if (!after.valid) return out;
  out.valid = true;
  out.key = OutlierFeatures(column, LogTransformFitsBetter(values),
                            options.featurize);
  out.theta1 = before.score;
  out.theta2 = after.score;
  out.index = before.index;
  out.value = values[before.index];
  return out;
}

// The outlier detector's body before the screens: every eligible column
// builds its full candidate, and the finding stands iff LR < min(alpha,
// 1). Also checks ExtractOutlierCandidate against the full candidate.
void ReferenceOutlier(const ModelStack& model, const TableColumns& columns,
                      double alpha, std::vector<Finding>* out,
                      ScreenTally* tally) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    const OutlierCandidate cand = FullOutlierCandidate(column, options);
    const OutlierCandidate stepped = ExtractOutlierCandidate(column, options);
    EXPECT_EQ(stepped.valid, cand.valid);
    if (!cand.valid) continue;
    EXPECT_TRUE(stepped.key == cand.key);
    EXPECT_EQ(stepped.theta1, cand.theta1);
    EXPECT_EQ(stepped.theta2, cand.theta2);
    EXPECT_EQ(stepped.index, cand.index);
    const double lr = model.LikelihoodRatio(ErrorClass::kOutlier, cand.key,
                                            cand.theta1, cand.theta2);
    // The screen runs before theta1, so it bounds the columns under the
    // 3-MAD floor too.
    if (!OutlierGateCanPass(column, model, alpha)) {
      ++tally->outlier_skipped;
      EXPECT_GE(lr, bar) << table.name() << " column " << c;
    }
    if (cand.theta1 < 3.0) continue;
    if (lr >= bar) continue;
    const size_t row = column.NumericRows()[cand.index];
    Finding finding;
    finding.error_class = ErrorClass::kOutlier;
    finding.table_name = table.name();
    finding.column = c;
    finding.rows = {row};
    finding.value = column.cell(row);
    finding.score = lr;
    finding.explanation =
        StrCat("max-MAD ", cand.theta1, " -> ", cand.theta2,
               " after removing '", finding.value, "', LR=", lr);
    out->push_back(std::move(finding));
  }
}

// The FD detector's body before the screens: every pair up to the cap
// builds its full candidate and meets the gate.
void ReferenceFd(const ModelStack& model, const TableColumns& columns,
                 double alpha, size_t max_pairs, std::vector<Finding>* out,
                 ScreenTally* tally) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
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
      if (!FdKeyCanPass(columns.column(l), columns.column(r), model,
                        cand.theta1, cand.theta2, alpha)) {
        ++tally->key_skipped;
        EXPECT_GE(lr, bar) << table.name() << " pair " << l << "->" << r;
      }
      if (lr >= bar) continue;
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

// The uniqueness detector's body before the screens.
void ReferenceUniqueness(const ModelStack& model, const TableColumns& columns,
                         double alpha, std::vector<Finding>* out,
                         ScreenTally* tally) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const UniquenessCandidate cand =
        ExtractUniquenessCandidate(columns.column(c), options);
    if (!FullGate(cand)) continue;
    const double lr = model.LikelihoodRatio(
        ErrorClass::kUniqueness, UniquenessKey(columns.column(c), c, options),
        cand.theta1, cand.theta2);
    if (!UniquenessKeyCanPass(columns.column(c), c, model, cand.theta1,
                              cand.theta2, alpha)) {
      ++tally->key_skipped;
      EXPECT_GE(lr, bar) << table.name() << " column " << c;
    }
    if (lr >= bar) continue;
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

// Runs the outlier, uniqueness and FD detectors and their reference
// loops over every table of the injected corpus at alpha in {0.05, 0.5,
// 1}, and compares the findings JSON byte for byte.
ScreenTally ExpectDetectorsMatchReference(const ModelStack& model,
                                          const CorpusSpec& spec,
                                          uint64_t seed, size_t max_fd_pairs) {
  AnnotatedCorpus corpus = GenerateCorpus(spec);
  InjectionSpec injection;
  injection.seed = seed;
  InjectErrors(&corpus, injection);

  ScreenTally tally;
  for (const double alpha : {0.05, 0.5, 1.0}) {
    for (const Table& table : corpus.corpus.tables) {
      std::vector<Finding> got[3];
      std::vector<Finding> want[3];
      {
        const TableColumns columns(table, model.token_prevalence());
        DetectOutliers(columns, model, alpha, &got[0]);
        DetectUniquenessViolations(columns, model, alpha, &got[1]);
        DetectFdViolations(columns, model, alpha, max_fd_pairs, &got[2]);
      }
      {
        const TableColumns columns(table, model.token_prevalence());
        ReferenceOutlier(model, columns, alpha, &want[0], &tally);
        ReferenceUniqueness(model, columns, alpha, &want[1], &tally);
        ReferenceFd(model, columns, alpha, max_fd_pairs, &want[2], &tally);
      }
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(FindingsToJson(got[k]), FindingsToJson(want[k]))
            << table.name() << " alpha=" << alpha;
      }
      if (testing::Test::HasFailure()) return tally;
      tally.outlier_findings += want[0].size();
      tally.uniqueness_findings += want[1].size();
      tally.fd_findings += want[2].size();
    }
  }
  return tally;
}

const ModelStack& SharedStack() {
  static const ModelStack* stack =
      new ModelStack(ModelStack::Borrow(&SharedModel()));
  return *stack;
}

TEST(ScreenedDetectorsTest, EnterpriseFindingsMatchFullCandidates) {
  const ScreenTally tally = ExpectDetectorsMatchReference(
      SharedStack(), EnterpriseCorpusSpec(48, 1902), 1903, 30);
  // Tall Enterprise columns land in subsets the WEB model barely has, so
  // the screens skip, and the constraint classes raise findings. Outlier
  // findings come from the WEB corpus and the Enterprise delta below.
  EXPECT_GT(tally.uniqueness_findings, 0u);
  EXPECT_GT(tally.fd_findings, 0u);
  EXPECT_GT(tally.outlier_skipped, 0u);
  EXPECT_GT(tally.key_skipped, 0u);
}

TEST(ScreenedDetectorsTest, WebFindingsMatchFullCandidates) {
  const ScreenTally tally = ExpectDetectorsMatchReference(
      SharedStack(), WebCorpusSpec(300, 1904), 1905, 30);
  EXPECT_GT(tally.outlier_findings, 0u);
  EXPECT_GT(tally.uniqueness_findings, 0u);
  EXPECT_GT(tally.fd_findings, 0u);
}

TEST(ScreenedDetectorsTest, PairCapStillCountsScreenedPairs) {
  // Screened-out pairs use up the cap exactly as full candidates did.
  const ScreenTally tally = ExpectDetectorsMatchReference(
      SharedStack(), EnterpriseCorpusSpec(24, 1906), 1907, 3);
  EXPECT_GT(tally.fd_findings, 0u);
  EXPECT_GT(tally.uniqueness_findings, 0u);
}

// A delta trained on Enterprise tables, so that the tall subsets have
// support and the screens' counts are layer sums that decide both ways.
std::shared_ptr<const Model> EnterpriseDelta() {
  static const std::shared_ptr<const Model> delta =
      std::make_shared<const Model>(Trainer().Train(
          GenerateCorpus(EnterpriseCorpusSpec(40, 1908)).corpus));
  return delta;
}

TEST(ScreenedDetectorsTest, BaseAndDeltaStackMatchesFullCandidates) {
  const ModelStack stack = SharedStack().WithDelta(EnterpriseDelta());
  const ScreenTally tally = ExpectDetectorsMatchReference(
      stack, EnterpriseCorpusSpec(48, 1902), 1903, 30);
  EXPECT_GT(tally.outlier_findings, 0u);
  EXPECT_GT(tally.outlier_skipped, 0u);
  EXPECT_GT(tally.key_skipped, 0u);
}

TEST(ScreenedDetectorsTest, WithoutFeaturizationMatchesFullCandidates) {
  // One subset per class: both log-fit keys and all six prevalence keys
  // are the same key.
  TrainerOptions trainer;
  trainer.model.featurize.enabled = false;
  const Model model = Trainer(trainer).Train(
      GenerateCorpus(WebCorpusSpec(200, 1909)).corpus);
  const ScreenTally tally = ExpectDetectorsMatchReference(
      ModelStack::Borrow(&model), EnterpriseCorpusSpec(24, 1902), 1903, 30);
  EXPECT_GT(tally.outlier_findings + tally.uniqueness_findings +
                tally.fd_findings,
            0u);
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
    for (const Table& table : corpus.corpus.tables) {
      const TableColumns columns(table, model.token_prevalence());
      std::vector<Finding> got;
      std::vector<Finding> want;
      DetectSpellingErrors(columns, model, alpha, /*dictionary=*/nullptr,
                           &got);
      ReferenceSpelling(model, columns, alpha, &want, &tally.skipped);
      EXPECT_EQ(FindingsToJson(got), FindingsToJson(want))
          << table.name() << " alpha=" << alpha;
      if (testing::Test::HasFailure()) return tally;
      tally.findings += want.size();
    }
  }
  return tally;
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
  const ModelStack stack = SharedStack().WithDelta(EnterpriseDelta());
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

TEST(ScreenedDetectorsTest, OutlierScreenSkipsNothingOutsideTheMonotoneMode) {
  // The prevalence-bucket screens are exact in every mode, but the
  // outlier screen leans on monotonicity and must skip nothing here.
  for (const auto& [smoothing, denominator] :
       {std::pair(SmoothingMode::kPoint, DenominatorMode::kSuspiciousTail),
        std::pair(SmoothingMode::kRange, DenominatorMode::kCleanTail)}) {
    const Model model = RequeriedModel(smoothing, denominator);
    const ScreenTally tally = ExpectDetectorsMatchReference(
        ModelStack::Borrow(&model), EnterpriseCorpusSpec(24, 1902), 1903, 30);
    EXPECT_EQ(tally.outlier_skipped, 0u);
  }
}

}  // namespace
}  // namespace unidetect
