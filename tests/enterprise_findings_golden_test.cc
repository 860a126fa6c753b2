// Pins the full detection output on a seeded, error-injected Enterprise
// corpus byte for byte against tests/golden/enterprise_findings.json.
//
// The corpus is tall (150-900 rows), so the epsilon cap truncates many
// FD and uniqueness perturbations: those candidates take the partial
// recompute path (FR/UR over the column minus the capped drop set),
// and the test asserts that they do. Any change to the FR/UR kernels,
// the featurization keys, the likelihood ratios, or the explanation
// strings shows up here as a diff.
//
// To re-record deliberately, run the test with
// UNIDETECT_GOLDEN_OUT=<path> set: it writes the actual dump there.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "detect/unidetect.h"
#include "eval/injection.h"
#include "learn/candidates.h"
#include "learn/trainer.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace unidetect {
namespace {

constexpr size_t kTables = 32;

struct GoldenSetup {
  Model model;
  AnnotatedCorpus corpus;
};

const GoldenSetup& SharedSetup() {
  static const GoldenSetup* setup = [] {
    SetLogLevel(LogLevel::kWarning);
    auto* out = new GoldenSetup{
        Trainer().Train(GenerateCorpus(WebCorpusSpec(800, 1201)).corpus),
        GenerateCorpus(EnterpriseCorpusSpec(kTables, 1202))};
    InjectionSpec injection;
    injection.seed = 1203;
    InjectErrors(&out->corpus, injection);
    return out;
  }();
  return *setup;
}

TEST(EnterpriseFindingsGoldenTest, CorpusHitsPartialPerturbations) {
  const GoldenSetup& setup = SharedSetup();
  const ModelOptions& options = setup.model.options();
  const UniDetectOptions detect_options;
  size_t partial_fd = 0;
  size_t partial_ur = 0;
  for (const Table& table : setup.corpus.corpus.tables) {
    ASSERT_GE(table.num_rows(), 150u);
    ASSERT_LE(table.num_rows(), 900u);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const UniquenessCandidate cand = ExtractUniquenessCandidate(
          table.column(c), c, setup.model.token_index(), options);
      if (cand.valid && cand.dropped_rows.size() <
                            ComputeUrProfile(table.column(c))
                                .duplicate_rows.size()) {
        ++partial_ur;
      }
    }
    // The detector's own pair enumeration, up to its per-table cap.
    size_t pairs = 0;
    for (size_t l = 0; l < table.num_columns(); ++l) {
      for (size_t r = 0; r < table.num_columns(); ++r) {
        if (l == r || pairs >= detect_options.max_fd_pairs_per_table) continue;
        ++pairs;
        const FdCandidate cand =
            ExtractFdCandidate(table.column(l), table.column(r),
                               setup.model.token_index(), options);
        if (cand.valid &&
            cand.dropped_rows.size() <
                ComputeFrProfile(table.column(l), table.column(r))
                    .violating_rows.size()) {
          ++partial_fd;
        }
      }
    }
  }
  EXPECT_GT(partial_fd, 0u);
  EXPECT_GT(partial_ur, 0u);
}

TEST(EnterpriseFindingsGoldenTest, MatchesGoldenFile) {
  const GoldenSetup& setup = SharedSetup();
  UniDetectOptions options;
  options.alpha = 1.0;  // keep every finding with any surprise
  const UniDetect detector(&setup.model, options);
  const std::string actual =
      FindingsToJson(detector.DetectCorpus(setup.corpus.corpus, 1));
  ASSERT_NE(actual, "[]");

  if (const char* out = std::getenv("UNIDETECT_GOLDEN_OUT")) {
    ASSERT_TRUE(WriteStringToFile(out, actual + "\n").ok());
  }
  auto golden = ReadFileToString(std::string(UNIDETECT_GOLDEN_DIR) +
                                 "/enterprise_findings.json");
  ASSERT_TRUE(golden.ok()) << golden.status();
  std::string expected = std::move(golden).ValueOrDie();
  while (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace unidetect
