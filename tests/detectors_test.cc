// Integration tests: detectors running against a model trained on a real
// generated corpus, with planted errors of every class.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "corpus/generator.h"
#include "detect/detectors.h"
#include "detect/unidetect.h"
#include "learn/trainer.h"
#include "synthesis/fd_synthesis_detector.h"
#include "util/random.h"
#include "util/string_util.h"

namespace unidetect {
namespace {

// One shared model for the whole suite (training is the slow part).
const Model& SharedModel() {
  static const Model* model = [] {
    Trainer trainer;
    return new Model(
        trainer.Train(GenerateCorpus(WebCorpusSpec(6000, 6001)).corpus));
  }();
  return *model;
}

// Single-layer stack over the shared model, for direct detector tests.
const ModelStack& SharedStack() {
  static const ModelStack* stack =
      new ModelStack(ModelStack::Borrow(&SharedModel()));
  return *stack;
}

// `table` encoded as UniDetect::DetectTable encodes it for the shared
// stack.
TableColumns Encode(const Table& table) {
  return TableColumns(table, SharedStack().token_prevalence());
}

Table PartsTable() {
  Table table("parts");
  auto add = [&](const char* name, std::vector<std::string> cells) {
    ASSERT_TRUE(table.AddColumn(Column(name, std::move(cells))).ok());
  };
  add("Part No.", {"KV118-552B2K7", "MP241-118A3T9", "BX770-031C4R2",
                   "KV118-552B2K7", "LN402-877D1Q5", "RW655-209E8S3",
                   "TC903-446F2U1", "GH128-335G7V6", "DM519-602H4W8",
                   "PS284-771J9X2", "QA067-148K3Y5", "VB836-925L6Z4"});
  add("City", {"Chicago", "Boston", "Denver", "Chicagoo", "Seattle",
               "Atlanta", "Houston", "Phoenix", "Toronto", "Montreal",
               "Vancouver", "Dublin"});
  add("Price", {"2497000", "2815.5", "2641", "2702.25", "2588", "2776.4",
                "2694", "2745.75", "2611.3", "2838", "2569.9", "2723.6"});
  return table;
}

TEST(OutlierDetectorTest, FlagsScaleError) {
  std::vector<Finding> findings;
  DetectOutliers(Encode(PartsTable()), SharedStack(), /*alpha=*/1.0,
                 &findings);
  bool found = false;
  for (const auto& finding : findings) {
    if (finding.column == 2 && finding.rows == std::vector<size_t>{0}) {
      found = true;
      EXPECT_LT(finding.score, 0.05);
      EXPECT_EQ(finding.value, "2497000");
    }
  }
  EXPECT_TRUE(found);
}

TEST(OutlierDetectorTest, SilentOnCleanGaussian) {
  Table table("clean");
  std::vector<std::string> cells;
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    cells.push_back(FormatDouble(rng.Normal(100, 5), 2));
  }
  ASSERT_TRUE(table.AddColumn(Column("v", std::move(cells))).ok());
  std::vector<Finding> findings;
  DetectOutliers(Encode(table), SharedStack(), /*alpha=*/1.0, &findings);
  for (const auto& finding : findings) {
    EXPECT_GT(finding.score, 0.05) << finding.explanation;
  }
}

TEST(SpellingDetectorTest, FlagsTypoPair) {
  std::vector<Finding> findings;
  DetectSpellingErrors(Encode(PartsTable()), SharedStack(), /*alpha=*/1.0,
                       /*dictionary=*/nullptr, &findings);
  bool found = false;
  for (const auto& finding : findings) {
    if (finding.column == 1 &&
        finding.value.find("Chicagoo") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpellingDetectorTest, DictionarySuppressesKnownWordPairs) {
  // "Bromine"/"Bromide" are both real words; with a dictionary holding
  // them, the finding is refuted (the +Dict variant of Section 4.3).
  Table table("chem");
  ASSERT_TRUE(table
                  .AddColumn(Column("Species",
                                    {"Bromine", "Bromide", "Oxygen",
                                     "Nitrogen", "Helium", "Argon", "Xenon",
                                     "Krypton"}))
                  .ok());
  Dictionary dict;
  for (const char* word :
       {"bromine", "bromide", "oxygen", "nitrogen", "helium", "argon",
        "xenon", "krypton"}) {
    dict.AddWord(word);
  }
  std::vector<Finding> suppressed;
  std::vector<Finding> raw;
  DetectSpellingErrors(Encode(table), SharedStack(), /*alpha=*/1.0, &dict,
                       &suppressed);
  DetectSpellingErrors(Encode(table), SharedStack(), /*alpha=*/1.0,
                       /*dictionary=*/nullptr, &raw);
  EXPECT_TRUE(suppressed.empty());
  // Without the dictionary the close pair may or may not clear the LR
  // bar, but the dictionary variant must never emit more findings.
  EXPECT_LE(suppressed.size(), raw.size());
}

TEST(UniquenessDetectorTest, FlagsDuplicateId) {
  std::vector<Finding> findings;
  DetectUniquenessViolations(Encode(PartsTable()), SharedStack(),
                             /*alpha=*/1.0, &findings);
  bool found = false;
  for (const auto& finding : findings) {
    if (finding.column == 0) {
      found = true;
      EXPECT_EQ(finding.value, "KV118-552B2K7");
      EXPECT_LT(finding.score, 0.05);
    }
  }
  EXPECT_TRUE(found);
}

TEST(UniquenessDetectorTest, TolerantOfChanceNameDuplicates) {
  // A roster where two people share a name: common strings, prevalence
  // high -> the corpus statistics refuse to call it an error outright
  // (LR well above the ID-column case).
  Table table("roster");
  ASSERT_TRUE(table
                  .AddColumn(Column(
                      "Name", {"Smith, Mr. James", "Jones, Mrs. Mary",
                               "Kelly, Mr. James", "Kelly, Mr. James",
                               "Brown, Dr. Anna", "Lee, Ms. Sarah",
                               "Wilson, Mr. John", "Clark, Mrs. Ruth",
                               "Adams, Mr. Peter", "Hall, Ms. Jane",
                               "Young, Mr. Alan", "King, Mrs. Eve"}))
                  .ok());
  std::vector<Finding> findings;
  DetectUniquenessViolations(Encode(table), SharedStack(), /*alpha=*/1.0,
                             &findings);
  // Either nothing is flagged, or the confidence is far weaker than an
  // ID-column duplicate would get.
  for (const auto& finding : findings) {
    EXPECT_GT(finding.score, 0.005) << finding.explanation;
  }
}

TEST(FdDetectorTest, FlagsConflictingPair) {
  Table table("routes");
  std::vector<std::string> shields;
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    shields.push_back(std::to_string(700 + i));
    names.push_back("Route " + std::to_string(700 + i));
  }
  shields[7] = "703";  // duplicate shield, conflicting name: Figure 13
  ASSERT_TRUE(table.AddColumn(Column("Shield", shields)).ok());
  ASSERT_TRUE(table.AddColumn(Column("Name", names)).ok());
  std::vector<Finding> findings;
  DetectFdViolations(Encode(table), SharedStack(), /*alpha=*/1.0,
                     /*max_pairs_per_table=*/30, &findings);
  bool found = false;
  for (const auto& finding : findings) {
    if ((finding.column == 0 && finding.column2 == 1) ||
        (finding.column == 1 && finding.column2 == 0)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// FD-synthesis (Appendix D) runs the FD test only on a pair a program
// explains: Name = "Route " + Shield but for the row whose shield was
// duplicated. The same duplicate beside names no program derives from
// the shields raises nothing.
TEST(FdSynthesisTest, FlagsProgramViolationOnly) {
  std::vector<std::string> shields;
  std::vector<std::string> names;
  std::vector<std::string> unrelated;
  for (int i = 0; i < 12; ++i) {
    shields.push_back(std::to_string(700 + i));
    names.push_back("Route " + std::to_string(700 + i));
    unrelated.push_back(std::string(1, static_cast<char>('a' + 5 * i % 12)) +
                        "x" + std::string(static_cast<size_t>(i % 3 + 1), 'q'));
  }
  shields[7] = "703";
  Table routes("routes");
  ASSERT_TRUE(routes.AddColumn(Column("Shield", shields)).ok());
  ASSERT_TRUE(routes.AddColumn(Column("Name", names)).ok());
  std::vector<Finding> findings;
  DetectFdSynthesisViolations(Encode(routes), SharedStack(),
                              /*max_pairs_per_table=*/30, &findings);
  bool found = false;
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.error_class, ErrorClass::kFd);
    EXPECT_LT(finding.score, 1.0);
    if (finding.column == 0 && finding.column2 == 1) {
      found = true;
      EXPECT_NE(std::find(finding.rows.begin(), finding.rows.end(), 7u),
                finding.rows.end());
      EXPECT_EQ(finding.explanation.rfind("program y = ", 0), 0u)
          << finding.explanation;
    }
  }
  EXPECT_TRUE(found);

  Table no_program("labels");
  ASSERT_TRUE(no_program.AddColumn(Column("Shield", shields)).ok());
  ASSERT_TRUE(no_program.AddColumn(Column("Label", unrelated)).ok());
  std::vector<Finding> none;
  DetectFdSynthesisViolations(Encode(no_program), SharedStack(),
                              /*max_pairs_per_table=*/30, &none);
  EXPECT_TRUE(none.empty()) << none.front().explanation;
}

TEST(UniDetectFacadeTest, RankedUnionAcrossClasses) {
  UniDetectOptions options;
  options.alpha = 0.3;
  UniDetect detector(&SharedModel(), options);
  const std::vector<Finding> findings = detector.DetectTable(PartsTable());
  ASSERT_GE(findings.size(), 3u);
  // Sorted ascending by LR.
  for (size_t i = 1; i < findings.size(); ++i) {
    EXPECT_LE(findings[i - 1].score, findings[i].score);
  }
  // All four planted anomalies appear in some class.
  bool outlier = false;
  bool spelling = false;
  bool uniqueness = false;
  for (const auto& finding : findings) {
    outlier |= finding.error_class == ErrorClass::kOutlier;
    spelling |= finding.error_class == ErrorClass::kSpelling;
    uniqueness |= finding.error_class == ErrorClass::kUniqueness;
  }
  EXPECT_TRUE(outlier);
  EXPECT_TRUE(spelling);
  EXPECT_TRUE(uniqueness);
}

TEST(UniDetectFacadeTest, AlphaFilters) {
  UniDetectOptions strict;
  strict.alpha = 1e-9;
  UniDetect detector(&SharedModel(), strict);
  EXPECT_TRUE(detector.DetectTable(PartsTable()).empty());
}

TEST(UniDetectFacadeTest, ClassTogglesRespected) {
  UniDetectOptions options;
  options.alpha = 1.0;
  options.set_detect(ErrorClass::kOutlier, false);
  options.set_detect(ErrorClass::kFd, false);
  options.set_detect(ErrorClass::kUniqueness, false);
  UniDetect detector(&SharedModel(), options);
  for (const auto& finding : detector.DetectTable(PartsTable())) {
    EXPECT_EQ(finding.error_class, ErrorClass::kSpelling);
  }
}

TEST(UniDetectFacadeTest, CorpusRunSetsTableIndices) {
  Corpus corpus;
  corpus.tables.push_back(PartsTable());
  corpus.tables.push_back(PartsTable());
  UniDetectOptions options;
  options.alpha = 0.3;
  UniDetect detector(&SharedModel(), options);
  const std::vector<Finding> findings = detector.DetectCorpus(corpus);
  bool saw_second_table = false;
  for (const auto& finding : findings) {
    EXPECT_LT(finding.table_index, 2u);
    saw_second_table |= finding.table_index == 1;
  }
  EXPECT_TRUE(saw_second_table);
}

TEST(UniDetectFacadeTest, ParallelCorpusScanIsDeterministic) {
  const AnnotatedCorpus corpus = GenerateCorpus(WebCorpusSpec(60, 4444));
  UniDetectOptions options;
  options.alpha = 1.0;
  UniDetect detector(&SharedModel(), options);
  const auto serial = detector.DetectCorpus(corpus.corpus, 1);
  const auto parallel = detector.DetectCorpus(corpus.corpus, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].table_index, parallel[i].table_index);
    EXPECT_EQ(serial[i].column, parallel[i].column);
    EXPECT_DOUBLE_EQ(serial[i].score, parallel[i].score);
  }
}

}  // namespace
}  // namespace unidetect
