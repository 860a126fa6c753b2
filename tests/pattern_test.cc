#include "autodetect/pattern.h"

#include <gtest/gtest.h>

#include <cmath>

#include "autodetect/pmi_detector.h"
#include "corpus/corpus.h"
#include "corpus/generator.h"
#include "detect/unidetect.h"
#include "eval/injection.h"
#include "learn/model.h"
#include "learn/trainer.h"
#include "model_format/model_snapshot.h"
#include "snapshot_sections.h"

namespace unidetect {
namespace {

// Runs the pattern class on `table` at alpha 1 and the default PMI
// threshold. It reads no token prevalence, so the encoding is built
// against an empty index.
void RunPmi(const PatternIndex& index, const Table& table,
            std::vector<Finding>* out) {
  const TokenIndex empty;
  const TokenPrevalence prevalence(empty);
  DetectPatternErrors(TableColumns(table, prevalence), index, /*alpha=*/1.0,
                      /*pmi_threshold=*/-2.0, out);
}

TEST(GeneralizePatternTest, CharacterClasses) {
  EXPECT_EQ(GeneralizePattern("2001-01-01"), "\\d+-\\d+-\\d+");
  EXPECT_EQ(GeneralizePattern("2001-Jan-01"), "\\d+-\\l+-\\d+");
  EXPECT_EQ(GeneralizePattern("abc123"), "\\l+\\d+");
  EXPECT_EQ(GeneralizePattern("  x  y  "), "\\l+ \\l+");
  EXPECT_EQ(GeneralizePattern("$1,234.56"), "$\\d+,\\d+.\\d+");
  EXPECT_EQ(GeneralizePattern(""), "");
}

TEST(GeneralizePatternTest, RunLengthCollapsed) {
  // "2001" and "85" share a pattern (the point of collapsing).
  EXPECT_EQ(GeneralizePattern("2001"), GeneralizePattern("85"));
  EXPECT_EQ(GeneralizePattern("abc"), GeneralizePattern("zzzzz"));
}

TEST(DistinctPatternsTest, FirstSeenOrderAndCap) {
  const std::vector<std::string> cells = {"2001-01-01", "2002-02-02",
                                          "2001-Jan-01", "", "abc"};
  const auto patterns = DistinctPatterns(cells);
  ASSERT_EQ(patterns.size(), 3u);
  EXPECT_EQ(patterns[0], "\\d+-\\d+-\\d+");
  EXPECT_EQ(patterns[1], "\\d+-\\l+-\\d+");
  EXPECT_EQ(patterns[2], "\\l+");
  EXPECT_EQ(DistinctPatterns(cells, 2).size(), 2u);
}

Corpus PatternCorpus() {
  // 60 all-ISO date columns, 60 all-text-month columns: the two formats
  // never co-occur, so their PMI is strongly negative.
  Corpus corpus;
  for (int i = 0; i < 60; ++i) {
    Table iso("iso");
    EXPECT_TRUE(iso.AddColumn(Column("d", {"2001-01-01", "2002-03-04",
                                           "2003-05-06", "2004-07-08",
                                           "2005-09-10", "2006-11-12",
                                           "2007-01-02", "2008-03-04"}))
                    .ok());
    corpus.tables.push_back(std::move(iso));
    Table text("text");
    EXPECT_TRUE(text.AddColumn(Column("d", {"2001-Jan-01", "2002-Mar-04",
                                            "2003-May-06", "2004-Jul-08",
                                            "2005-Sep-10", "2006-Nov-12",
                                            "2007-Jan-02", "2008-Mar-04"}))
                    .ok());
    corpus.tables.push_back(std::move(text));
  }
  return corpus;
}

TEST(PatternIndexTest, CountsAndPmi) {
  PatternIndex index;
  index.AddCorpus(PatternCorpus());
  EXPECT_EQ(index.num_columns(), 120u);
  EXPECT_EQ(index.PatternCount("\\d+-\\d+-\\d+"), 60u);
  EXPECT_EQ(index.PatternCount("\\d+-\\l+-\\d+"), 60u);
  EXPECT_EQ(index.CoOccurrenceCount("\\d+-\\d+-\\d+", "\\d+-\\l+-\\d+"), 0u);
  // Never co-occurring frequent patterns: strongly negative PMI.
  EXPECT_LT(index.Pmi("\\d+-\\d+-\\d+", "\\d+-\\l+-\\d+"), -3.0);
  // Unseen pattern: no evidence.
  EXPECT_DOUBLE_EQ(index.Pmi("\\d+-\\d+-\\d+", "\\l+\\l+"), 0.0);
}

TEST(PmiDetectorTest, FlagsMinorityIncompatiblePattern) {
  PatternIndex index;
  index.AddCorpus(PatternCorpus());

  Table table("mixed");
  ASSERT_TRUE(table.AddColumn(Column("d", {"2001-01-01", "2002-03-04",
                                           "2003-05-06", "2004-07-08",
                                           "2005-09-10", "2006-11-12",
                                           "2007-01-02", "2001-Jan-01"}))
                  .ok());
  std::vector<Finding> findings;
  RunPmi(index, table, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].error_class, ErrorClass::kPattern);
  EXPECT_EQ(findings[0].rows, (std::vector<size_t>{7}));
  EXPECT_EQ(findings[0].value, "2001-Jan-01");
  EXPECT_LT(findings[0].score, std::exp(-2.0));
}

TEST(PmiDetectorTest, SilentOnUniformColumn) {
  PatternIndex index;
  index.AddCorpus(PatternCorpus());
  Table table("uniform");
  ASSERT_TRUE(table.AddColumn(Column("d", {"2001-01-01", "2002-03-04",
                                           "2003-05-06", "2004-07-08",
                                           "2005-09-10", "2006-11-12",
                                           "2007-01-02", "2008-08-08"}))
                  .ok());
  std::vector<Finding> findings;
  RunPmi(index, table, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(PmiDetectorTest, LargeMinorityNotFlagged) {
  PatternIndex index;
  index.AddCorpus(PatternCorpus());
  // 50/50 mixture: neither side is a clear minority.
  Table table("half");
  ASSERT_TRUE(table.AddColumn(Column("d", {"2001-01-01", "2002-03-04",
                                           "2003-05-06", "2004-07-08",
                                           "2001-Jan-01", "2002-Mar-04",
                                           "2003-May-06", "2004-Jul-08"}))
                  .ok());
  std::vector<Finding> findings;
  RunPmi(index, table, &findings);
  EXPECT_TRUE(findings.empty());
}

TEST(PatternEndToEndTest, TrainedModelFindsInjectedFormatErrors) {
  // Train a model (its pattern index rides along), inject date-format
  // errors, and let the facade's optional fifth class find them.
  Trainer trainer;
  const Model model =
      trainer.Train(GenerateCorpus(WebCorpusSpec(1500, 91)).corpus);
  EXPECT_GT(model.pattern_index().num_columns(), 1000u);

  AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(300, 92));
  InjectionSpec spec;
  spec.spelling_rate = spec.outlier_rate = 0.0;
  spec.uniqueness_rate = spec.fd_rate = 0.0;
  spec.pattern_rate = 0.6;
  const GroundTruth truth = InjectErrors(&test, spec);
  ASSERT_GT(truth.CountClass(ErrorClass::kPattern), 5u);

  UniDetectOptions options;
  options.alpha = 1.0;
  options.DisableAllClasses();
  options.set_detect(ErrorClass::kPattern, true);
  UniDetect detector(&model, options);
  const std::vector<Finding> findings = detector.DetectCorpus(test.corpus);
  ASSERT_GE(findings.size(), 5u);
  size_t hits = 0;
  const size_t top = std::min<size_t>(findings.size(), 20);
  for (size_t i = 0; i < top; ++i) {
    if (truth.Matches(findings[i])) ++hits;
  }
  // The injected format errors dominate the top of the ranked list.
  EXPECT_GE(hits * 10, top * 8) << "hits " << hits << " of " << top;
}

// The pattern index persists as the snapshot's kPatternIndex2 section.
std::string EncodeWithIndex(const PatternIndex& index) {
  Model model;
  *model.mutable_pattern_index() = index;
  model.Finalize();
  return EncodeModelSnapshot(model);
}

TEST(PatternIndexTest, SerializationRoundTrip) {
  PatternIndex index;
  index.AddCorpus(PatternCorpus());
  auto restored_model = DecodeModelSnapshot(EncodeWithIndex(index));
  ASSERT_TRUE(restored_model.ok()) << restored_model.status();
  const PatternIndex& restored = restored_model->pattern_index();
  EXPECT_EQ(restored.num_columns(), index.num_columns());
  EXPECT_EQ(restored.PatternCount("\\d+-\\d+-\\d+"), 60u);
  EXPECT_DOUBLE_EQ(restored.Pmi("\\d+-\\d+-\\d+", "\\d+-\\l+-\\d+"),
                   index.Pmi("\\d+-\\d+-\\d+", "\\d+-\\l+-\\d+"));
}

TEST(PatternIndexTest, DeserializeRejectsGarbage) {
  // Section payload: u64 num_columns, u64 num_patterns, u64 num_pairs,
  // then {u32 pool_off, u32 pool_len, u64 count} entries. Each edit is
  // repacked with a valid CRC, so only the pattern decoder can object.
  PatternIndex index;
  index.AddCorpus(PatternCorpus());
  const std::string pristine = EncodeWithIndex(index);
  constexpr uint32_t kPatternSection =
      static_cast<uint32_t>(SnapshotSection::kPatternIndex2);
  const auto decode_edited = [&](auto edit) {
    auto sections = testing_snapshot::SplitSections(pristine);
    std::string* payload =
        testing_snapshot::FindPayload(&sections, kPatternSection);
    EXPECT_NE(payload, nullptr);
    if (payload != nullptr) edit(payload);
    return DecodeModelSnapshot(testing_snapshot::PackSections(2, sections));
  };
  const auto out_of_pool = decode_edited([](std::string* payload) {
    payload->replace(24 + 4, 4, std::string(4, '\xff'));  // pool_len
  });
  const auto truncated = decode_edited(
      [](std::string* payload) { payload->resize(payload->size() - 16); });
  for (const auto* result : {&out_of_pool, &truncated}) {
    ASSERT_FALSE(result->ok());
    EXPECT_TRUE(result->status().IsCorruption()) << result->status();
  }
}

}  // namespace
}  // namespace unidetect
