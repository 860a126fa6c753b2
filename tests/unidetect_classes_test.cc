// The facade's fixed composition: which class each ErrorClass runs, which
// classes are on by default, and each class's own alpha bar. -Wswitch
// already rejects a class with no case; these tests catch a case that
// runs the wrong class, which the goldens cannot (they run every paper
// class at once).

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "detect/unidetect.h"
#include "eval/injection.h"
#include "learn/trainer.h"
#include "util/logging.h"

namespace unidetect {
namespace {

TEST(UniDetectClassesTest, DefaultsMatchThePaper) {
  const UniDetectOptions options;
  EXPECT_EQ(options.detect, kDefaultDetectorEnables);
  EXPECT_TRUE(options.detects(ErrorClass::kOutlier));
  EXPECT_TRUE(options.detects(ErrorClass::kSpelling));
  EXPECT_TRUE(options.detects(ErrorClass::kUniqueness));
  EXPECT_TRUE(options.detects(ErrorClass::kFd));
  EXPECT_FALSE(options.detects(ErrorClass::kPattern));
}

const Model& SharedModel() {
  static const Model* model = [] {
    SetLogLevel(LogLevel::kWarning);
    return new Model(
        Trainer().Train(GenerateCorpus(WebCorpusSpec(400, 1901)).corpus));
  }();
  return *model;
}

// Injected WEB tables: every paper class fires somewhere in them. With
// `pattern_rate` > 0, date-format errors are injected too.
Corpus InjectedWebCorpus(double pattern_rate) {
  AnnotatedCorpus annotated = GenerateCorpus(WebCorpusSpec(300, 1904));
  InjectionSpec injection;
  injection.seed = 1905;
  injection.pattern_rate = pattern_rate;
  InjectErrors(&annotated, injection);
  return std::move(annotated.corpus);
}

const Corpus& InjectedCorpus() {
  static const Corpus* corpus = new Corpus(InjectedWebCorpus(0.0));
  return *corpus;
}

const Corpus& PatternInjectedCorpus() {
  static const Corpus* corpus = new Corpus(InjectedWebCorpus(0.6));
  return *corpus;
}

// Ranked findings of `cls` alone over `corpus` at `alpha`.
std::vector<Finding> DetectAlone(ErrorClass cls, double alpha,
                                 const Corpus& corpus) {
  UniDetectOptions options;
  options.alpha = alpha;
  options.DisableAllClasses();
  options.set_detect(cls, true);
  return UniDetect(&SharedModel(), options).DetectCorpus(corpus);
}

// Enables `cls` alone and requires findings, every one of that class.
void ExpectClassAloneFires(ErrorClass cls,
                           const Corpus& corpus = InjectedCorpus()) {
  const std::vector<Finding> findings = DetectAlone(cls, 1.0, corpus);
  EXPECT_FALSE(findings.empty()) << ErrorClassToString(cls);
  for (const Finding& finding : findings) {
    ASSERT_EQ(finding.error_class, cls)
        << "enabled " << ErrorClassToString(cls) << ", got "
        << ErrorClassToString(finding.error_class) << " in "
        << finding.table_name;
  }
}

TEST(UniDetectClassesTest, OutlierAloneRaisesOnlyOutlierFindings) {
  ExpectClassAloneFires(ErrorClass::kOutlier);
}

TEST(UniDetectClassesTest, SpellingAloneRaisesOnlySpellingFindings) {
  ExpectClassAloneFires(ErrorClass::kSpelling);
}

TEST(UniDetectClassesTest, UniquenessAloneRaisesOnlyUniquenessFindings) {
  ExpectClassAloneFires(ErrorClass::kUniqueness);
}

TEST(UniDetectClassesTest, FdAloneRaisesOnlyFdFindings) {
  ExpectClassAloneFires(ErrorClass::kFd);
}

// The corpus carries every paper class's errors too, so a case that ran
// a paper class for kPattern would raise findings of that class.
TEST(UniDetectClassesTest, PatternAloneRaisesOnlyPatternFindings) {
  ExpectClassAloneFires(ErrorClass::kPattern, PatternInjectedCorpus());
}

// The pattern class applies alpha itself, as the paper classes do: at an
// alpha between two of its scores it keeps exactly the findings whose
// score is below alpha.
TEST(UniDetectClassesTest, PatternKeepsOnlyScoresBelowAlpha) {
  const std::vector<Finding> all =
      DetectAlone(ErrorClass::kPattern, 1.0, PatternInjectedCorpus());
  std::set<double> scores;
  for (const Finding& finding : all) scores.insert(finding.score);
  ASSERT_GE(scores.size(), 2u);
  const auto upper = std::next(scores.begin(), scores.size() / 2);
  const double alpha = (*std::prev(upper) + *upper) / 2;

  std::vector<Finding> below;
  for (const Finding& finding : all) {
    if (finding.score < alpha) below.push_back(finding);
  }
  ASSERT_FALSE(below.empty());
  ASSERT_LT(below.size(), all.size());
  const std::vector<Finding> kept =
      DetectAlone(ErrorClass::kPattern, alpha, PatternInjectedCorpus());
  EXPECT_EQ(FindingsToJson(kept), FindingsToJson(below));
}

}  // namespace
}  // namespace unidetect
