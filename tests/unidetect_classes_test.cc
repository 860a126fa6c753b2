// The facade's fixed composition: which detector each ErrorClass builds
// and which classes are on by default. -Wswitch already rejects a class
// with no case; these tests catch a case that builds the wrong detector,
// which the goldens cannot (they run every paper class at once).

#include <gtest/gtest.h>

#include "corpus/generator.h"
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

// Injected WEB tables: every paper class fires somewhere in them.
const Corpus& InjectedCorpus() {
  static const Corpus* corpus = [] {
    AnnotatedCorpus annotated = GenerateCorpus(WebCorpusSpec(300, 1904));
    InjectionSpec injection;
    injection.seed = 1905;
    InjectErrors(&annotated, injection);
    return new Corpus(std::move(annotated.corpus));
  }();
  return *corpus;
}

// Enables `cls` alone and requires findings, every one of that class.
void ExpectClassAloneFires(ErrorClass cls) {
  UniDetectOptions options;
  options.alpha = 1.0;
  options.DisableAllClasses();
  options.set_detect(cls, true);
  const UniDetect detector(&SharedModel(), options);
  const std::vector<Finding> findings =
      detector.DetectCorpus(InjectedCorpus());
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

}  // namespace
}  // namespace unidetect
