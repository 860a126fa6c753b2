// DetectCorpus must return byte-identical ranked findings regardless of
// thread count: parallel per-table detection may not perturb ordering,
// scores, or any formatted field of the output.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "detect/unidetect.h"
#include "learn/model_stack.h"
#include "learn/trainer.h"
#include "util/logging.h"

namespace unidetect {
namespace {

TEST(ThreadDeterminismTest, OneVsFourThreadsByteIdentical) {
  SetLogLevel(LogLevel::kWarning);
  Trainer trainer;
  const Model model =
      trainer.Train(GenerateCorpus(WebCorpusSpec(400, 91)).corpus);
  UniDetectOptions options;
  options.alpha = 1.0;
  options.set_detect(ErrorClass::kPattern, true);
  UniDetect detector(&model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(120, 92));

  const auto serial = detector.DetectCorpus(test.corpus, /*num_threads=*/1);
  const auto parallel = detector.DetectCorpus(test.corpus, /*num_threads=*/4);

  ASSERT_FALSE(serial.empty());
  // Comparing the JSON dumps covers every surfaced field at once --
  // ranking order, scores, rows, values, and explanation strings.
  EXPECT_EQ(FindingsToJson(serial), FindingsToJson(parallel));
}

// The serving shape: a base plus two deltas read through one
// ModelStack, so every Prev(C) sums token counts over three layers. Tall
// Enterprise tables exercise the per-table encoding, Prev(C) over the
// codes and the post-gate keys; WEB tables the wide, short case.
TEST(ThreadDeterminismTest, LayeredStackOneVsFourThreadsByteIdentical) {
  SetLogLevel(LogLevel::kWarning);
  Trainer trainer;
  std::vector<std::shared_ptr<const Model>> layers;
  layers.push_back(std::make_shared<const Model>(
      trainer.Train(GenerateCorpus(WebCorpusSpec(300, 95)).corpus)));
  for (const uint64_t seed : {96, 97}) {
    layers.push_back(std::make_shared<const Model>(
        trainer.Train(GenerateCorpus(WebCorpusSpec(60, seed)).corpus)));
  }
  UniDetectOptions options;
  options.alpha = 1.0;
  options.set_detect(ErrorClass::kPattern, true);
  const UniDetect detector(std::make_shared<const ModelStack>(layers),
                           options);
  for (const CorpusSpec& spec :
       {EnterpriseCorpusSpec(12, 98), WebCorpusSpec(60, 99)}) {
    const AnnotatedCorpus test = GenerateCorpus(spec);
    const auto serial = detector.DetectCorpus(test.corpus, 1);
    const auto parallel = detector.DetectCorpus(test.corpus, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(FindingsToJson(serial), FindingsToJson(parallel));
  }
}

}  // namespace
}  // namespace unidetect
