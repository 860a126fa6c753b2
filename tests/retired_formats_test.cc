// The retired model formats — UDSNAP versions 1 and 2, the legacy
// "UniDetectModel v1" text format, and the binary16 observation section
// ids 11/12 — fail typed through every loader. UDSNAP v3 with f32
// observations is the only format the library reads; everything else is
// Corruption from the in-memory decoder, the mmap loader, the serving
// read handle, and both DetectionService entry points, and a failed
// Reload leaves the served generation where it was.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "learn/model.h"
#include "model_format/model_snapshot.h"
#include "model_format/model_view.h"
#include "serving/detection_service.h"
#include "snapshot_sections.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "util/status.h"

namespace unidetect {
namespace {

using testing_snapshot::PackSections;
using testing_snapshot::SectionBytes;
using testing_snapshot::SplitSections;

// Two subsets large enough to carry merge-sort trees, so the snapshot
// holds both bulk sections (ids 7 and 8).
const Model& SmallModel() {
  static const Model* const model = [] {
    ModelOptions options;
    options.min_support = 1;
    auto* m = new Model(options);
    Rng rng(29);
    for (uint64_t subset = 0; subset < 2; ++subset) {
      for (int i = 0; i < 100; ++i) {
        const double pre = rng.Uniform(0.0, 1.0);
        m->AddObservation(FeatureKey{subset}, pre, rng.Uniform(pre, 1.0));
      }
    }
    m->Finalize();
    return m;
  }();
  return *model;
}

// A version-1 container: the header announces version 1 and its table
// holds a valid options section.
std::string Version1Header() {
  std::vector<SectionBytes> sections =
      SplitSections(EncodeModelSnapshot(SmallModel()));
  sections.resize(1);  // section id 1, options
  return PackSections(1, sections);
}

// A version-2 container: every section of a current file, under the
// version number whose token section held string-pool references.
std::string Version2Header() {
  return PackSections(2, SplitSections(EncodeModelSnapshot(SmallModel())));
}

constexpr char kTextOptions[] =
    "UniDetectModel v1\noptions 1 0 0 2 0.01 1 30 0.1 8 3 1000\n";

// A well-formed model in the legacy text format.
std::string LegacyTextModel() {
  const std::string tokens = "TokenIndex v1 1 1\n1\talpha\n";
  const std::string patterns = "PatternIndex v1 0\n0\n0\n";
  return std::string(kTextOptions) + "subsets 1\n7 2 0.25 0.5 0.75 0.5\n" +
         "tokenindex " + std::to_string(tokens.size()) + "\n" + tokens +
         "patternindex " + std::to_string(patterns.size()) + "\n" + patterns;
}

// The legacy text reader sized allocations from these counts unchecked.
std::string HostileTextSubsetCount() {
  return std::string(kTextOptions) + "subsets 1\n7 999999999999999999\n";
}

std::string HostileTextTokenIndexSize() {
  return std::string(kTextOptions) +
         "subsets 0\ntokenindex 999999999999999999\n";
}

// A current f32 snapshot whose observation and tree sections carry the
// retired binary16 ids: 7 -> 11 and 8 -> 12, repacked in ascending id
// order with valid CRCs. A reader skips unknown ids, so the file is
// missing its observation sections.
std::string F16SectionIds() {
  std::vector<SectionBytes> sections =
      SplitSections(EncodeModelSnapshot(SmallModel()));
  std::vector<SectionBytes> kept;
  std::vector<SectionBytes> retired;
  for (SectionBytes& section : sections) {
    if (section.id == static_cast<uint32_t>(SnapshotSection::kObservations) ||
        section.id == static_cast<uint32_t>(SnapshotSection::kTreeLevels)) {
      section.id += 4;
      retired.push_back(std::move(section));
    } else {
      kept.push_back(std::move(section));
    }
  }
  EXPECT_EQ(retired.size(), 2u);
  for (SectionBytes& section : retired) kept.push_back(std::move(section));
  return PackSections(kSnapshotVersion, kept);
}

struct RetiredInput {
  const char* name;
  std::string (*bytes)();
};

// Names the input in test output and in the test names ctest discovers
// (the default would print raw pointer bytes).
void PrintTo(const RetiredInput& input, std::ostream* os) {
  *os << input.name;
}

class RetiredModelFormatTest : public ::testing::TestWithParam<RetiredInput> {
};

TEST_P(RetiredModelFormatTest, FailsTypedThroughEveryLoader) {
  const std::string bytes = GetParam().bytes();
  const std::string path =
      testing::TempDir() + "/retired_" + GetParam().name + ".model";
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());

  for (const SnapshotValidation validation :
       {SnapshotValidation::kFull, SnapshotValidation::kDeferPayload}) {
    auto decoded = DecodeModelSnapshot(bytes, validation);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
    auto view = ModelView::Open(path, validation);
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsCorruption()) << view.status();
  }
  auto loaded = Model::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();

  auto created = DetectionService::Create(path);
  ASSERT_FALSE(created.ok());
  EXPECT_TRUE(created.status().IsCorruption()) << created.status();

  DetectionService service(
      std::shared_ptr<const Model>(&SmallModel(), [](const Model*) {}));
  const uint64_t generation = service.generation();
  const Status reloaded = service.Reload(path);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_TRUE(reloaded.IsCorruption()) << reloaded;
  EXPECT_EQ(service.generation(), generation);
  EXPECT_EQ(service.Stats().failed_reloads, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    RetiredFormats, RetiredModelFormatTest,
    ::testing::Values(RetiredInput{"Version1Header", &Version1Header},
                      RetiredInput{"LegacyText", &LegacyTextModel},
                      RetiredInput{"HostileTextSubsetCount",
                                   &HostileTextSubsetCount},
                      RetiredInput{"HostileTextTokenIndexSize",
                                   &HostileTextTokenIndexSize},
                      RetiredInput{"F16SectionIds", &F16SectionIds},
                      RetiredInput{"Version2Header", &Version2Header}));

}  // namespace
}  // namespace unidetect
