#include "model_format/model_snapshot.h"

#include <gtest/gtest.h>

#include <string>

#include "corpus/generator.h"
#include "learn/model.h"
#include "learn/trainer.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "util/status.h"

namespace unidetect {
namespace {

// A small trained model exercising every snapshot section: subset stats
// (with deliberate pre-value ties, the re-sort hazard), token index, and
// pattern index.
const Model& SnapshotModel() {
  static const Model* const model = [] {
    ModelOptions options;
    options.min_support = 1;
    auto* m = new Model(options);
    Rng rng(17);
    for (uint64_t subset = 0; subset < 8; ++subset) {
      const FeatureKey key{subset};
      for (int i = 0; i < 64; ++i) {
        const double pre = rng.Uniform(0.0, 10.0);
        m->AddObservation(key, pre, rng.Uniform(0.0, pre));
      }
      // Tied pre values with distinct posts: a decoder that re-sorted
      // would be free to permute these and break bit-identity.
      m->AddObservation(key, 5.0, 1.0);
      m->AddObservation(key, 5.0, 2.0);
      m->AddObservation(key, 5.0, 3.0);
    }
    const AnnotatedCorpus corpus = GenerateCorpus(WebCorpusSpec(30, 23));
    for (const auto& table : corpus.corpus.tables) {
      m->mutable_token_index()->AddTable(table);
      m->mutable_pattern_index()->AddTable(table);
    }
    m->Finalize();
    return m;
  }();
  return *model;
}

TEST(ModelSnapshotTest, MagicSniff) {
  const std::string bytes = EncodeModelSnapshot(SnapshotModel());
  EXPECT_TRUE(LooksLikeModelSnapshot(bytes));
  EXPECT_FALSE(LooksLikeModelSnapshot("UniDetectModel v1\noptions\n"));
  EXPECT_FALSE(LooksLikeModelSnapshot(""));
  EXPECT_FALSE(LooksLikeModelSnapshot("UDSNAP"));  // truncated magic
}

TEST(ModelSnapshotTest, EncodeDecodeEncodeIsBitIdentical) {
  const std::string first = EncodeModelSnapshot(SnapshotModel());
  auto decoded = DecodeModelSnapshot(first);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const std::string second = EncodeModelSnapshot(*decoded);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second);  // EQ on the strings would dump megabytes
}

TEST(ModelSnapshotTest, SaveLoadSaveIsBitIdentical) {
  const Model& model = SnapshotModel();
  const std::string path_a = testing::TempDir() + "/snapshot_a.model";
  const std::string path_b = testing::TempDir() + "/snapshot_b.model";
  ASSERT_TRUE(model.Save(path_a).ok());
  auto loaded = Model::Load(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->Save(path_b).ok());
  auto bytes_a = ReadFileToString(path_a);
  auto bytes_b = ReadFileToString(path_b);
  ASSERT_TRUE(bytes_a.ok());
  ASSERT_TRUE(bytes_b.ok());
  EXPECT_TRUE(*bytes_a == *bytes_b);
}

TEST(ModelSnapshotTest, DecodedModelAnswersIdenticalQueries) {
  const Model& model = SnapshotModel();
  auto decoded = DecodeModelSnapshot(EncodeModelSnapshot(model));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_subsets(), model.num_subsets());
  EXPECT_EQ(decoded->num_observations(), model.num_observations());
  EXPECT_EQ(decoded->token_index().num_tokens(),
            model.token_index().num_tokens());
  EXPECT_EQ(decoded->pattern_index().num_columns(),
            model.pattern_index().num_columns());
  Rng probe(29);
  for (int i = 0; i < 200; ++i) {
    const FeatureKey key{static_cast<uint64_t>(probe.UniformInt(0, 7))};
    const double theta1 = probe.Uniform(0.0, 10.0);
    const double theta2 = probe.Uniform(0.0, theta1);
    EXPECT_DOUBLE_EQ(
        model.LikelihoodRatio(ErrorClass::kOutlier, key, theta1, theta2),
        decoded->LikelihoodRatio(ErrorClass::kOutlier, key, theta1, theta2));
  }
}

TEST(ModelSnapshotTest, UnknownFormatIsCorruption) {
  const std::string path = testing::TempDir() + "/not_a_model.bin";
  ASSERT_TRUE(WriteStringToFile(path, "neither magic\n").ok());
  auto loaded = Model::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

// ---------------------------------------------------------------------
// Loader robustness: every malformed input must come back as a typed
// error — never a crash, hang, or huge allocation (asan/ubsan presets
// run this file too).

TEST(ModelSnapshotRobustnessTest, TruncationAtEveryStrideIsAnError) {
  const std::string bytes = EncodeModelSnapshot(SnapshotModel());
  // Every prefix short of the full snapshot must fail; stepping by a
  // prime keeps the sweep dense but affordable, and the boundary cases
  // (empty, header edge, table edge) are hit explicitly.
  std::vector<size_t> lengths = {0, 1, 7, 8, 9, 15, 16, 17, 39, 40};
  for (size_t len = 41; len < bytes.size(); len += 131) lengths.push_back(len);
  lengths.push_back(bytes.size() - 1);
  for (const size_t len : lengths) {
    if (len >= bytes.size()) continue;
    auto decoded = DecodeModelSnapshot(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_TRUE(decoded.status().IsCorruption())
        << "prefix " << len << ": " << decoded.status();
  }
}

TEST(ModelSnapshotRobustnessTest, BitFlipsAreDetected) {
  const std::string pristine = EncodeModelSnapshot(SnapshotModel());
  // Flip one bit at a sweep of positions. CRC catches payload flips;
  // header/table flips trip magic, version, or bounds checks. A flip
  // may legally decode only if it lands in an ignored spot — the format
  // has none, so every flip must surface as a typed error.
  for (size_t pos = 0; pos < pristine.size();
       pos += 1 + pristine.size() / 512) {
    std::string mutated = pristine;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    auto decoded = DecodeModelSnapshot(mutated);
    if (decoded.ok()) {
      // The only bit the checksum cannot see is inside the CRC fields
      // themselves... and a flipped CRC mismatches its payload. Nothing
      // may decode.
      FAIL() << "bit flip at byte " << pos << " went unnoticed";
    }
    EXPECT_TRUE(decoded.status().IsCorruption() ||
                decoded.status().IsNotImplemented())
        << "byte " << pos << ": " << decoded.status();
  }
}

TEST(ModelSnapshotRobustnessTest, WrongMagicIsCorruption) {
  std::string bytes = EncodeModelSnapshot(SnapshotModel());
  bytes[0] = 'X';
  auto decoded = DecodeModelSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(ModelSnapshotRobustnessTest, FutureVersionIsNotImplemented) {
  std::string bytes = EncodeModelSnapshot(SnapshotModel());
  // The u32 format version sits directly after the 8-byte magic.
  std::string patched_version;
  AppendU32(&patched_version, kSnapshotVersion + 1);
  bytes.replace(kSnapshotMagic.size(), 4, patched_version);
  auto decoded = DecodeModelSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsNotImplemented()) << decoded.status();
  // The message tells the operator it is the reader that is stale.
  EXPECT_NE(decoded.status().message().find("newer"), std::string::npos);
}

TEST(ModelSnapshotRobustnessTest, RetiredVersionIsCorruptionNamingIt) {
  for (uint32_t version : {0u, 1u}) {
    std::string bytes = EncodeModelSnapshot(SnapshotModel());
    std::string patched_version;
    AppendU32(&patched_version, version);
    bytes.replace(kSnapshotMagic.size(), 4, patched_version);
    auto decoded = DecodeModelSnapshot(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
    EXPECT_NE(decoded.status().message().find(
                  "format version " + std::to_string(version)),
              std::string::npos)
        << decoded.status();
  }
}

TEST(ModelSnapshotRobustnessTest, ZeroLengthSectionIsCorruption) {
  std::string bytes = EncodeModelSnapshot(SnapshotModel());
  // First section-table entry: {u32 id, u32 crc, u64 offset, u64 length}
  // at offset 16; zero its length field (bytes 16+16 .. 16+24).
  for (size_t i = 0; i < 8; ++i) bytes[16 + 16 + i] = '\0';
  auto decoded = DecodeModelSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(ModelSnapshotRobustnessTest, MissingSectionIsCorruption) {
  // A structurally valid snapshot with zero sections must be rejected
  // for missing the required ones (not crash on empty lookups).
  std::string bytes;
  bytes.append(kSnapshotMagic);
  AppendU32(&bytes, kSnapshotVersion);
  AppendU32(&bytes, 0);  // section count
  auto decoded = DecodeModelSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

}  // namespace
}  // namespace unidetect
