// Delta artifact framing (model_format/delta_snapshot.h): manifest
// payload round-trip and strictness, content-committing artifact ids,
// and the old-reader compatibility guarantee (a delta decodes as a
// plain model anywhere a model is accepted).

#include "model_format/delta_snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "learn/trainer.h"
#include "model_format/model_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace unidetect {
namespace {

Model TrainSmallModel(uint64_t seed) {
  SetLogLevel(LogLevel::kWarning);
  Trainer trainer;
  return trainer.Train(GenerateCorpus(WebCorpusSpec(60, seed)).corpus);
}

TEST(DeltaSnapshotTest, ManifestPayloadRoundTrips) {
  DeltaManifest manifest;
  manifest.base_id = 0x1122334455667788ULL;
  manifest.parent_id = 0x99aabbccddeeff00ULL;
  manifest.depth = 2;
  const std::string payload = EncodeDeltaManifestPayload(manifest);
  EXPECT_EQ(payload.size(), 32u);
  const auto decoded = DecodeDeltaManifestPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->base_id, manifest.base_id);
  EXPECT_EQ(decoded->parent_id, manifest.parent_id);
  EXPECT_EQ(decoded->depth, manifest.depth);
}

TEST(DeltaSnapshotTest, ManifestDecodeIsStrict) {
  DeltaManifest manifest;
  manifest.base_id = 7;
  manifest.parent_id = 7;
  manifest.depth = 1;
  const std::string good = EncodeDeltaManifestPayload(manifest);

  // Truncation and trailing garbage.
  EXPECT_TRUE(DecodeDeltaManifestPayload(
                  std::string_view(good).substr(0, 31))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeDeltaManifestPayload(good + "x").status().IsCorruption());

  // Hostile depth: 0 and beyond the bound are both Corruption before
  // any caller sizes anything by them.
  for (const uint64_t depth : {uint64_t{0}, kMaxDeltaDepth + 1}) {
    DeltaManifest bad = manifest;
    bad.depth = depth;
    bad.parent_id = depth == 1 ? bad.base_id : 123;
    EXPECT_TRUE(DecodeDeltaManifestPayload(EncodeDeltaManifestPayload(bad))
                    .status()
                    .IsCorruption())
        << "depth " << depth;
  }

  // Depth 1 must point its parent at the base.
  DeltaManifest mismatched = manifest;
  mismatched.parent_id = 8;
  EXPECT_TRUE(
      DecodeDeltaManifestPayload(EncodeDeltaManifestPayload(mismatched))
          .status()
          .IsCorruption());

  // Newer manifest version: NotImplemented, not Corruption.
  std::string newer = good;
  newer[0] = 2;
  EXPECT_TRUE(
      DecodeDeltaManifestPayload(newer).status().IsNotImplemented());

  // Nonzero reserved field.
  std::string reserved = good;
  reserved[4] = 1;
  EXPECT_TRUE(DecodeDeltaManifestPayload(reserved).status().IsCorruption());
}

TEST(DeltaSnapshotTest, ArtifactIdCommitsToContent) {
  const Model model = TrainSmallModel(301);
  const std::string bytes = EncodeModelSnapshotV2(model);
  const auto id = SnapshotArtifactId(bytes);
  ASSERT_TRUE(id.ok()) << id.status();
  // Deterministic.
  EXPECT_EQ(*SnapshotArtifactId(bytes), *id);
  // Any payload flip changes a section CRC in the table, so the id —
  // computed over header + table only — still moves.
  std::string tampered = bytes;
  tampered[tampered.size() - 1] ^= 0x01;
  // Recompute the CRC the way an attacker would NOT be able to without
  // rewriting the table: just flipping payload bytes leaves the table
  // unchanged, so the id stays equal but decode fails; flipping table
  // bytes changes the id. Both directions covered:
  EXPECT_EQ(*SnapshotArtifactId(tampered), *id);  // payload flip
  std::string table_tampered = bytes;
  table_tampered[20] ^= 0x01;  // inside the section table
  EXPECT_NE(*SnapshotArtifactId(table_tampered), *id);
  // Not a container at all.
  EXPECT_TRUE(SnapshotArtifactId("not a snapshot").status().IsCorruption());
}

TEST(DeltaSnapshotTest, FindManifestAndOldReaderCompatibility) {
  const Model model = TrainSmallModel(302);

  // A plain base carries no manifest.
  const std::string base_bytes = EncodeModelSnapshotV2(model);
  const auto none = FindDeltaManifest(base_bytes);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_FALSE(none->has_value());

  // A delta carries one, and it round-trips through the container.
  DeltaManifest manifest;
  manifest.base_id = 42;
  manifest.parent_id = 42;
  manifest.depth = 1;
  const std::string delta_bytes = EncodeModelSnapshotV2(model, &manifest);
  const auto found = FindDeltaManifest(delta_bytes);
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->base_id, 42u);
  EXPECT_EQ((*found)->depth, 1u);

  // Old-reader guarantee: section 13 is CRC-checked and skipped, so the
  // delta decodes as a plain model identical to the base encoding's.
  const auto decoded =
      DecodeModelSnapshot(delta_bytes, SnapshotValidation::kFull);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(EncodeModelSnapshotV2(*decoded), base_bytes);

  // A corrupted manifest payload is caught by its CRC even under
  // deferred validation (the manifest is never trusted raw).
  std::string corrupted = delta_bytes;
  corrupted[corrupted.size() - 8] ^= 0xff;  // inside the manifest payload
  EXPECT_TRUE(FindDeltaManifest(corrupted).status().IsCorruption());
}

// The identity read from a path is the identity of the file's bytes:
// the same artifact id and manifest the in-memory readers find.
TEST(DeltaSnapshotTest, ReadSnapshotIdentityFromDisk) {
  const Model model = TrainSmallModel(303);
  const DeltaManifest manifest{9, 9, 1};
  const std::string path = testing::TempDir() + "/identity_delta." +
                           std::to_string(::getpid()) + ".udsnap";
  for (const DeltaManifest* m : {static_cast<const DeltaManifest*>(nullptr),
                                 &manifest}) {
    const std::string bytes = EncodeModelSnapshotV2(model, m);
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    const auto identity = ReadSnapshotIdentity(path);
    ASSERT_TRUE(identity.ok()) << identity.status();
    EXPECT_NE(identity->artifact_id, 0u);
    EXPECT_EQ(identity->artifact_id, *SnapshotArtifactId(bytes));
    ASSERT_EQ(identity->manifest.has_value(), m != nullptr);
    if (m != nullptr) {
      EXPECT_EQ(identity->manifest->base_id, m->base_id);
      EXPECT_EQ(identity->manifest->parent_id, m->parent_id);
      EXPECT_EQ(identity->manifest->depth, m->depth);
    }
  }
  EXPECT_TRUE(
      ReadSnapshotIdentity("/nonexistent/x.udsnap").status().IsIOError());
}

// Unreadable paths are IOError; a readable file that is not a whole
// UDSNAP container, or whose manifest fails its CRC, is Corruption.
TEST(DeltaSnapshotTest, ReadSnapshotIdentityErrorsAreTyped) {
  const Model model = TrainSmallModel(305);
  const DeltaManifest manifest{11, 11, 1};
  const std::string delta = EncodeModelSnapshotV2(model, &manifest);
  const std::string dir = testing::TempDir();

  EXPECT_TRUE(ReadSnapshotIdentity(dir).status().IsIOError());

  const auto identity_of = [&](std::string_view bytes) {
    const std::string path =
        dir + "/identity_typed." + std::to_string(::getpid()) + ".udsnap";
    EXPECT_TRUE(WriteStringToFile(path, bytes).ok());
    return ReadSnapshotIdentity(path);
  };
  // The manifest's table row is the last one, and its payload the last
  // 32 bytes of the file.
  const auto count = static_cast<size_t>(static_cast<uint8_t>(delta[12]));
  const size_t manifest_row = 16 + (count - 1) * 24;
  std::string bad_crc = delta;
  bad_crc[manifest_row + 4] ^= 0x01;
  std::string bad_payload = delta;
  bad_payload[bad_payload.size() - 1] ^= 0x01;
  const std::vector<std::pair<const char*, std::string>> corrupt = {
      {"empty", ""},
      {"partial magic", delta.substr(0, 5)},
      {"header only", delta.substr(0, 16)},
      {"truncated table", delta.substr(0, manifest_row + 10)},
      {"manifest past end", delta.substr(0, delta.size() - 1)},
      {"flipped manifest crc", bad_crc},
      {"flipped manifest payload", bad_payload},
      {"not a container", "plain text, not a snapshot"},
  };
  for (const auto& [name, bytes] : corrupt) {
    SCOPED_TRACE(name);
    const auto identity = identity_of(bytes);
    ASSERT_FALSE(identity.ok());
    EXPECT_TRUE(identity.status().IsCorruption()) << identity.status();
  }
}

}  // namespace
}  // namespace unidetect
