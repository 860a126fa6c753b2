// Bounded-time deterministic fuzz smoke for the snapshot decoders: the
// loader's contract is that arbitrary bytes produce Status::Corruption
// (or NotImplemented for newer versions) or a valid model — never a
// crash, a bad_alloc from a crafted count, or an out-of-bounds read.
// Seeded mutations keep every run identical; seeds that once crashed the
// decoder are frozen as golden fixtures (tests/golden/fuzz_*.udsnap) and
// replayed here as regression tests. Labelled "fuzz" in ctest so CI can
// run the slice alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "learn/model.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "server/wire.h"
#include "table/table.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace unidetect {
namespace {

Model BuildModel() {
  ModelOptions options;
  options.min_support = 1;
  Model model(options);
  Rng rng(61);
  for (uint64_t subset = 0; subset < 4; ++subset) {
    const FeatureKey key{subset * 17 + 3};
    for (size_t i = 0; i < 40; ++i) {
      const double pre = rng.Uniform(0.0, 10.0);
      model.AddObservation(key, pre, rng.Uniform(0.0, pre));
    }
  }
  const AnnotatedCorpus corpus = GenerateCorpus(WebCorpusSpec(6, 67));
  for (const auto& table : corpus.corpus.tables) {
    model.mutable_token_index()->AddTable(table);
    model.mutable_pattern_index()->AddTable(table);
  }
  model.Finalize();
  return model;
}

// The decode contract under fuzzing: success or a typed error, nothing
// else. Any crash (SIGSEGV/SIGBUS from an OOB read, std::bad_alloc from
// an unvalidated count, an assert) fails the whole binary, which is the
// point of the smoke.
void ExpectDecodesOrRejects(const std::string& bytes) {
  for (SnapshotValidation validation :
       {SnapshotValidation::kFull, SnapshotValidation::kDeferPayload}) {
    auto decoded = DecodeModelSnapshot(bytes, validation);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption() ||
                  decoded.status().IsNotImplemented())
          << "unexpected status class: " << decoded.status();
    }
  }
}

// One seeded mutation of `base`. The mutation menu is weighted toward
// the decoder's attack surface: the header, the section table's u64
// offset/length fields (including near-2^64 values that only an
// overflow-checked bounds compare rejects), and truncation.
std::string Mutate(const std::string& base, Rng& rng) {
  std::string bytes = base;
  switch (rng.NextBounded(6)) {
    case 0: {  // single bit flip anywhere
      const size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.NextBounded(8)));
      break;
    }
    case 1: {  // short random overwrite
      const size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      const size_t len =
          std::min(bytes.size() - pos, size_t{1} + rng.NextBounded(8));
      for (size_t i = 0; i < len; ++i) {
        bytes[pos + i] = static_cast<char>(rng.NextBounded(256));
      }
      break;
    }
    case 2: {  // perturb a section-table u64 with a hostile value
      if (bytes.size() < 16 + 24) break;
      const uint64_t entry = rng.NextBounded((bytes.size() - 16) / 24);
      // offset field at +8, length field at +16 within the entry.
      const size_t pos = 16 + static_cast<size_t>(entry) * 24 +
                         (rng.NextBounded(2) ? 8 : 16);
      static constexpr uint64_t kHostile[] = {
          0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFF0ull, 0x8000000000000000ull,
          0x100000000ull, 0ull};
      const uint64_t value =
          kHostile[rng.NextBounded(std::size(kHostile))];
      if (pos + 8 <= bytes.size()) std::memcpy(&bytes[pos], &value, 8);
      break;
    }
    case 3: {  // truncate
      bytes.resize(static_cast<size_t>(rng.NextBounded(bytes.size())));
      break;
    }
    case 4: {  // huge section_count (the historical bad_alloc shape)
      if (bytes.size() < 16) break;
      const uint32_t counts[] = {0xFFFFFFFFu, 0x10000000u, 0u,
                                 0xAAAAAAAAu};
      const uint32_t value = counts[rng.NextBounded(std::size(counts))];
      std::memcpy(&bytes[12], &value, 4);
      break;
    }
    default: {  // swap two section-table entries (breaks id ordering)
      if (bytes.size() < 16 + 2 * 24) break;
      const uint64_t entries = (bytes.size() - 16) / 24;
      if (entries < 2) break;
      const size_t a = 16 + static_cast<size_t>(rng.NextBounded(entries)) * 24;
      const size_t b = 16 + static_cast<size_t>(rng.NextBounded(entries)) * 24;
      if (a + 24 <= bytes.size() && b + 24 <= bytes.size()) {
        char tmp[24];
        std::memcpy(tmp, &bytes[a], 24);
        std::memcpy(&bytes[a], &bytes[b], 24);
        std::memcpy(&bytes[b], tmp, 24);
      }
      break;
    }
  }
  return bytes;
}

// The delta read surface on top of the plain decode contract: the
// manifest finder and the artifact-id hash must also return a typed
// error or a value — a hostile manifest must never size an allocation
// or drive a chain walk.
void ExpectDeltaReadersSurvive(const std::string& bytes) {
  ExpectDecodesOrRejects(bytes);
  auto manifest = FindDeltaManifest(bytes);
  if (!manifest.ok()) {
    EXPECT_TRUE(manifest.status().IsCorruption() ||
                manifest.status().IsNotImplemented())
        << "unexpected status class: " << manifest.status();
  }
  auto id = SnapshotArtifactId(bytes);
  if (!id.ok()) {
    EXPECT_TRUE(id.status().IsCorruption())
        << "unexpected status class: " << id.status();
  }
}

// Delta-targeted mutations on top of the generic menu: the manifest
// payload rides in the last section of the container, so hostile chain
// hashes and layer counts (depth) live in the file's tail. Half the
// time we also forge the section CRC so the poisoned values survive the
// integrity pass and reach the manifest decoder itself.
std::string MutateDelta(const std::string& base, Rng& rng) {
  if (rng.NextBounded(2) == 0) return Mutate(base, rng);
  std::string bytes = base;
  static constexpr uint64_t kHostile[] = {
      0xFFFFFFFFFFFFFFFFull, 0x8000000000000000ull, 0x100000000ull,
      0xDEADBEEFDEADBEEFull, 0ull, 1ull};
  switch (rng.NextBounded(3)) {
    case 0: {  // poison a u64 in the manifest payload (file tail)
      const size_t tail = std::min(bytes.size(), size_t{64});
      const size_t pos = bytes.size() - tail +
                         static_cast<size_t>(rng.NextBounded(tail));
      const uint64_t value = kHostile[rng.NextBounded(std::size(kHostile))];
      if (pos + 8 <= bytes.size()) std::memcpy(&bytes[pos], &value, 8);
      if (rng.NextBounded(2) == 0 && bytes.size() >= 16) {
        // Re-seal the manifest section's CRC so the poisoned chain
        // hashes / layer counts survive the integrity pass and reach
        // the manifest decoder itself.
        uint32_t count = 0;
        std::memcpy(&count, &bytes[12], 4);
        for (uint32_t e = 0;
             e < count && 16 + (e + 1) * size_t{24} <= bytes.size(); ++e) {
          const size_t entry = 16 + e * size_t{24};
          uint32_t id = 0;
          uint64_t offset = 0, length = 0;
          std::memcpy(&id, &bytes[entry], 4);
          std::memcpy(&offset, &bytes[entry + 8], 8);
          std::memcpy(&length, &bytes[entry + 16], 8);
          if (id != 13 || offset > bytes.size() ||
              length > bytes.size() - offset) {
            continue;
          }
          const uint32_t crc = Crc32(
              std::string_view(bytes).substr(offset, length));
          std::memcpy(&bytes[entry + 4], &crc, 4);
        }
      }
      break;
    }
    case 1: {  // truncate inside the manifest section
      const size_t cut = 1 + static_cast<size_t>(rng.NextBounded(
                                 std::min(bytes.size(), size_t{48})));
      bytes.resize(bytes.size() - cut);
      break;
    }
    default: {  // rewrite a section-table id to or from the manifest id
      if (bytes.size() < 16 + 24) break;
      const uint64_t entry = rng.NextBounded((bytes.size() - 16) / 24);
      const size_t pos = 16 + static_cast<size_t>(entry) * 24;
      const uint32_t id = rng.NextBounded(2) ? 13u : rng.NextBounded(32);
      if (pos + 4 <= bytes.size()) std::memcpy(&bytes[pos], &id, 4);
      break;
    }
  }
  return bytes;
}

void RunSmoke(const std::string& base, uint64_t seed, int rounds) {
  ASSERT_FALSE(base.empty());
  // Sanity: the unmutated snapshot decodes in both validation modes.
  for (SnapshotValidation validation :
       {SnapshotValidation::kFull, SnapshotValidation::kDeferPayload}) {
    auto decoded = DecodeModelSnapshot(base, validation);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
  }
  Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    ExpectDecodesOrRejects(Mutate(base, rng));
  }
}

TEST(SnapshotFuzzSmokeTest, MutatedF32SnapshotsNeverCrash) {
  RunSmoke(EncodeModelSnapshotV2(BuildModel()), /*seed=*/1001,
           /*rounds=*/300);
}

// Delta artifacts widen the attack surface: the manifest's chain hashes
// and depth (layer count) are operator-supplied bytes that gate layer
// stacking. Every reader on the path — plain decode, manifest find,
// artifact id — must survive the mutation menu.
TEST(SnapshotFuzzSmokeTest, MutatedDeltaSnapshotsNeverCrash) {
  DeltaManifest manifest;
  manifest.base_id = 0x1234567890ABCDEFull;
  manifest.parent_id = 0x1234567890ABCDEFull;
  manifest.depth = 1;
  const std::string base = EncodeModelSnapshotV2(BuildModel(), &manifest);
  // Sanity: the unmutated delta round-trips through every reader.
  ASSERT_TRUE(DecodeModelSnapshot(base, SnapshotValidation::kFull).ok());
  ASSERT_TRUE(FindDeltaManifest(base)->has_value());
  ASSERT_TRUE(SnapshotArtifactId(base).ok());
  Rng rng(4004);
  for (int i = 0; i < 300; ++i) {
    ExpectDeltaReadersSurvive(MutateDelta(base, rng));
  }
}

// --- UDWIRE frames (server/wire.h) ---------------------------------
//
// The network front end decodes peer-controlled bytes on every
// connection, so its frame parser and payload decoders share the fuzz
// contract: a typed error (InvalidArgument for a non-UDWIRE prefix,
// Corruption for hostile frames/payloads) or a value — never a crash or
// a crafted-count allocation.

std::string BuildRequestFrame() {
  wire::DetectRequest request;
  request.request_id = 0xFEEDFACE;
  request.deadline_ms = 1500;
  request.options.has_override = true;
  request.options.alpha = 0.25;
  request.options.detect_mask = 0x1F;
  Table table("fuzz_table");
  UNIDETECT_CHECK(
      table.AddColumn(Column("name", {"alpha", "beta", "gamma"})).ok());
  UNIDETECT_CHECK(table.AddColumn(Column("value", {"1", "2", "3"})).ok());
  request.tables.push_back(std::move(table));
  return wire::EncodeDetectRequest(request);
}

std::string BuildResponseFrame() {
  Finding finding;
  finding.table_name = "fuzz_table";
  finding.column = 1;
  finding.rows = {0, 2};
  finding.value = "gamma";
  finding.score = 0.125;
  finding.explanation = "fuzz seed finding";
  return wire::EncodeOkResponseFrame(/*request_id=*/7, /*generation=*/3,
                                     {{finding}, {}});
}

void ExpectWireDecodersSurvive(const std::string& bytes) {
  auto parsed = wire::TryParseFrame(bytes, /*max_payload=*/64u << 20);
  if (!parsed.ok()) {
    EXPECT_TRUE(parsed.status().IsCorruption() ||
                parsed.status().IsInvalidArgument())
        << "unexpected status class: " << parsed.status();
    return;
  }
  if (!parsed->has_value()) return;  // partial frame: would read more
  const wire::FrameView frame = **parsed;
  if (frame.type == wire::FrameType::kDetectRequest) {
    auto decoded = wire::DecodeDetectRequestPayload(frame.payload);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption())
          << "unexpected status class: " << decoded.status();
    }
  } else {
    auto decoded = wire::DecodeDetectResponsePayload(frame.payload);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption())
          << "unexpected status class: " << decoded.status();
    }
  }
}

// Frame-targeted mutations: the header's length field and type byte,
// the payload's length-prefixed counts, truncation, and byte soup.
std::string MutateFrame(const std::string& base, Rng& rng) {
  std::string bytes = base;
  switch (rng.NextBounded(6)) {
    case 0: {  // single bit flip anywhere
      const size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.NextBounded(8)));
      break;
    }
    case 1: {  // hostile payload length in the header
      static constexpr uint32_t kHostile[] = {0xFFFFFFFFu, 0x80000000u,
                                              (64u << 20) + 1, 0u, 1u};
      const uint32_t value = kHostile[rng.NextBounded(std::size(kHostile))];
      if (bytes.size() >= wire::kHeaderBytes) {
        std::memcpy(&bytes[8], &value, 4);
      }
      break;
    }
    case 2: {  // corrupt the type or reserved bytes
      const size_t pos = 4 + static_cast<size_t>(rng.NextBounded(4));
      if (pos < bytes.size()) {
        bytes[pos] = static_cast<char>(rng.NextBounded(256));
      }
      break;
    }
    case 3: {  // truncate (header prefixes, split payloads)
      bytes.resize(static_cast<size_t>(rng.NextBounded(bytes.size())));
      break;
    }
    case 4: {  // poison a u32 count inside the payload
      if (bytes.size() <= wire::kHeaderBytes + 4) break;
      const size_t span = bytes.size() - wire::kHeaderBytes - 4;
      const size_t pos =
          wire::kHeaderBytes + static_cast<size_t>(rng.NextBounded(span));
      static constexpr uint32_t kHostile[] = {0xFFFFFFFFu, 0x10000000u,
                                              0xAAAAAAAAu, 0x10001u};
      const uint32_t value = kHostile[rng.NextBounded(std::size(kHostile))];
      std::memcpy(&bytes[pos], &value, 4);
      break;
    }
    default: {  // random overwrite anywhere
      const size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      const size_t len =
          std::min(bytes.size() - pos, size_t{1} + rng.NextBounded(8));
      for (size_t i = 0; i < len; ++i) {
        bytes[pos + i] = static_cast<char>(rng.NextBounded(256));
      }
      break;
    }
  }
  return bytes;
}

TEST(SnapshotFuzzSmokeTest, MutatedUdwireRequestFramesNeverCrash) {
  const std::string base = BuildRequestFrame();
  // Sanity: the unmutated frame parses and decodes.
  auto parsed = wire::TryParseFrame(base, 64u << 20);
  ASSERT_TRUE(parsed.ok() && parsed->has_value());
  ASSERT_TRUE(wire::DecodeDetectRequestPayload((**parsed).payload).ok());
  Rng rng(5005);
  for (int i = 0; i < 400; ++i) {
    ExpectWireDecodersSurvive(MutateFrame(base, rng));
  }
}

TEST(SnapshotFuzzSmokeTest, MutatedUdwireResponseFramesNeverCrash) {
  const std::string base = BuildResponseFrame();
  auto parsed = wire::TryParseFrame(base, 64u << 20);
  ASSERT_TRUE(parsed.ok() && parsed->has_value());
  ASSERT_TRUE(wire::DecodeDetectResponsePayload((**parsed).payload).ok());
  Rng rng(6006);
  for (int i = 0; i < 400; ++i) {
    ExpectWireDecodersSurvive(MutateFrame(base, rng));
  }
}

// Replays every frozen crasher. Each fixture is a full input file that
// once took the decoder down (e.g. a 16-byte header whose section_count
// of 2^32-1 drove a multi-GB reserve) and must now produce a typed
// error.
TEST(SnapshotFuzzSmokeTest, GoldenCrashersStayFixed) {
  const std::filesystem::path golden(UNIDETECT_GOLDEN_DIR);
  int replayed = 0;
  int replayed_delta = 0;
  for (const auto& entry : std::filesystem::directory_iterator(golden)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("fuzz_", 0) != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    SCOPED_TRACE(name);
    if (name.rfind("fuzz_delta_", 0) == 0) {
      // Delta crashers attack the manifest, which the plain decoder
      // skips (a CRC-valid hostile manifest decodes as an ordinary
      // model). The frozen contract is therefore: the manifest reader
      // rejects with a typed Corruption, and the plain decoders still
      // never crash.
      ExpectDeltaReadersSurvive(bytes);
      auto manifest = FindDeltaManifest(bytes);
      ASSERT_FALSE(manifest.ok()) << name << " manifest decoded";
      EXPECT_TRUE(manifest.status().IsCorruption())
          << name << ": " << manifest.status();
      ++replayed_delta;
      continue;
    }
    for (SnapshotValidation validation :
         {SnapshotValidation::kFull, SnapshotValidation::kDeferPayload}) {
      auto decoded = DecodeModelSnapshot(bytes, validation);
      ASSERT_FALSE(decoded.ok()) << name << " decoded successfully";
      EXPECT_TRUE(decoded.status().IsCorruption())
          << name << ": " << decoded.status();
    }
    ++replayed;
  }
  // The suite must fail loudly if the fixtures go missing.
  EXPECT_GE(replayed, 3);
  EXPECT_GE(replayed_delta, 3);
}

}  // namespace
}  // namespace unidetect
