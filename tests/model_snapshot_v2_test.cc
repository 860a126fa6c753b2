// UDSNAP flat-layout tests: the section set the writer emits, the
// zero-copy mmap read path (ModelView / Model::Load), deferred
// validation semantics, the small-subset no-tree rule, and loader
// robustness against corrupt files read through the mapped path. The
// asan/ubsan presets run this file; the tsan preset filter includes both
// suite names.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "learn/model.h"
#include "model_format/model_snapshot.h"
#include "model_format/model_view.h"
#include "model_format/snapshot_v2.h"
#include "reference/subset_stats_reference.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "util/status.h"

namespace unidetect {
namespace {

// A hand-built model exercising every section, with per-subset sizes
// straddling kTreeMinSize so both the tree and the linear-scan paths
// serialize. Tied pre values keep the re-sort hazard in play.
Model BuildModel(size_t observations_per_subset) {
  ModelOptions options;
  options.min_support = 1;
  Model model(options);
  Rng rng(61);
  for (uint64_t subset = 0; subset < 6; ++subset) {
    const FeatureKey key{subset * 17 + 3};
    for (size_t i = 0; i + 3 < observations_per_subset; ++i) {
      const double pre = rng.Uniform(0.0, 10.0);
      model.AddObservation(key, pre, rng.Uniform(0.0, pre));
    }
    model.AddObservation(key, 5.0, 1.0);
    model.AddObservation(key, 5.0, 2.0);
    model.AddObservation(key, 5.0, 3.0);
  }
  const AnnotatedCorpus corpus = GenerateCorpus(WebCorpusSpec(20, 67));
  for (const auto& table : corpus.corpus.tables) {
    model.mutable_token_index()->AddTable(table);
    model.mutable_pattern_index()->AddTable(table);
  }
  model.Finalize();
  return model;
}

const Model& LargeModel() {
  static const Model* const model = new Model(BuildModel(200));
  return *model;
}

// One section-table row of an encoded snapshot, located by id.
struct Section {
  bool found = false;
  size_t table_pos = 0;  // byte offset of this entry in the table
  uint64_t offset = 0;
  uint64_t length = 0;
};

Section FindSection(const std::string& bytes, SnapshotSection id) {
  Section out;
  BinaryReader reader(bytes);
  std::string_view magic;
  uint32_t version = 0;
  uint32_t count = 0;
  EXPECT_TRUE(reader.ReadBytes(8, &magic) && reader.ReadU32(&version) &&
              reader.ReadU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t entry_id = 0;
    uint32_t crc = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    EXPECT_TRUE(reader.ReadU32(&entry_id) && reader.ReadU32(&crc) &&
                reader.ReadU64(&offset) && reader.ReadU64(&length));
    if (entry_id == static_cast<uint32_t>(id)) {
      out.found = true;
      out.table_pos = 16 + i * 24;
      out.offset = offset;
      out.length = length;
      return out;
    }
  }
  return out;
}

void ExpectIdenticalQueries(const Model& a, const Model& b) {
  ASSERT_EQ(a.num_subsets(), b.num_subsets());
  ASSERT_EQ(a.num_observations(), b.num_observations());
  EXPECT_EQ(a.token_index().num_tokens(), b.token_index().num_tokens());
  EXPECT_EQ(a.pattern_index().num_columns(), b.pattern_index().num_columns());
  Rng probe(73);
  for (int i = 0; i < 300; ++i) {
    const FeatureKey key{static_cast<uint64_t>(probe.UniformInt(0, 7)) * 17 +
                         3};
    const double theta1 = probe.Uniform(0.0, 10.0);
    const double theta2 = probe.Uniform(0.0, theta1);
    EXPECT_DOUBLE_EQ(
        a.LikelihoodRatio(ErrorClass::kOutlier, key, theta1, theta2),
        b.LikelihoodRatio(ErrorClass::kOutlier, key, theta1, theta2));
    EXPECT_DOUBLE_EQ(
        a.LikelihoodRatio(ErrorClass::kSpelling, key, theta2, theta1),
        b.LikelihoodRatio(ErrorClass::kSpelling, key, theta2, theta1));
  }
}

TEST(SnapshotV2Test, DefaultWriterEmitsVersionThree) {
  const std::string bytes = EncodeModelSnapshot(LargeModel());
  EXPECT_TRUE(LooksLikeModelSnapshot(bytes));
  BinaryReader header(std::string_view(bytes).substr(kSnapshotMagic.size()));
  uint32_t version = 0;
  ASSERT_TRUE(header.ReadU32(&version));
  EXPECT_EQ(version, 3u);
  // The flat layout carries every f32 section and no retired id (the
  // v1 inline payloads 2-4, the binary16 variants 11-12).
  for (const SnapshotSection id :
       {SnapshotSection::kOptions, SnapshotSection::kStringPool,
        SnapshotSection::kSubsetIndex, SnapshotSection::kObservations,
        SnapshotSection::kTreeLevels, SnapshotSection::kTokenTable,
        SnapshotSection::kPatternIndex2}) {
    EXPECT_TRUE(FindSection(bytes, id).found) << static_cast<uint32_t>(id);
  }
  for (const uint32_t retired : {2u, 3u, 4u, 11u, 12u}) {
    EXPECT_FALSE(
        FindSection(bytes, static_cast<SnapshotSection>(retired)).found)
        << retired;
  }
}

TEST(SnapshotV2Test, SectionOffsetsAre64ByteAligned) {
  const std::string bytes = EncodeModelSnapshot(LargeModel());
  for (const SnapshotSection id :
       {SnapshotSection::kOptions, SnapshotSection::kStringPool,
        SnapshotSection::kSubsetIndex, SnapshotSection::kObservations,
        SnapshotSection::kTreeLevels, SnapshotSection::kTokenTable,
        SnapshotSection::kPatternIndex2}) {
    const Section section = FindSection(bytes, id);
    ASSERT_TRUE(section.found);
    EXPECT_EQ(section.offset % 64, 0u)
        << "section " << static_cast<uint32_t>(id);
  }
}

TEST(SnapshotV2Test, MappedLoadIsZeroCopyAndResaveIsBitIdentical) {
  const std::string path_a = testing::TempDir() + "/v2_mmap_a.model";
  const std::string path_b = testing::TempDir() + "/v2_mmap_b.model";
  ASSERT_TRUE(LargeModel().Save(path_a).ok());

  auto loaded = Model::Load(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto bytes_a = ReadFileToString(path_a);
  ASSERT_TRUE(bytes_a.ok());
  // The loaded model borrows from the mapping: subset storage owns no
  // heap bytes and the whole file is accounted as mapped.
  EXPECT_EQ(loaded->mapped_bytes(), bytes_a->size());
  const SubsetStats* stats = loaded->FindSubset(FeatureKey{3});
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->borrowed());
  EXPECT_EQ(stats->OwnedBytes(), 0u);

  ExpectIdenticalQueries(LargeModel(), *loaded);

  ASSERT_TRUE(loaded->Save(path_b).ok());
  auto bytes_b = ReadFileToString(path_b);
  ASSERT_TRUE(bytes_b.ok());
  EXPECT_TRUE(*bytes_a == *bytes_b);
}

TEST(SnapshotV2Test, SmallSubsetsCarryNoTree) {
  // Every subset below kTreeMinSize: the writer emits no tree section at
  // all and neither decode path allocates or borrows tree storage.
  const Model small = BuildModel(SubsetStats::kTreeMinSize / 2);
  const std::string bytes = EncodeModelSnapshot(small);
  EXPECT_TRUE(FindSection(bytes, SnapshotSection::kObservations).found);
  EXPECT_FALSE(FindSection(bytes, SnapshotSection::kTreeLevels).found);

  auto decoded = DecodeModelSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const std::string path = testing::TempDir() + "/v2_small.model";
  ASSERT_TRUE(small.Save(path).ok());
  auto mapped = Model::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  for (const Model* m : {&*decoded, &*mapped}) {
    const SubsetStats* stats = m->FindSubset(FeatureKey{3});
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->tree_levels(), 0u);
    EXPECT_TRUE(stats->tree_data().empty());
    // The tree-free path still answers exactly like the reference scan.
    for (double theta1 : {1.0, 4.0, 5.0, 9.0}) {
      EXPECT_EQ(stats->CountSurprising(
                    SurpriseDirection::kHigherMoreSurprising, theta1, 2.0),
                CountSurprisingLinear(*stats,
                                      SurpriseDirection::kHigherMoreSurprising,
                                      theta1, 2.0));
    }
  }
  ExpectIdenticalQueries(small, *mapped);
}

TEST(SnapshotV2Test, LargeSubsetsLoadSerializedTreeVerbatim) {
  const std::string path = testing::TempDir() + "/v2_tree.model";
  ASSERT_TRUE(LargeModel().Save(path).ok());
  auto mapped = Model::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  const SubsetStats* original = LargeModel().FindSubset(FeatureKey{3});
  const SubsetStats* loaded = mapped->FindSubset(FeatureKey{3});
  ASSERT_NE(original, nullptr);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->tree_levels(),
            SubsetStats::TreeLevelsFor(loaded->size()));
  ASSERT_EQ(loaded->tree_data().size(), original->tree_data().size());
  for (size_t i = 0; i < original->tree_data().size(); ++i) {
    ASSERT_EQ(loaded->tree_data()[i], original->tree_data()[i]) << i;
  }
}

TEST(SnapshotV2Test, EmptyModelAndEmptyPoolRoundTrip) {
  // No observations, no tokens, no patterns: the bulk sections are
  // absent, the pool holds zero strings, and the file still round-trips
  // bit-identically through both decode paths.
  Model empty;
  empty.Finalize();
  const std::string bytes = EncodeModelSnapshot(empty);
  EXPECT_FALSE(FindSection(bytes, SnapshotSection::kObservations).found);
  EXPECT_FALSE(FindSection(bytes, SnapshotSection::kTreeLevels).found);

  auto decoded = DecodeModelSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_subsets(), 0u);
  EXPECT_TRUE(EncodeModelSnapshot(*decoded) == bytes);

  const std::string path = testing::TempDir() + "/v2_empty.model";
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  auto mapped = Model::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->num_subsets(), 0u);
  EXPECT_EQ(mapped->mapped_bytes(), bytes.size());
}

TEST(SnapshotV2Test, DeferredValidationSkipsOnlyBulkPayloads) {
  const std::string pristine = EncodeModelSnapshot(LargeModel());

  // A flip inside the serialized tree levels: full validation catches it
  // via the section CRC; deferred validation (the serving reload path)
  // deliberately does not read those bytes.
  const Section tree = FindSection(pristine, SnapshotSection::kTreeLevels);
  ASSERT_TRUE(tree.found);
  std::string tree_flip = pristine;
  tree_flip[static_cast<size_t>(tree.offset) + tree.length / 2] ^= 0x01;
  auto full = DecodeModelSnapshot(tree_flip, SnapshotValidation::kFull);
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.status().IsCorruption()) << full.status();
  auto deferred =
      DecodeModelSnapshot(tree_flip, SnapshotValidation::kDeferPayload);
  EXPECT_TRUE(deferred.ok()) << deferred.status();

  // A flip in the subset index is metadata: both modes must reject it.
  const Section index = FindSection(pristine, SnapshotSection::kSubsetIndex);
  ASSERT_TRUE(index.found);
  std::string index_flip = pristine;
  index_flip[static_cast<size_t>(index.offset) + index.length - 1] ^= 0x01;
  for (const SnapshotValidation mode :
       {SnapshotValidation::kFull, SnapshotValidation::kDeferPayload}) {
    auto decoded = DecodeModelSnapshot(index_flip, mode);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  }
}

TEST(SnapshotV2Test, MisalignedSectionOffsetIsCorruption) {
  const std::string pristine = EncodeModelSnapshot(LargeModel());
  const Section pool = FindSection(pristine, SnapshotSection::kStringPool);
  ASSERT_TRUE(pool.found);
  {
    // Offset knocked off the 64-byte grid.
    std::string mutated = pristine;
    std::string patched;
    AppendU64(&patched, pool.offset + 8);
    mutated.replace(pool.table_pos + 8, 8, patched);
    auto decoded = DecodeModelSnapshot(mutated);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  }
  {
    // Aligned but not canonically packed (points at the previous slot).
    std::string mutated = pristine;
    std::string patched;
    AppendU64(&patched, pool.offset - 64);
    mutated.replace(pool.table_pos + 8, 8, patched);
    auto decoded = DecodeModelSnapshot(mutated);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  }
}

TEST(SnapshotV2Test, OverflowingSectionExtentIsCorruption) {
  // A crafted (offset, length) pair near 2^64: the sum wraps to a small
  // value, so a naive `offset + length <= size` bounds compare passes
  // and the decoder hands out a span far past the mapped region. The
  // extent must be computed overflow-checked and rejected as typed
  // Corruption before any bounds compare.
  const std::string pristine = EncodeModelSnapshot(LargeModel());
  const Section pool = FindSection(pristine, SnapshotSection::kStringPool);
  ASSERT_TRUE(pool.found);
  const uint64_t hostile_offsets[] = {0xFFFFFFFFFFFFFFF0ull,
                                      0x8000000000000000ull};
  for (const uint64_t offset : hostile_offsets) {
    std::string mutated = pristine;
    std::string patched;
    AppendU64(&patched, offset);
    AppendU64(&patched, 0x40);  // offset + length wraps past 2^64
    mutated.replace(pool.table_pos + 8, 16, patched);
    auto decoded = DecodeModelSnapshot(mutated);
    ASSERT_FALSE(decoded.ok()) << "offset " << offset << " decoded";
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
  }
}

TEST(SnapshotV2Test, HugeSectionCountIsCorruptionNotBadAlloc) {
  // section_count drives an entries.reserve(); a 2^32-1 count must be
  // rejected against the actual file size before the allocation, not
  // after a multi-GB std::bad_alloc.
  std::string mutated = EncodeModelSnapshot(LargeModel());
  std::string patched;
  AppendU32(&patched, 0xFFFFFFFFu);
  mutated.replace(kSnapshotMagic.size() + 4, 4, patched);
  auto decoded = DecodeModelSnapshot(mutated);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(SnapshotV2Test, CorruptFilesFailTypedThroughTheMmapLoader) {
  // The robustness sweeps above run in memory; this one drives the real
  // serving path — Model::Load over a mapped file — and must come back
  // as a typed error for every corruption, never a crash (asan/ubsan
  // presets run this test over the actual mmap'd reads).
  const std::string pristine = EncodeModelSnapshot(LargeModel());
  const std::string path = testing::TempDir() + "/v2_corrupt.model";

  std::vector<size_t> lengths = {0, 8, 15, 16, 40, 64, pristine.size() - 1};
  for (size_t len = 128; len < pristine.size(); len += pristine.size() / 7) {
    lengths.push_back(len);
  }
  for (const size_t len : lengths) {
    ASSERT_TRUE(WriteStringToFile(path, pristine.substr(0, len)).ok());
    auto loaded = Model::Load(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "prefix " << len << ": " << loaded.status();
  }

  for (size_t pos = 0; pos < pristine.size();
       pos += 1 + pristine.size() / 64) {
    std::string mutated = pristine;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
    auto loaded = Model::Load(path);
    ASSERT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    EXPECT_TRUE(loaded.status().IsCorruption() ||
                loaded.status().IsNotImplemented())
        << "byte " << pos << ": " << loaded.status();
  }
}

TEST(SnapshotV2Test, FutureVersionFailsThroughTheMmapLoader) {
  std::string bytes = EncodeModelSnapshot(LargeModel());
  std::string patched;
  AppendU32(&patched, kSnapshotVersion + 1);
  bytes.replace(kSnapshotMagic.size(), 4, patched);
  const std::string path = testing::TempDir() + "/v2_future.model";
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  auto loaded = Model::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotImplemented()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("newer"), std::string::npos);
}

// ---------------------------------------------------------------------
// ModelView: the serving-side read handle.

TEST(ModelViewTest, OpenV2DefaultsToZeroCopy) {
  const std::string path = testing::TempDir() + "/view_v2.model";
  ASSERT_TRUE(LargeModel().Save(path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());

  auto view = ModelView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_TRUE(view->zero_copy());
  EXPECT_EQ(view->mapped_bytes(), bytes->size());
  // Borrowed subset storage keeps the private heap footprint to the
  // index vector, far below the mapped observation payload.
  EXPECT_LT(view->resident_bytes(), view->mapped_bytes());
  ExpectIdenticalQueries(LargeModel(), view->model());
}

TEST(ModelViewTest, OpenMissingFileFails) {
  auto view = ModelView::Open(testing::TempDir() + "/no_such.model");
  ASSERT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsIOError()) << view.status();
}

TEST(ModelViewTest, FullValidationCatchesWhatDeferredDefers) {
  const std::string pristine = EncodeModelSnapshot(LargeModel());
  const Section obs = FindSection(pristine, SnapshotSection::kObservations);
  ASSERT_TRUE(obs.found);
  std::string mutated = pristine;
  // Flip a byte in the posts half of the last subset's observations:
  // invisible to deferred structural checks, caught by the full CRC.
  mutated[static_cast<size_t>(obs.offset) + obs.length - 1] ^= 0x01;
  const std::string path = testing::TempDir() + "/view_flip.model";
  ASSERT_TRUE(WriteStringToFile(path, mutated).ok());

  auto deferred = ModelView::Open(path);
  EXPECT_TRUE(deferred.ok()) << deferred.status();
  auto full = ModelView::Open(path, SnapshotValidation::kFull);
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.status().IsCorruption()) << full.status();
}

}  // namespace
}  // namespace unidetect
