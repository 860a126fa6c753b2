#include "model_format/snapshot_v2.h"

#include <algorithm>
#include <bit>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "model_format/codec_internal.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "util/binary_io.h"
#include "util/bounded_reader.h"
#include "util/checked.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

using snapshot_internal::DecodeOptionsPayload;
using snapshot_internal::EncodeOptionsPayload;
using snapshot_internal::kHeaderBytes;
using snapshot_internal::kTableEntryBytes;
using snapshot_internal::SectionName;

constexpr uint64_t kSectionAlign = 64;
constexpr size_t kSubsetEntryBytes = 8 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kPoolRefEntryBytes = 4 + 4 + 8;
// Token section: u64 num_tables, num_tokens, capacity, arena_bytes.
constexpr size_t kTokenHeaderBytes = 4 * 8;
static_assert(sizeof(FlatStringTable::Slot) == 8 &&
              std::is_trivially_copyable_v<FlatStringTable::Slot>);
constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

uint64_t Align64(uint64_t offset) {
  return (offset + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

// ---------------------------------------------------------------------------
// Writer.

// The wire format stores arrays little-endian (floats as IEEE-754); on
// a little-endian host the in-memory array already is those bytes.
template <typename T>
void AppendArray(std::string* out, std::span<const T> values) {
  if constexpr (kHostIsLittleEndian) {
    // Trusted in-memory source: `values` is the model's own array on the
    // encode path, not wire bytes, and the copy length comes from the
    // span itself.
    // NOLINTNEXTLINE(unsafe-bytes)
    out->append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(T));
  } else {
    for (const T& v : values) {
      if constexpr (std::is_same_v<T, float>) {
        AppendF32(out, v);
      } else if constexpr (std::is_same_v<T, uint64_t>) {
        AppendU64(out, v);
      } else if constexpr (std::is_same_v<T, uint32_t>) {
        AppendU32(out, v);
      } else {
        AppendU32(out, v.tag);
        AppendU32(out, v.id);
      }
    }
  }
}

// Sorted-unique interned strings. Sorting makes the pool (and every
// pool-ref entry) a pure function of the string *set*, which is what
// keeps decode -> re-encode bit-identical.
class StringPool {
 public:
  void Add(std::string_view s) { strings_.push_back(s); }

  void Build() {
    std::sort(strings_.begin(), strings_.end());
    strings_.erase(std::unique(strings_.begin(), strings_.end()),
                   strings_.end());
    offsets_.reserve(strings_.size());
    uint64_t offset = 0;
    for (std::string_view s : strings_) {
      offsets_.push_back(static_cast<uint32_t>(offset));
      offset += s.size();
    }
    total_bytes_ = offset;
  }

  std::pair<uint32_t, uint32_t> Ref(std::string_view s) const {
    auto it = std::lower_bound(strings_.begin(), strings_.end(), s);
    UNIDETECT_CHECK(it != strings_.end() && *it == s);
    return {offsets_[static_cast<size_t>(it - strings_.begin())],
            static_cast<uint32_t>(s.size())};
  }

  std::string Payload() const {
    std::string out;
    AppendU64(&out, total_bytes_);
    out.reserve(out.size() + total_bytes_);
    for (std::string_view s : strings_) out.append(s);
    return out;
  }

 private:
  std::vector<std::string_view> strings_;
  std::vector<uint32_t> offsets_;
  uint64_t total_bytes_ = 0;
};

void AppendPoolRefEntries(
    std::string* out, const StringPool& pool,
    std::vector<std::pair<std::string_view, uint64_t>>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, count] : *entries) {
    const auto [off, len] = pool.Ref(key);
    AppendU32(out, off);
    AppendU32(out, len);
    AppendU64(out, count);
  }
}

// ---------------------------------------------------------------------------
// Decoder.

struct ParsedV2 {
  std::string_view options;
  std::string_view pool;  // the interned bytes, after the u64 count
  std::string_view index_entries;
  uint64_t subset_count = 0;
  uint64_t total_obs_floats = 0;
  uint64_t total_tree_floats = 0;
  std::string_view obs_bytes;   // raw f32 bytes; empty when none
  std::string_view tree_bytes;  // raw f32 bytes; empty when none
  std::string_view token_payload;
  std::string_view pattern_payload;
};

/// Structural parse + (validation-dependent) CRC pass. On success every
/// view in `out` points into `bytes`.
Status ParseV2(std::string_view bytes, SnapshotValidation validation,
               ParsedV2* out) {
  BinaryReader reader(bytes);
  std::string_view magic;
  if (!reader.ReadBytes(kSnapshotMagic.size(), &magic) ||
      magic != kSnapshotMagic) {
    return Status::Corruption("Model snapshot: bad magic");
  }
  uint32_t version = 0;
  uint32_t section_count = 0;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&section_count)) {
    return Status::Corruption("Model snapshot: truncated header");
  }
  if (version > kSnapshotVersion) {
    return Status::NotImplemented(
        StrCat("Model snapshot: format version ", version,
               " is newer than the supported version ", kSnapshotVersion,
               "; upgrade the reader"));
  }
  if (version != kSnapshotVersion) {
    return Status::Corruption(
        StrCat("Model snapshot: format version ", version,
               " is retired; only version ", kSnapshotVersion,
               " is readable"));
  }

  struct Entry {
    uint32_t id = 0;
    uint32_t crc = 0;
    std::string_view payload;
  };
  // The table size is validated against the file BEFORE the reserve: a
  // crafted section_count must not drive a multi-gigabyte allocation
  // (std::bad_alloc is a crash, not a typed Corruption).
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t table_bytes,
      CheckedMul<uint64_t>(section_count, kTableEntryBytes,
                           "snapshot section table"));
  if (table_bytes > reader.remaining()) {
    return Status::Corruption("Model snapshot: truncated section table");
  }
  std::vector<Entry> entries;
  entries.reserve(section_count);
  const BoundedReader file(bytes, "Model snapshot");
  uint32_t prev_id = 0;
  // Canonical packing: payloads are contiguous in table order, each
  // offset rounded up to a 64-byte boundary with zero padding between,
  // and the file ends at the last payload byte. The padding bytes are
  // outside every CRC, so the explicit zero check is what catches
  // corruption there; the exact-end rule is what makes any truncation a
  // bounds failure.
  uint64_t expected_end = kHeaderBytes + table_bytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0;
    uint32_t crc = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    if (!reader.ReadU32(&id) || !reader.ReadU32(&crc) ||
        !reader.ReadU64(&offset) || !reader.ReadU64(&length)) {
      return Status::Corruption("Model snapshot: truncated section table");
    }
    if (id <= prev_id) {
      return Status::Corruption(
          "Model snapshot: section ids not strictly ascending");
    }
    prev_id = id;
    if (length == 0) {
      return Status::Corruption(
          StrCat("Model snapshot: zero-length ", SectionName(id), " section"));
    }
    // The section end is computed overflow-checked BEFORE the bounds
    // compare: a crafted offset/length pair near 2^64 must not wrap the
    // sum below the file size.
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t section_end,
        CheckedAdd<uint64_t>(offset, length, "snapshot section extent"));
    if (section_end > bytes.size()) {
      return Status::Corruption(
          StrCat("Model snapshot: ", SectionName(id),
                 " section extends past end of file (truncated?)"));
    }
    if (offset % kSectionAlign != 0) {
      return Status::Corruption(
          StrCat("Model snapshot: ", SectionName(id),
                 " section offset is not 64-byte aligned"));
    }
    if (offset != Align64(expected_end)) {
      return Status::Corruption(
          StrCat("Model snapshot: ", SectionName(id),
                 " section is not canonically packed"));
    }
    for (uint64_t p = expected_end; p < offset; ++p) {
      if (bytes[static_cast<size_t>(p)] != '\0') {
        return Status::Corruption(
            "Model snapshot: nonzero padding between sections");
      }
    }
    expected_end = section_end;
    UNIDETECT_ASSIGN_OR_RETURN(const std::string_view payload,
                               file.SubSpan(offset, length));
    entries.push_back(Entry{id, crc, payload});
  }
  if (expected_end != bytes.size()) {
    return Status::Corruption(
        "Model snapshot: trailing bytes after last section");
  }

  for (const Entry& entry : entries) {
    // The bulk payloads are the whole point of deferred validation:
    // checksumming them would make reload linear in observation count.
    if (validation == SnapshotValidation::kDeferPayload &&
        (entry.id == static_cast<uint32_t>(SnapshotSection::kObservations) ||
         entry.id == static_cast<uint32_t>(SnapshotSection::kTreeLevels))) {
      continue;
    }
    if (Crc32(entry.payload) != entry.crc) {
      return Status::Corruption(StrCat("Model snapshot: checksum mismatch in ",
                                       SectionName(entry.id), " section"));
    }
  }

  auto find_section = [&](SnapshotSection id) -> const Entry* {
    for (const Entry& entry : entries) {
      if (entry.id == static_cast<uint32_t>(id)) return &entry;
    }
    return nullptr;
  };
  // Unknown section ids are skipped: additive sections are readable by
  // older readers; incompatible layout changes bump kSnapshotVersion.
  for (SnapshotSection required :
       {SnapshotSection::kOptions, SnapshotSection::kStringPool,
        SnapshotSection::kSubsetIndex, SnapshotSection::kTokenTable,
        SnapshotSection::kPatternIndex2}) {
    if (find_section(required) == nullptr) {
      return Status::Corruption(
          StrCat("Model snapshot: missing ",
                 SectionName(static_cast<uint32_t>(required)), " section"));
    }
  }

  out->options = find_section(SnapshotSection::kOptions)->payload;

  {
    const std::string_view payload =
        find_section(SnapshotSection::kStringPool)->payload;
    BinaryReader pool_reader(payload);
    uint64_t pool_bytes = 0;
    if (!pool_reader.ReadU64(&pool_bytes) ||
        pool_reader.remaining() != pool_bytes) {
      return Status::Corruption(
          "Model snapshot: string pool size does not match its section");
    }
    out->pool = payload.substr(8);
  }

  {
    const std::string_view payload =
        find_section(SnapshotSection::kSubsetIndex)->payload;
    BinaryReader index_reader(payload);
    if (!index_reader.ReadU64(&out->subset_count) ||
        !index_reader.ReadU64(&out->total_obs_floats) ||
        !index_reader.ReadU64(&out->total_tree_floats)) {
      return Status::Corruption("Model snapshot: truncated subset index");
    }
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t index_bytes,
        CheckedMul<uint64_t>(out->subset_count, kSubsetEntryBytes,
                             "snapshot subset index"));
    if (index_reader.remaining() != index_bytes) {
      return Status::Corruption(
          "Model snapshot: subset index size does not match its count");
    }
    out->index_entries = payload.substr(24);
  }

  // The bulk sections exist exactly when they have content (a zero-byte
  // section is invalid by the container rules).
  for (const auto& [id, total, dest] :
       {std::tuple{SnapshotSection::kObservations, out->total_obs_floats,
                   &out->obs_bytes},
        std::tuple{SnapshotSection::kTreeLevels, out->total_tree_floats,
                   &out->tree_bytes}}) {
    const Entry* entry = find_section(id);
    if (total == 0) {
      if (entry != nullptr) {
        return Status::Corruption(
            StrCat("Model snapshot: unexpected ",
                   SectionName(static_cast<uint32_t>(id)), " section"));
      }
      continue;
    }
    if (entry == nullptr) {
      return Status::Corruption(
          StrCat("Model snapshot: missing ",
                 SectionName(static_cast<uint32_t>(id)), " section"));
    }
    // Overflow-checked: a total near 2^64 must not wrap total * 4 down
    // to the (small) actual section size and then back huge per-subset
    // spans out of the mapped file.
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t total_bytes,
        CheckedMul<uint64_t>(total, sizeof(float), "snapshot bulk section"));
    if (entry->payload.size() != total_bytes) {
      return Status::Corruption(
          StrCat("Model snapshot: ", SectionName(static_cast<uint32_t>(id)),
                 " section size does not match the subset index totals"));
    }
    *dest = entry->payload;
  }

  out->token_payload = find_section(SnapshotSection::kTokenTable)->payload;
  out->pattern_payload =
      find_section(SnapshotSection::kPatternIndex2)->payload;
  return Status::OK();
}

Status DecodeSubsets(const ParsedV2& parsed, SnapshotValidation validation,
                     bool zero_copy, Model* model) {
  BinaryReader reader(parsed.index_entries);
  // Every span below is carved from the bulk sections through
  // BoundedReader, which overflow-checks offset-plus-count and (on the
  // zero-copy path) verifies overlay alignment — the mmap base is
  // page-aligned and the section offsets 64-aligned, so alignment holds
  // for well-formed files.
  const BoundedReader obs_reader(parsed.obs_bytes, "observations section");
  const BoundedReader tree_reader(parsed.tree_bytes, "tree section");
  uint64_t running_obs = 0;
  uint64_t running_tree = 0;
  uint64_t prev_key = 0;
  for (uint64_t i = 0; i < parsed.subset_count; ++i) {
    uint64_t key = 0;
    uint64_t obs_off = 0;
    uint64_t count = 0;
    uint64_t tree_off = 0;
    uint32_t tree_levels = 0;
    uint32_t reserved = 0;
    reader.ReadU64(&key);  // entry count pre-validated against remaining()
    reader.ReadU64(&obs_off);
    reader.ReadU64(&count);
    reader.ReadU64(&tree_off);
    reader.ReadU32(&tree_levels);
    reader.ReadU32(&reserved);
    if (i > 0 && key <= prev_key) {
      return Status::Corruption(
          "Model snapshot: subset keys not strictly ascending");
    }
    prev_key = key;
    if (reserved != 0) {
      return Status::Corruption(
          "Model snapshot: nonzero reserved field in subset index");
    }
    // Canonical packing: offsets are the running sums and the tree shape
    // is the one Finalize() would build. This pins a unique encoding for
    // every model (bit-identical re-encode) and bounds every span.
    UNIDETECT_ASSIGN_OR_RETURN(const size_t count_sz,
                               CheckedCast<size_t>(count, "subset count"));
    const uint64_t expected_levels = SubsetStats::TreeLevelsFor(count_sz);
    if (obs_off != running_obs || tree_off != running_tree ||
        tree_levels != expected_levels) {
      return Status::Corruption(
          "Model snapshot: subset index is not canonically packed");
    }
    if (count > (parsed.total_obs_floats - running_obs) / 2) {
      return Status::Corruption(
          "Model snapshot: subset observations exceed section total");
    }
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t tree_count,
        CheckedMul<uint64_t>(expected_levels, count, "subset tree size"));
    if (tree_count > parsed.total_tree_floats - running_tree) {
      return Status::Corruption(
          "Model snapshot: subset tree exceeds section total");
    }
    // The pres array sits at obs_off, the posts array right after it.
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t posts_off,
        CheckedAdd<uint64_t>(obs_off, count, "subset observations extent"));
    Result<SubsetStats> stats = [&]() -> Result<SubsetStats> {
      const bool validate_sorted = validation == SnapshotValidation::kFull;
      if (zero_copy) {
        UNIDETECT_ASSIGN_OR_RETURN(const std::span<const float> pres,
                                   obs_reader.Overlay<float>(obs_off, count));
        UNIDETECT_ASSIGN_OR_RETURN(
            const std::span<const float> posts,
            obs_reader.Overlay<float>(posts_off, count));
        UNIDETECT_ASSIGN_OR_RETURN(
            const std::span<const float> tree,
            tree_reader.Overlay<float>(tree_off, tree_count));
        return SubsetStats::FromBorrowedSorted(pres, posts, tree,
                                               validate_sorted);
      }
      UNIDETECT_ASSIGN_OR_RETURN(std::vector<float> pres,
                                 obs_reader.CopyArray<float>(obs_off, count));
      UNIDETECT_ASSIGN_OR_RETURN(
          std::vector<float> posts,
          obs_reader.CopyArray<float>(posts_off, count));
      UNIDETECT_ASSIGN_OR_RETURN(
          std::vector<float> tree,
          tree_reader.CopyArray<float>(tree_off, tree_count));
      return SubsetStats::FromSortedArraysWithTree(
          std::move(pres), std::move(posts), std::move(tree));
    }();
    if (!stats.ok()) return stats.status();
    model->InsertSubsetSorted(FeatureKey{key}, std::move(stats).ValueOrDie());
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t obs_pair,
        CheckedMul<uint64_t>(count, 2, "subset observation pair"));
    UNIDETECT_ASSIGN_OR_RETURN(
        running_obs,
        CheckedAdd<uint64_t>(running_obs, obs_pair, "observations total"));
    UNIDETECT_ASSIGN_OR_RETURN(
        running_tree,
        CheckedAdd<uint64_t>(running_tree, tree_count, "tree total"));
  }
  if (running_obs != parsed.total_obs_floats ||
      running_tree != parsed.total_tree_floats) {
    return Status::Corruption(
        "Model snapshot: subset index totals do not match its entries");
  }
  return Status::OK();
}

Status PoolString(std::string_view pool, uint32_t off, uint32_t len,
                  std::string_view* out) {
  if (off > pool.size() || len > pool.size() - off) {
    return Status::Corruption(
        "Model snapshot: pool reference out of bounds");
  }
  *out = pool.substr(off, len);
  return Status::OK();
}

// The token section is the trained table in canonical form: ids are the
// tokens' sorted rank and the slot array was filled in that order at
// FlatStringTable::CapacityFor(num_tokens) slots. Zero-copy, the table
// and the counts borrow the section; owned, they are copied out of it.
// Either way TokenIndex checks them before the first lookup, probe
// positions only under full validation.
Status DecodeTokenIndex(const ParsedV2& parsed, SnapshotValidation validation,
                        bool zero_copy, Model* model) {
  BinaryReader reader(parsed.token_payload);
  uint64_t num_tables = 0;
  uint64_t num_tokens = 0;
  uint64_t capacity = 0;
  uint64_t arena_bytes = 0;
  if (!reader.ReadU64(&num_tables) || !reader.ReadU64(&num_tokens) ||
      !reader.ReadU64(&capacity) || !reader.ReadU64(&arena_bytes)) {
    return Status::Corruption(
        "Model snapshot: token index section size mismatch");
  }
  if (num_tokens >= FlatStringTable::kAbsent) {
    return Status::Corruption("Model snapshot: too many token entries");
  }
  // Slots, then u64 counts and u32 key ends, then the key bytes: every
  // array starts aligned for its element type within the section.
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t slot_bytes,
      CheckedMul<uint64_t>(capacity, sizeof(FlatStringTable::Slot),
                           "token table slots"));
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t per_token_bytes,
      CheckedMul<uint64_t>(num_tokens, sizeof(uint64_t) + sizeof(uint32_t),
                           "token table counts and ends"));
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t arrays_bytes,
      CheckedAdd<uint64_t>(slot_bytes, per_token_bytes, "token table"));
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t body_bytes,
      CheckedAdd<uint64_t>(arrays_bytes, arena_bytes, "token table"));
  if (reader.remaining() != body_bytes) {
    return Status::Corruption(
        "Model snapshot: token index section size mismatch");
  }
  // Element offsets from the section start, in slots (8 bytes), u64
  // counts and u32 ends; the size check above bounds every sum.
  constexpr uint64_t kSlotsAt = kTokenHeaderBytes / sizeof(uint64_t);
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t counts_at,
      CheckedAdd<uint64_t>(kSlotsAt, capacity, "token table counts"));
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t counts_end,
      CheckedAdd<uint64_t>(counts_at, num_tokens, "token table ends"));
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t ends_at,
      CheckedMul<uint64_t>(counts_end, 2, "token table ends"));
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t arena_at,
      CheckedAdd<uint64_t>(kTokenHeaderBytes, arrays_bytes,
                           "token table arena"));
  const BoundedReader section(parsed.token_payload, "token index section");
  UNIDETECT_ASSIGN_OR_RETURN(const std::string_view arena,
                             section.SubSpan(arena_at, arena_bytes));
  const bool verify_probes = validation == SnapshotValidation::kFull;
  Result<TokenIndex> index = [&]() -> Result<TokenIndex> {
    if (zero_copy) {
      UNIDETECT_ASSIGN_OR_RETURN(
          const std::span<const FlatStringTable::Slot> slots,
          section.Overlay<FlatStringTable::Slot>(kSlotsAt, capacity));
      UNIDETECT_ASSIGN_OR_RETURN(
          const std::span<const uint32_t> ends,
          section.Overlay<uint32_t>(ends_at, num_tokens));
      UNIDETECT_ASSIGN_OR_RETURN(
          const std::span<const uint64_t> counts,
          section.Overlay<uint64_t>(counts_at, num_tokens));
      return TokenIndex::Borrow(num_tables,
                                FlatStringTable::Borrow(slots, arena, ends),
                                counts, verify_probes);
    }
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t slot_words,
        CheckedMul<uint64_t>(capacity, 2, "token table slots"));
    UNIDETECT_ASSIGN_OR_RETURN(
        const std::vector<uint32_t> words,
        section.CopyArray<uint32_t>(2 * kSlotsAt, slot_words));
    std::vector<FlatStringTable::Slot> slots(words.size() / 2);
    for (size_t i = 0; i < slots.size(); ++i) {
      slots[i] = {words[2 * i], words[2 * i + 1]};
    }
    UNIDETECT_ASSIGN_OR_RETURN(
        std::vector<uint32_t> ends,
        section.CopyArray<uint32_t>(ends_at, num_tokens));
    UNIDETECT_ASSIGN_OR_RETURN(
        std::vector<uint64_t> counts,
        section.CopyArray<uint64_t>(counts_at, num_tokens));
    return TokenIndex::Adopt(
        num_tables,
        FlatStringTable::Adopt(
            std::move(slots), std::vector<char>(arena.begin(), arena.end()),
            std::move(ends)),
        std::move(counts), verify_probes);
  }();
  if (!index.ok()) {
    return Status::Corruption(
        StrCat("Model snapshot: ", index.status().message()));
  }
  *model->mutable_token_index() = std::move(index).ValueOrDie();
  return Status::OK();
}

Status DecodePatternIndexV2(const ParsedV2& parsed, Model* model) {
  BinaryReader reader(parsed.pattern_payload);
  uint64_t num_columns = 0;
  uint64_t num_patterns = 0;
  uint64_t num_pairs = 0;
  if (!reader.ReadU64(&num_columns) || !reader.ReadU64(&num_patterns) ||
      !reader.ReadU64(&num_pairs)) {
    return Status::Corruption(
        "Model snapshot: pattern index section size mismatch");
  }
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t num_keys,
      CheckedAdd<uint64_t>(num_patterns, num_pairs, "pattern index count"));
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t pattern_entry_bytes,
      CheckedMul<uint64_t>(num_keys, kPoolRefEntryBytes, "pattern index"));
  if (reader.remaining() != pattern_entry_bytes) {
    return Status::Corruption(
        "Model snapshot: pattern index section size mismatch");
  }
  PatternIndex* index = model->mutable_pattern_index();
  index->SetNumColumns(num_columns);
  for (uint64_t i = 0; i < num_keys; ++i) {
    uint32_t off = 0;
    uint32_t len = 0;
    uint64_t count = 0;
    reader.ReadU32(&off);
    reader.ReadU32(&len);
    reader.ReadU64(&count);
    std::string_view key;
    UNIDETECT_RETURN_NOT_OK(PoolString(parsed.pool, off, len, &key));
    const bool inserted = i < num_patterns ? index->AddPatternCount(key, count)
                                           : index->AddPairCount(key, count);
    if (!inserted) {
      return Status::Corruption("Model snapshot: duplicate pattern entry");
    }
  }
  return Status::OK();
}

Result<Model> BuildModelFromParsed(const ParsedV2& parsed,
                                   SnapshotValidation validation,
                                   bool zero_copy) {
  auto options = DecodeOptionsPayload(parsed.options);
  if (!options.ok()) return options.status();
  Model model(std::move(options).ValueOrDie());
  UNIDETECT_RETURN_NOT_OK(
      DecodeSubsets(parsed, validation, zero_copy, &model));
  UNIDETECT_RETURN_NOT_OK(
      DecodeTokenIndex(parsed, validation, zero_copy, &model));
  UNIDETECT_RETURN_NOT_OK(DecodePatternIndexV2(parsed, &model));
  model.Finalize();
  return model;
}

}  // namespace

std::string EncodeModelSnapshotV2(const Model& model,
                                  const DeltaManifest* manifest) {
  UNIDETECT_CHECK(model.finalized());

  StringPool pool;
  model.pattern_index().ForEachPattern(
      [&](const std::string& pattern, uint64_t) { pool.Add(pattern); });
  model.pattern_index().ForEachPair(
      [&](const std::string& pair, uint64_t) { pool.Add(pair); });
  pool.Build();
  std::string pool_payload = pool.Payload();

  // Subset directory plus the two bulk payloads, packed in key order.
  std::string index_payload;
  std::string obs_payload;
  std::string tree_payload;
  uint64_t total_obs_floats = 0;
  uint64_t total_tree_floats = 0;
  AppendU64(&index_payload, model.num_subsets());
  AppendU64(&index_payload, 0);  // patched below
  AppendU64(&index_payload, 0);
  model.ForEachSubsetSorted([&](FeatureKey key, const SubsetStats& stats) {
    const uint64_t count = stats.size();
    const uint64_t levels = stats.tree_levels();
    AppendU64(&index_payload, key.packed);
    AppendU64(&index_payload, total_obs_floats);
    AppendU64(&index_payload, count);
    AppendU64(&index_payload, total_tree_floats);
    AppendU32(&index_payload, static_cast<uint32_t>(levels));
    AppendU32(&index_payload, 0);  // reserved
    AppendArray<float>(&obs_payload, stats.pres());
    AppendArray<float>(&obs_payload, stats.posts());
    AppendArray<float>(&tree_payload, stats.tree_data());
    total_obs_floats += 2 * count;
    total_tree_floats += levels * count;
  });
  {
    std::string totals;
    AppendU64(&totals, total_obs_floats);
    AppendU64(&totals, total_tree_floats);
    index_payload.replace(8, 16, totals);
  }

  std::string token_payload;
  {
    const TokenIndex sorted = model.token_index().Sorted();
    const FlatStringTable& table = sorted.table();
    token_payload.reserve(
        kTokenHeaderBytes + table.capacity() * sizeof(FlatStringTable::Slot) +
        sorted.num_tokens() * (sizeof(uint64_t) + sizeof(uint32_t)) +
        table.arena().size());
    AppendU64(&token_payload, sorted.num_tables());
    AppendU64(&token_payload, sorted.num_tokens());
    AppendU64(&token_payload, table.capacity());
    AppendU64(&token_payload, table.arena().size());
    AppendArray(&token_payload, table.slots());
    AppendArray(&token_payload, sorted.counts());
    AppendArray(&token_payload, table.ends());
    token_payload.append(table.arena());
  }

  std::string pattern_payload;
  {
    AppendU64(&pattern_payload, model.pattern_index().num_columns());
    AppendU64(&pattern_payload, model.pattern_index().num_patterns());
    AppendU64(&pattern_payload, model.pattern_index().num_pairs());
    std::vector<std::pair<std::string_view, uint64_t>> patterns;
    patterns.reserve(model.pattern_index().num_patterns());
    model.pattern_index().ForEachPattern(
        [&](const std::string& pattern, uint64_t count) {
          patterns.emplace_back(pattern, count);
        });
    AppendPoolRefEntries(&pattern_payload, pool, &patterns);
    std::vector<std::pair<std::string_view, uint64_t>> pairs;
    pairs.reserve(model.pattern_index().num_pairs());
    model.pattern_index().ForEachPair(
        [&](const std::string& pair, uint64_t count) {
          pairs.emplace_back(pair, count);
        });
    AppendPoolRefEntries(&pattern_payload, pool, &pairs);
  }

  std::vector<std::pair<SnapshotSection, const std::string*>> sections;
  std::string options_payload = EncodeOptionsPayload(model.options());
  sections.emplace_back(SnapshotSection::kOptions, &options_payload);
  sections.emplace_back(SnapshotSection::kStringPool, &pool_payload);
  sections.emplace_back(SnapshotSection::kSubsetIndex, &index_payload);
  if (!obs_payload.empty()) {
    sections.emplace_back(SnapshotSection::kObservations, &obs_payload);
  }
  if (!tree_payload.empty()) {
    sections.emplace_back(SnapshotSection::kTreeLevels, &tree_payload);
  }
  sections.emplace_back(SnapshotSection::kTokenTable, &token_payload);
  sections.emplace_back(SnapshotSection::kPatternIndex2, &pattern_payload);
  // The delta manifest's id (13) sits above every other section id, so
  // appending it last keeps the table strictly ascending.
  std::string manifest_payload;
  if (manifest != nullptr) {
    manifest_payload = EncodeDeltaManifestPayload(*manifest);
    sections.emplace_back(SnapshotSection::kDeltaManifest, &manifest_payload);
  }

  std::string out;
  out.append(kSnapshotMagic);
  AppendU32(&out, kSnapshotVersion);
  AppendU32(&out, static_cast<uint32_t>(sections.size()));
  uint64_t offset = kHeaderBytes + sections.size() * kTableEntryBytes;
  std::vector<uint64_t> offsets;
  offsets.reserve(sections.size());
  for (const auto& [id, payload] : sections) {
    offset = Align64(offset);
    offsets.push_back(offset);
    AppendU32(&out, static_cast<uint32_t>(id));
    AppendU32(&out, Crc32(*payload));
    AppendU64(&out, offset);
    AppendU64(&out, payload->size());
    offset += payload->size();
  }
  out.reserve(static_cast<size_t>(offset));
  for (size_t i = 0; i < sections.size(); ++i) {
    out.resize(static_cast<size_t>(offsets[i]), '\0');  // zero padding
    out.append(*sections[i].second);
  }
  return out;
}

// Owned decode: observation and tree floats are copied out of `bytes`,
// which therefore needs no particular alignment and may be freed
// afterwards.
Result<Model> DecodeModelSnapshot(std::string_view bytes,
                                  SnapshotValidation validation) {
  ParsedV2 parsed;
  UNIDETECT_RETURN_NOT_OK(ParseV2(bytes, validation, &parsed));
  return BuildModelFromParsed(parsed, validation, /*zero_copy=*/false);
}

Result<Model> ModelFromSnapshotRegion(std::shared_ptr<MmapRegion> region,
                                      SnapshotValidation validation) {
  const std::string_view bytes = region->bytes();
  if (!kHostIsLittleEndian) {
    // Big-endian hosts must byte-swap (owned decode); the region is
    // dropped after the copy.
    return DecodeModelSnapshot(bytes, validation);
  }
  ParsedV2 parsed;
  UNIDETECT_RETURN_NOT_OK(ParseV2(bytes, validation, &parsed));
  auto model = BuildModelFromParsed(parsed, validation, /*zero_copy=*/true);
  if (!model.ok()) return model.status();
  const uint64_t mapped = bytes.size();
  model->SetBacking(std::move(region), mapped);
  return model;
}

}  // namespace unidetect
