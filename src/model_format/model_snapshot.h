// The versioned binary model snapshot — the materialized artifact of the
// offline component (Section 2.2.3: learning crunches T once; online
// detection is a metric computation plus a lookup into this file).
//
// Wire layout (all integers little-endian, fixed width; DESIGN.md §10
// for the container, §12 for the flat layout):
//
//   header          magic[8] = "UDSNAP\r\n"   (the \r\n catches text-mode
//                   u32 format_version         line-ending mangling, like
//                   u32 section_count          PNG's signature does)
//   section table   section_count entries of
//                   { u32 id, u32 crc32, u64 offset, u64 length }
//                   in strictly ascending id order
//   payloads        section bytes at the recorded offsets
//
// Each section's CRC-32 covers its payload bytes, so truncation and
// bit-level corruption are detected before any payload is decoded.
// Encoding is fully deterministic (sorted subsets, tokens, patterns):
// Save -> Load -> Save produces identical bytes.
//
// Version 3 (model_format/snapshot_v2.h) is the only readable and
// writable version: every payload is laid out flat and 64-byte aligned
// so a reader can mmap the file and query it in place, the token hash
// table included. Compatibility policy: readers reject snapshots whose
// format_version is newer than kSnapshotVersion (NotImplemented — the
// layout may have changed incompatibly) or older (Corruption —
// versions 0 to 2 are retired; version 2 stored the token index as
// sorted string-pool references that every open re-hashed), and skip
// unknown section ids within version 3 (additive sections do not
// require a version bump). A file without the UDSNAP magic is
// Corruption.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "learn/model.h"
#include "model_format/snapshot_validation.h"
#include "util/result.h"

namespace unidetect {

inline constexpr std::string_view kSnapshotMagic{"UDSNAP\r\n", 8};
inline constexpr uint32_t kSnapshotVersion = 3;

/// \brief Section identifiers. Values are part of the wire format; a
/// v3 file carries {1, 5..10}, plus 13 when it is a *delta* artifact
/// (model_format/delta_snapshot.h): a small model chained to its base
/// snapshot by content hash. Id 9 kept its number across the version
/// bump from 2 to 3 and changed its layout (pool references in v2, the
/// hash table itself in v3).
///
/// Retired ids, never to be reused: 2, 3, 4 (the v1 inline subsets,
/// token index and pattern index) and 11, 12 (the binary16 observation
/// and tree variants of 7 and 8). A reader skips them like any other
/// unknown id, so a file carrying its observations under 11/12 fails as
/// missing its observation sections.
enum class SnapshotSection : uint32_t {
  kOptions = 1,          ///< ModelOptions, fixed-width fields
  kStringPool = 5,       ///< interned bytes of all patterns/pair keys
  kSubsetIndex = 6,      ///< key-sorted fixed-width subset directory
  kObservations = 7,     ///< contiguous f32 pres/posts arrays
  kTreeLevels = 8,       ///< flat per-subset merge-sort-tree levels
  kTokenTable = 9,       ///< token hash table, counts and token bytes
  kPatternIndex2 = 10,   ///< pool-ref pattern + pair entries
  kDeltaManifest = 13,   ///< delta chain manifest (delta_snapshot.h)
};

/// \brief True when `bytes` starts with the snapshot magic.
bool LooksLikeModelSnapshot(std::string_view bytes);

/// \brief Encodes a finalized model as one snapshot blob (the flat
/// layout of model_format/snapshot_v2.h).
std::string EncodeModelSnapshot(const Model& model);

/// \brief Decodes a snapshot blob into a finalized, query-ready
/// model (model_format/snapshot_v2.cc). Always copies into owned
/// storage — in-memory buffers carry no alignment guarantee; the
/// zero-copy path is LoadModelFromFile / ModelView over a mapped file.
///
/// Never returns a partial model: corrupt, truncated, or checksum-failed
/// input, and a retired format version (0 to 2), yield
/// Status::Corruption; input written by a newer format version yields
/// Status::NotImplemented.
Result<Model> DecodeModelSnapshot(
    std::string_view bytes,
    SnapshotValidation validation = SnapshotValidation::kFull);

/// \brief Loads a snapshot file: mapped and decoded zero-copy on
/// little-endian hosts, decoded into owned storage on big-endian ones.
/// Same error contract as DecodeModelSnapshot. Backs Model::Load and
/// ModelView::Open.
Result<Model> LoadModelFromFile(
    const std::string& path,
    SnapshotValidation validation = SnapshotValidation::kFull);

}  // namespace unidetect
