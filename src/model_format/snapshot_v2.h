// UDSNAP v3: the flat, offset-based, 64-byte-aligned snapshot layout
// (DESIGN.md §12) that serving maps read-only and queries in place. The
// file names keep the "v2" of the version that introduced the flat
// layout; version 3 changed only the token section (id 9), which v2
// stored as string-pool references that every open re-hashed.
//
// Section payloads (inside the container of model_snapshot.h):
//
//   kOptions       fixed-width ModelOptions fields
//   kStringPool    u64 byte_count, then the concatenated bytes of every
//                  interned string (patterns, pattern-pair keys) in
//                  sorted-unique order
//   kSubsetIndex   u64 subset_count, u64 total_obs_floats,
//                  u64 total_tree_floats, then subset_count entries of
//                  { u64 feature_key, u64 obs_off, u64 count,
//                    u64 tree_off, u32 tree_levels, u32 reserved = 0 }
//                  in strictly ascending key order
//   kObservations  raw f32 array (present iff total_obs_floats > 0):
//                  per subset, pres[count] then posts[count], packed in
//                  index order — obs_off is the float offset of pres
//   kTreeLevels    raw f32 array (present iff total_tree_floats > 0):
//                  per subset, the flat merge-sort tree
//                  (tree_levels * count floats) at float offset tree_off
//   kTokenTable    u64 num_tables, u64 num_tokens (n), u64 capacity,
//                  u64 arena_bytes, then the FlatStringTable itself:
//                  slots[capacity] { u32 tag, u32 id } (id 0xFFFFFFFF
//                  and tag 0 mark an empty slot), u64 counts[n],
//                  u32 ends[n] (one past token id's last byte), and the
//                  case-folded token bytes[arena_bytes]. Ids are the
//                  tokens' sorted rank, and the slots are those of a
//                  table of FlatStringTable::CapacityFor(n) slots filled
//                  in id order, so the bytes are a function of the
//                  (token, count) set. Every array starts aligned for
//                  its element type in the section.
//   kPatternIndex2 u64 num_columns, u64 num_patterns, u64 num_pairs,
//                  then pattern and pair entries (each sorted) of
//                  { u32 pool_off, u32 pool_len, u64 count }
//
// Canonical packing is part of the format: section payloads are laid out
// contiguously in table order, each offset rounded up to a multiple of
// 64 with zero padding bytes between (so corruption in padding is
// detected even though padding is outside every CRC), and the file ends
// exactly at the last payload byte (so truncating even one byte fails
// the bounds check). obs_off / tree_off must equal the running sums and
// tree_levels must equal SubsetStats::TreeLevelsFor(count) — validating
// the exact packing is O(subset_count) and makes re-encoding a decoded
// snapshot bit-identical.
//
// Zero-copy rules: the mmap base is page-aligned and every section
// offset is 64-aligned, so casting a mapped observation section to
// `const float*`, or the token section's arrays to slots and u64s, is
// alignment-safe (UBSan-checked in CI). Zero-copy additionally requires
// a little-endian host (the wire format is little-endian); big-endian
// hosts transparently fall back to the owned byte-swapping decode.
//
// Opening validates the token table in O(n + capacity) (its CRC, the
// slot occupancy, the key ends, ascending lowercase keys, the counts:
// FlatStringTable::CheckSortedLower, TokenIndex::Borrow); full
// validation also re-hashes every token to its probe position.

#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "learn/model.h"
#include "model_format/snapshot_validation.h"
#include "util/mmap_file.h"
#include "util/result.h"

namespace unidetect {

struct DeltaManifest;

/// \brief Encodes a finalized model in the flat layout. A non-null
/// `manifest` additionally writes the kDeltaManifest section, marking
/// the output as a *delta* artifact chained to its base snapshot
/// (model_format/delta_snapshot.h).
std::string EncodeModelSnapshotV2(const Model& model,
                                  const DeltaManifest* manifest = nullptr);

/// \brief Zero-copy decode of a mapped snapshot: the returned model's
/// SubsetStats borrow their pres/posts/tree storage and its TokenIndex
/// its table and counts directly from the region, and the model holds
/// the region alive (Model::SetBacking) —
/// the last copy of the model unmaps the file. On big-endian hosts this
/// transparently degrades to the owned decode of the region's bytes.
Result<Model> ModelFromSnapshotRegion(std::shared_ptr<MmapRegion> region,
                                      SnapshotValidation validation);

}  // namespace unidetect
