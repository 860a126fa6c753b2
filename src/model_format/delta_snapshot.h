// Delta UDSNAP artifacts: small v2 model snapshots chained to a base
// snapshot by content hash (DESIGN.md §15).
//
// A delta is an ordinary v2 model trained over only the *new* corpus
// shards, plus one extra section (kDeltaManifest, id 13) naming the
// chain it extends:
//
//   kDeltaManifest  u32 manifest_version = 1
//                   u32 reserved = 0
//                   u64 base_id     artifact id of the chain's base
//                   u64 parent_id   artifact id of the layer directly
//                                   below this delta (== base_id for the
//                                   first delta, depth 1)
//                   u64 depth       1-based position above the base
//
// The artifact id is FNV-1a-64 over the container's header and section
// table bytes. The table embeds every section's CRC-32, so the id
// commits to the full content of the file while costing O(#sections) to
// compute — cheap enough to verify on every ApplyDelta. The trust model
// is integrity, not authenticity: the chain detects mixed-up, reordered,
// or stale artifacts (apply-time errors, never silent corruption), and
// the per-section CRCs below it detect bit rot; neither defends against
// an attacker who can rewrite both a delta and its manifest.
//
// Because id 13 is additive and sits above every other section id, old
// readers CRC-check and skip it: a delta decodes as a plain model
// everywhere a model is accepted. Only the serving tier interprets the
// chain (DetectionService::ApplyDelta refuses full Reload of a delta and
// vice versa).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/result.h"

namespace unidetect {

/// \brief Chain link carried by a delta artifact (section 13 payload).
struct DeltaManifest {
  uint64_t base_id = 0;    ///< artifact id of the chain's base snapshot
  uint64_t parent_id = 0;  ///< artifact id of the layer directly below
  uint64_t depth = 0;      ///< 1-based layer position above the base
};

/// \brief Decode bound on DeltaManifest::depth. A hostile layer count in
/// a crafted manifest is rejected as Corruption before any caller sizes
/// anything by it.
inline constexpr uint64_t kMaxDeltaDepth = 4096;

/// \brief The 32-byte wire payload of the kDeltaManifest section.
std::string EncodeDeltaManifestPayload(const DeltaManifest& manifest);

/// \brief Strict payload decode: exact length, known version, zero
/// reserved field, 1 <= depth <= kMaxDeltaDepth, and parent == base at
/// depth 1. Anything else is Corruption (newer manifest versions are
/// NotImplemented, mirroring the container policy).
Result<DeltaManifest> DecodeDeltaManifestPayload(std::string_view payload);

/// \brief Content-committing artifact id of any UDSNAP container:
/// FNV-1a-64 over the header and section table bytes (which embed every
/// payload's CRC-32). Corruption when `bytes` is not a UDSNAP container
/// or the table is truncated.
Result<uint64_t> SnapshotArtifactId(std::string_view bytes);

/// \brief Locates and decodes the kDeltaManifest section of a UDSNAP
/// container, CRC-checking it regardless of validation mode (it is 32
/// bytes). nullopt when the container carries no manifest — i.e. the
/// artifact is a base, not a delta.
Result<std::optional<DeltaManifest>> FindDeltaManifest(std::string_view bytes);

/// \brief What the serving tier needs to know about an artifact before
/// deciding how to load it.
struct SnapshotIdentity {
  uint64_t artifact_id = 0;
  /// Present iff the artifact is a delta.
  std::optional<DeltaManifest> manifest;
};

/// \brief The identity of the container `bytes`: SnapshotArtifactId and
/// FindDeltaManifest over the same bytes, with their errors.
Result<SnapshotIdentity> SnapshotIdentityOf(std::string_view bytes);

/// \brief Maps `path` and resolves its identity (SnapshotIdentityOf).
/// IOError when the path cannot be mapped (missing, unreadable, not a
/// regular file); Corruption when it is not a UDSNAP container. Only the
/// header, section table and 32-byte manifest payload are touched —
/// never the bulk sections — so the cost is O(#sections) regardless of
/// snapshot size. A caller that also decodes the model should map once
/// and pass the same bytes to both, as DetectionService does.
Result<SnapshotIdentity> ReadSnapshotIdentity(const std::string& path);

}  // namespace unidetect
