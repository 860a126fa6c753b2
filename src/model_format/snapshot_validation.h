// How much of a model snapshot the decoder verifies before handing the
// model to queries. Split out so serving code can name the mode without
// pulling in the full codec headers.

#pragma once

namespace unidetect {

/// \brief Snapshot decode verification level.
enum class SnapshotValidation {
  /// Verify everything: every section CRC plus the per-subset sorted-
  /// order invariant. The default for Model::Load, tools, and tests —
  /// any flipped bit anywhere in the file surfaces as Corruption.
  kFull = 0,
  /// Verify structure only: header, section table, alignment, canonical
  /// packing, and the CRCs of the metadata sections (options, pool,
  /// subset index, token index, pattern index) — but not the bulk
  /// observation / tree payloads, which are never copied on the v2
  /// zero-copy path anyway. Decode cost is O(#subsets + #tokens) plus
  /// the metadata CRCs, independent of observation count; this is what
  /// DetectionService uses for every artifact it publishes.
  kDeferPayload = 1,
};

}  // namespace unidetect
