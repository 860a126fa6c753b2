// Delta snapshot builder: trains a small model over only the *new*
// corpus shards and writes it as a delta UDSNAP artifact chained to an
// existing base (model_format/delta_snapshot.h, DESIGN.md §15).
//
// The delta carries the base's ModelOptions verbatim — the serving tier
// refuses to stack layers trained under different knobs — and a
// kDeltaManifest section naming the base and parent artifact ids plus
// its 1-based depth, so `DetectionService::ApplyDelta` can verify the
// chain by content hash before swapping the layer in.
//
// Documented approximation: the delta's observation feature keys are
// computed against the delta's own token index, not the union index of
// base + delta. The layered stack is therefore byte-identical to the
// Model::Merge fold of the same layers — the keystone invariant — but
// not to a single-shot retrain over the union corpus; run a fresh full
// build when re-keying matters.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model_format/delta_snapshot.h"
#include "util/result.h"

namespace unidetect {

/// \brief Inputs of one delta build.
struct DeltaBuildSpec {
  /// The chain's base snapshot (a UDSNAP artifact with no manifest).
  std::string base_path;
  /// The layer directly below the new delta: empty — the common case —
  /// means the delta sits directly on the base (depth 1); otherwise the
  /// previous delta artifact of the same chain.
  std::string parent_path;
  /// Directories of new `*.csv` shards (corpus/corpus_io.h semantics:
  /// lexicographic order, unparseable files skipped with a warning).
  std::vector<std::string> input_dirs;
  /// Output artifact path (written via temp file + rename).
  std::string out_path;
  /// Training threads; 0 = hardware concurrency. Output is identical at
  /// any value.
  size_t num_threads = 1;
  /// Trainer FD-pair cap (TrainerOptions::max_fd_pairs_per_table).
  size_t max_fd_pairs_per_table = 30;
};

/// \brief What BuildDeltaSnapshot produced.
struct DeltaBuildReport {
  DeltaManifest manifest;     ///< chain link written into the artifact
  uint64_t artifact_id = 0;   ///< content hash of the written delta
  size_t tables = 0;          ///< tables trained into the delta
  uint64_t encoded_bytes = 0; ///< size of the written artifact
};

/// \brief Trains over `spec.input_dirs` under the base's options and
/// writes the delta artifact. InvalidArgument when the base is itself a
/// delta, the parent belongs to a different chain, or the chain would
/// exceed kMaxDeltaDepth; Corruption/IOError bubble up from the
/// identity reads.
Result<DeltaBuildReport> BuildDeltaSnapshot(const DeltaBuildSpec& spec);

}  // namespace unidetect
