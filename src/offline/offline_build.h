// Offline build orchestrator (DESIGN.md section 11): the sharded,
// resumable replacement for "load everything, Trainer::Train" — the
// paper's crunch-T-once MapReduce job recast as a plan of per-shard
// builds whose partial snapshots merge deterministically.
//
// Build directory layout:
//
//   manifest.txt        shard plan (shard_plan.h): inputs, options,
//                       per-shard file lists with CRC-32s
//   journal.txt         append-only completion log (build_journal.h)
//   index-<i>.udsnap    stage-1 partial (token + pattern indexes)
//   obs-<i>.udsnap      stage-2 partial (metric observations)
//
// Determinism contract: for a fixed manifest, the merged snapshot is a
// pure function of the input bytes — byte-identical across shard
// counts, thread counts, merge orders, and crash/resume cycles, and
// byte-identical to single-shot Trainer::Train over the same tables
// (Model::Merge is the shared fold; SubsetStats finalizes in canonical
// (pre, post) order).
//
// Resumability: every completed (stage, shard) is journaled with the
// CRC of its snapshot. A restarted build re-hashes each journaled
// snapshot, skips the ones that verify, and rebuilds missing, torn, or
// corrupted ones. A built model grows by delta snapshots plus
// compaction (offline/delta_build.h, offline/compactor.h), not by
// re-planning a build directory.

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "learn/model.h"
#include "learn/trainer.h"
#include "offline/build_journal.h"
#include "offline/shard_plan.h"
#include "util/result.h"

namespace unidetect {

/// \brief Well-known paths inside a build directory.
std::string OfflineManifestPath(const std::string& build_dir);
std::string OfflineJournalPath(const std::string& build_dir);
std::string OfflinePartialPath(const std::string& build_dir,
                               BuildStage stage, size_t shard);

/// \brief Runtime knobs for RunOfflineBuild (everything that defines the
/// *output* lives in the manifest instead).
struct OfflineBuildOptions {
  /// Shards built concurrently; 0 = hardware concurrency. The merged
  /// snapshot is identical at any value.
  size_t num_threads = 1;
  /// Consulted before each shard build; returning false stops the run
  /// (no further shards start; completed shards stay journaled). Lets
  /// tests and operators simulate preemption or budget exhaustion —
  /// `offline_build build --stop-after K` routes through this.
  std::function<bool(BuildStage, size_t shard)> keep_going;
};

/// \brief What one RunOfflineBuild invocation did.
struct OfflineBuildReport {
  size_t built = 0;    ///< shard-stages built (or rebuilt) this run
  size_t skipped = 0;  ///< shard-stages verified from the journal and reused
  size_t rebuilt = 0;  ///< journaled shard-stages whose snapshot failed
                       ///< verification and was rebuilt (subset of built)
  bool completed = false;  ///< false when keep_going stopped the run early
};

/// \brief Result of VerifyOfflineBuild.
struct OfflineVerifyReport {
  size_t shards = 0;          ///< shards in the plan
  size_t index_done = 0;      ///< stage-1 partials that verify and decode
  size_t obs_done = 0;        ///< stage-2 partials that verify and decode
  size_t inputs_checked = 0;  ///< input files re-hashed (check_inputs)
  bool mergeable() const { return index_done == shards && obs_done == shards; }
};

/// \brief Plans a new build: partitions `input_dirs` into `num_shards`
/// shards and writes `<build_dir>/manifest.txt`. Refuses to overwrite an
/// existing manifest (re-planning would silently invalidate journaled
/// partials): plan into a fresh directory, or grow the merged model with
/// a delta (BuildDeltaSnapshot).
Status PlanOfflineBuild(const std::vector<std::string>& input_dirs,
                        const TrainerOptions& trainer, size_t num_shards,
                        const std::string& build_dir);

/// \brief Builds (or resumes) every incomplete shard-stage of the plan:
/// stage 1 across all shards, then — once every index partial exists —
/// stage 2 against the merged index. Journal-verified shards are
/// skipped; corrupt or missing partials are rebuilt.
Result<OfflineBuildReport> RunOfflineBuild(
    const std::string& build_dir, const OfflineBuildOptions& options = {});

/// \brief Folds every shard's partials into the final model. Fails with
/// InvalidArgument when any shard-stage is missing or unverified (run
/// RunOfflineBuild first).
Result<Model> MergeOfflineBuild(const std::string& build_dir);

/// \brief MergeOfflineBuild + Model::Save to `out_path` (the snapshot
/// DetectionService::Create/Reload consumes).
Status MergeOfflineBuildToFile(const std::string& build_dir,
                               const std::string& out_path);

/// \brief Audits a build directory: parses the manifest and journal,
/// re-hashes and decodes every journaled partial snapshot, and (with
/// `check_inputs`) re-hashes every planned input file. Returns the
/// first Corruption found, or the completion census.
Result<OfflineVerifyReport> VerifyOfflineBuild(const std::string& build_dir,
                                               bool check_inputs = false);

}  // namespace unidetect
