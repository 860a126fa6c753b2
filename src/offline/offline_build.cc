#include "offline/offline_build.h"

#include <cstdint>
#include <filesystem>
#include <utility>

#include "model_format/model_snapshot.h"
#include "offline/shard_builder.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace unidetect {
namespace {

/// \brief Reads and decodes one journaled partial snapshot.
Result<Model> LoadPartial(const std::string& path) {
  UNIDETECT_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return DecodeModelSnapshot(bytes);
}

/// \brief True when (stage, shard) is journaled and its snapshot file
/// re-hashes to the journaled CRC. `crc_out` may be null.
bool PartialVerifies(const BuildJournal& journal, const std::string& build_dir,
                     BuildStage stage, size_t shard) {
  uint32_t want = 0;
  if (!journal.Lookup(stage, shard, &want)) return false;
  auto bytes = ReadFileToString(OfflinePartialPath(build_dir, stage, shard));
  return bytes.ok() && Crc32(*bytes) == want;
}

/// \brief Shared state of one stage's worker crew. Workers pull the next
/// pending shard under `mu` (work-stealing keeps threads busy on skewed
/// shards); nothing about the *output* depends on which worker builds
/// which shard, so any thread count yields identical partials.
struct StageState {
  Mutex mu;
  size_t cursor GUARDED_BY(mu) = 0;  ///< next unclaimed entry of `pending`
  bool stopped GUARDED_BY(mu) = false;  ///< keep_going asked us to stop
  size_t built GUARDED_BY(mu) = 0;
  Status error GUARDED_BY(mu);
};

/// \brief Builds every pending shard of one stage. `merged_index` is null
/// for stage 1 and the full merged token index for stage 2. Sets
/// `*stopped_out` (without error) when options.keep_going stopped the run.
Status RunStage(BuildStage stage, const ShardPlan& plan,
                const std::string& build_dir, const TokenIndex* merged_index,
                const OfflineBuildOptions& options, BuildJournal* journal,
                OfflineBuildReport* report, bool* stopped_out) {
  // Resume scan: trust a journal entry only after re-hashing its snapshot,
  // so a crash mid-write (torn file, torn journal line) degrades to a
  // rebuild instead of a corrupt merge.
  std::vector<size_t> pending;
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    uint32_t crc = 0;
    if (journal->Lookup(stage, i, &crc)) {
      if (PartialVerifies(*journal, build_dir, stage, i)) {
        ++report->skipped;
        continue;
      }
      UNIDETECT_LOG(Warning)
          << "offline build: journaled " << BuildStageName(stage) << " shard "
          << i << " failed verification; rebuilding";
      ++report->rebuilt;
    }
    pending.push_back(i);
  }
  if (pending.empty()) return Status::OK();

  StageState state;
  ForkJoin(options.num_threads, pending.size(), [&](size_t) {
    for (;;) {
      size_t shard_index = 0;
      {
        MutexLock lock(&state.mu);
        if (state.stopped || !state.error.ok() ||
            state.cursor == pending.size()) {
          return;
        }
        shard_index = pending[state.cursor];
        // Consulted under the mutex so "stop after K shards" is exact:
        // once one worker sees false, no other worker claims a shard.
        if (options.keep_going && !options.keep_going(stage, shard_index)) {
          state.stopped = true;
          return;
        }
        ++state.cursor;
      }
      Result<Model> partial =
          stage == BuildStage::kIndex
              ? BuildIndexPartial(plan.shards[shard_index], plan.trainer.model)
              : BuildObservationPartial(plan.shards[shard_index],
                                        *merged_index, plan.trainer);
      Status status = partial.status();
      uint32_t crc = 0;
      if (status.ok()) {
        partial.ValueOrDie().Finalize();
        const std::string bytes = EncodeModelSnapshot(partial.ValueOrDie());
        crc = Crc32(bytes);
        status = WriteStringToFile(
            OfflinePartialPath(build_dir, stage, shard_index), bytes);
      }
      MutexLock lock(&state.mu);
      // The journal is not internally synchronized; Record under the
      // stage mutex serializes appends across workers.
      if (status.ok()) status = journal->Record(stage, shard_index, crc);
      if (!status.ok()) {
        if (state.error.ok()) state.error = status;
        return;
      }
      ++state.built;
    }
  });

  MutexLock lock(&state.mu);
  report->built += state.built;
  if (!state.error.ok()) return state.error;
  if (state.stopped) *stopped_out = true;
  return Status::OK();
}

/// \brief Decodes every stage-1 partial and folds it into one model whose
/// token index covers the whole corpus (the stage-2 featurization input).
Result<Model> MergeIndexPartials(const ShardPlan& plan,
                                 const std::string& build_dir) {
  Model merged(plan.trainer.model);
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    UNIDETECT_ASSIGN_OR_RETURN(
        const Model partial,
        LoadPartial(OfflinePartialPath(build_dir, BuildStage::kIndex, i)));
    merged.Merge(partial);
  }
  return merged;
}

}  // namespace

std::string OfflineManifestPath(const std::string& build_dir) {
  return StrCat(build_dir, "/manifest.txt");
}

std::string OfflineJournalPath(const std::string& build_dir) {
  return StrCat(build_dir, "/journal.txt");
}

std::string OfflinePartialPath(const std::string& build_dir, BuildStage stage,
                               size_t shard) {
  // Zero-padded to five digits so shell globs and directory listings sort
  // in shard order; a longer index is kept whole.
  std::string index = StrCat(shard);
  if (index.size() < 5) index.insert(0, 5 - index.size(), '0');
  return StrCat(build_dir, "/", BuildStageName(stage), "-", index, ".udsnap");
}

Status PlanOfflineBuild(const std::vector<std::string>& input_dirs,
                        const TrainerOptions& trainer, size_t num_shards,
                        const std::string& build_dir) {
  std::error_code ec;
  std::filesystem::create_directories(build_dir, ec);
  if (ec) {
    return Status::IOError(
        StrCat("PlanOfflineBuild: cannot create ", build_dir, ": ",
               ec.message()));
  }
  const std::string manifest = OfflineManifestPath(build_dir);
  if (std::filesystem::exists(manifest)) {
    return Status::AlreadyExists(
        StrCat("PlanOfflineBuild: ", manifest,
               " exists; re-planning would orphan journaled partials. Pick "
               "a fresh build directory, or grow the merged model with "
               "offline_build delta."));
  }
  UNIDETECT_ASSIGN_OR_RETURN(const ShardPlan plan,
                             PlanShards(input_dirs, trainer, num_shards));
  return SaveShardPlan(plan, manifest);
}

Result<OfflineBuildReport> RunOfflineBuild(const std::string& build_dir,
                                           const OfflineBuildOptions& options) {
  UNIDETECT_ASSIGN_OR_RETURN(const ShardPlan plan,
                             LoadShardPlan(OfflineManifestPath(build_dir)));
  UNIDETECT_ASSIGN_OR_RETURN(BuildJournal journal,
                             BuildJournal::Open(OfflineJournalPath(build_dir)));
  OfflineBuildReport report;
  bool stopped = false;
  UNIDETECT_RETURN_NOT_OK(RunStage(BuildStage::kIndex, plan, build_dir,
                                   /*merged_index=*/nullptr, options, &journal,
                                   &report, &stopped));
  if (stopped) return report;  // completed stays false

  // Stage barrier: observation featurization needs the prevalence of
  // every token in the corpus, so no stage-2 shard may start until every
  // stage-1 partial exists.
  UNIDETECT_ASSIGN_OR_RETURN(const Model index_model,
                             MergeIndexPartials(plan, build_dir));
  UNIDETECT_RETURN_NOT_OK(RunStage(BuildStage::kObservations, plan, build_dir,
                                   &index_model.token_index(), options,
                                   &journal, &report, &stopped));
  report.completed = !stopped;
  return report;
}

Result<Model> MergeOfflineBuild(const std::string& build_dir) {
  UNIDETECT_ASSIGN_OR_RETURN(const ShardPlan plan,
                             LoadShardPlan(OfflineManifestPath(build_dir)));
  UNIDETECT_ASSIGN_OR_RETURN(const BuildJournal journal,
                             BuildJournal::Open(OfflineJournalPath(build_dir)));
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    for (BuildStage stage : {BuildStage::kIndex, BuildStage::kObservations}) {
      if (!PartialVerifies(journal, build_dir, stage, i)) {
        return Status::InvalidArgument(
            StrCat("MergeOfflineBuild: shard ", i, " has no verified ",
                   BuildStageName(stage),
                   " partial; run `offline_build resume ", build_dir,
                   "` first"));
      }
    }
  }
  Model merged(plan.trainer.model);
  for (BuildStage stage : {BuildStage::kIndex, BuildStage::kObservations}) {
    for (size_t i = 0; i < plan.shards.size(); ++i) {
      UNIDETECT_ASSIGN_OR_RETURN(
          const Model partial,
          LoadPartial(OfflinePartialPath(build_dir, stage, i)));
      merged.Merge(partial);
    }
  }
  merged.Finalize();
  return merged;
}

Status MergeOfflineBuildToFile(const std::string& build_dir,
                               const std::string& out_path) {
  UNIDETECT_ASSIGN_OR_RETURN(const Model merged, MergeOfflineBuild(build_dir));
  return merged.Save(out_path);
}

Result<OfflineVerifyReport> VerifyOfflineBuild(const std::string& build_dir,
                                               bool check_inputs) {
  UNIDETECT_ASSIGN_OR_RETURN(const ShardPlan plan,
                             LoadShardPlan(OfflineManifestPath(build_dir)));
  UNIDETECT_ASSIGN_OR_RETURN(const BuildJournal journal,
                             BuildJournal::Open(OfflineJournalPath(build_dir)));
  OfflineVerifyReport report;
  report.shards = plan.shards.size();
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    for (BuildStage stage : {BuildStage::kIndex, BuildStage::kObservations}) {
      uint32_t want = 0;
      if (!journal.Lookup(stage, i, &want)) continue;
      const std::string path = OfflinePartialPath(build_dir, stage, i);
      UNIDETECT_ASSIGN_OR_RETURN(const std::string bytes,
                                 ReadFileToString(path));
      if (Crc32(bytes) != want) {
        return Status::Corruption(
            StrCat("VerifyOfflineBuild: ", path,
                   " does not match its journaled checksum"));
      }
      UNIDETECT_RETURN_NOT_OK(DecodeModelSnapshot(bytes).status());
      ++(stage == BuildStage::kIndex ? report.index_done : report.obs_done);
    }
  }
  if (check_inputs) {
    for (const Shard& shard : plan.shards) {
      for (const ShardFile& file : shard.files) {
        UNIDETECT_ASSIGN_OR_RETURN(const std::string bytes,
                                   ReadFileToString(file.path));
        if (bytes.size() != file.bytes || Crc32(bytes) != file.crc32) {
          return Status::Corruption(
              StrCat("VerifyOfflineBuild: input ", file.path,
                     " changed since it was planned"));
        }
        ++report.inputs_checked;
      }
    }
  }
  return report;
}

}  // namespace unidetect
