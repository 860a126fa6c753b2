#include "offline/delta_build.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "corpus/corpus_io.h"
#include "learn/trainer.h"
#include "model_format/delta_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "util/binary_io.h"
#include "util/mmap_file.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

/// \brief Resolves the manifest the new delta must carry from the base's
/// identity and (optionally) the parent artifact on disk.
Result<DeltaManifest> ResolveChainLink(const DeltaBuildSpec& spec,
                                       const SnapshotIdentity& base) {
  if (base.manifest.has_value()) {
    return Status::InvalidArgument(
        StrCat("delta build: ", spec.base_path,
               " is itself a delta artifact; a chain's base must be a "
               "plain snapshot"));
  }
  DeltaManifest manifest;
  manifest.base_id = base.artifact_id;
  if (spec.parent_path.empty()) {
    manifest.parent_id = base.artifact_id;
    manifest.depth = 1;
    return manifest;
  }
  UNIDETECT_ASSIGN_OR_RETURN(const SnapshotIdentity parent,
                             ReadSnapshotIdentity(spec.parent_path));
  if (!parent.manifest.has_value()) {
    // Naming a base as the parent is fine — but only this chain's base.
    if (parent.artifact_id != base.artifact_id) {
      return Status::InvalidArgument(
          StrCat("delta build: parent ", spec.parent_path,
                 " is a base snapshot, but not the base at ",
                 spec.base_path));
    }
    manifest.parent_id = base.artifact_id;
    manifest.depth = 1;
    return manifest;
  }
  if (parent.manifest->base_id != base.artifact_id) {
    return Status::InvalidArgument(
        StrCat("delta build: parent ", spec.parent_path,
               " chains to base ", parent.manifest->base_id,
               ", not the base at ", spec.base_path, " (",
               base.artifact_id, ")"));
  }
  manifest.parent_id = parent.artifact_id;
  manifest.depth = parent.manifest->depth + 1;
  if (manifest.depth > kMaxDeltaDepth) {
    return Status::InvalidArgument(
        StrCat("delta build: chain depth ", manifest.depth,
               " exceeds the maximum of ", kMaxDeltaDepth,
               "; compact the chain first"));
  }
  return manifest;
}

}  // namespace

Result<DeltaBuildReport> BuildDeltaSnapshot(const DeltaBuildSpec& spec) {
  if (spec.input_dirs.empty()) {
    return Status::InvalidArgument("delta build: no input directories");
  }
  if (spec.out_path.empty()) {
    return Status::InvalidArgument("delta build: no output path");
  }
  DeltaBuildReport report;
  // The base is mapped once: the identity the manifest names and the
  // options the delta trains under come from the same bytes, so a
  // rename of the base between two reads cannot chain the delta to one
  // file while training it under another's options.
  UNIDETECT_ASSIGN_OR_RETURN(MmapRegion mapped,
                             MmapRegion::Map(spec.base_path));
  auto region = std::make_shared<MmapRegion>(std::move(mapped));
  UNIDETECT_ASSIGN_OR_RETURN(const SnapshotIdentity base,
                             SnapshotIdentityOf(region->bytes()));
  UNIDETECT_ASSIGN_OR_RETURN(report.manifest, ResolveChainLink(spec, base));

  // The base's learning options define what every layered count means,
  // so the delta trains under them verbatim (ApplyDelta byte-compares
  // the options payloads before stacking). Deferred validation skips the
  // bulk payloads' CRC — only the options are consulted.
  UNIDETECT_ASSIGN_OR_RETURN(
      const Model base_model,
      ModelFromSnapshotRegion(std::move(region),
                              SnapshotValidation::kDeferPayload));
  TrainerOptions trainer_options;
  trainer_options.model = base_model.options();
  trainer_options.num_threads = spec.num_threads;
  trainer_options.max_fd_pairs_per_table = spec.max_fd_pairs_per_table;

  Corpus corpus;
  for (const std::string& dir : spec.input_dirs) {
    UNIDETECT_ASSIGN_OR_RETURN(Corpus part,
                               LoadCorpusFromDirectory(dir, spec.num_threads));
    for (Table& table : part.tables) {
      corpus.tables.push_back(std::move(table));
    }
  }
  report.tables = corpus.tables.size();

  const Model model = Trainer(trainer_options).Train(corpus);
  const std::string encoded = EncodeModelSnapshotV2(model, &report.manifest);
  UNIDETECT_ASSIGN_OR_RETURN(report.artifact_id, SnapshotArtifactId(encoded));
  report.encoded_bytes = encoded.size();

  // Write-then-rename: a crash mid-write never leaves a torn artifact
  // where ApplyDelta might find it.
  const std::string tmp_path = spec.out_path + ".tmp";
  UNIDETECT_RETURN_NOT_OK(WriteStringToFile(tmp_path, encoded));
  if (std::rename(tmp_path.c_str(), spec.out_path.c_str()) != 0) {
    return Status::IOError(
        StrCat("delta build: rename to ", spec.out_path, " failed"));
  }
  return report;
}

}  // namespace unidetect
