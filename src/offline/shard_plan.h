// Shard planning for the offline build pipeline (DESIGN.md section 11).
//
// A plan deterministically partitions the CSV files of the input
// directories into contiguous shards, pinning every input file with its
// byte count and CRC-32 so a resumed (or re-run) build can prove it is
// crunching the same bytes it planned over. The plan also carries the
// TrainerOptions the build was planned with: every stage of a resumable
// build must use identical options or the merged output would silently
// diverge from a single-shot Trainer::Train.
//
// The manifest is a line-oriented text file ("UDPLAN v1"); fields that
// may contain spaces (paths) always come last on their line.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "learn/trainer.h"
#include "util/result.h"

namespace unidetect {

/// \brief Magic first line of the manifest format.
inline constexpr std::string_view kManifestMagic = "UDPLAN v1";

/// \brief One planned input file, pinned by size and checksum.
struct ShardFile {
  std::string path;
  uint64_t bytes = 0;
  uint32_t crc32 = 0;
};

/// \brief One shard: a contiguous slice of the planned file list.
struct Shard {
  std::vector<ShardFile> files;
};

/// \brief A complete offline build plan.
struct ShardPlan {
  std::vector<std::string> input_dirs;
  /// Options the build is planned with. `num_threads` is a runtime
  /// concern and is not persisted in the manifest.
  TrainerOptions trainer;
  std::vector<Shard> shards;

  size_t num_files() const;
};

/// \brief Plans `num_shards` contiguous shards over the sorted CSV files
/// of `input_dirs` (directories visited in the given order, files within
/// each in lexicographic order — the same order LoadCorpusFromDirectory
/// uses). Reads every file once to record its CRC-32. `num_shards` is
/// clamped to [1, number of files].
Result<ShardPlan> PlanShards(const std::vector<std::string>& input_dirs,
                             const TrainerOptions& trainer,
                             size_t num_shards);

/// \brief Manifest codec. Serialize -> Parse round-trips exactly
/// (doubles are printed at max_digits10).
std::string SerializeShardPlan(const ShardPlan& plan);
Result<ShardPlan> ParseShardPlan(std::string_view text);

Status SaveShardPlan(const ShardPlan& plan, const std::string& path);
Result<ShardPlan> LoadShardPlan(const std::string& path);

}  // namespace unidetect
