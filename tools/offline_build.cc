// offline_build: CLI front-end for the sharded, resumable offline build
// pipeline (src/offline/, DESIGN.md section 11).
//
//   $ offline_build plan <build_dir> --shards N <input_dir> [...]
//   $ offline_build build <build_dir> [--threads N] [--stop-after K]
//   $ offline_build resume <build_dir> [--threads N]
//   $ offline_build merge <build_dir> <model_out>
//   $ offline_build verify <build_dir> [--check-inputs]
//   $ offline_build delta <base.udsnap> <delta_out> [--parent <artifact>]
//                         [--threads N] <input_dir> [...]
//
// `build` and `resume` are the same operation — RunOfflineBuild always
// skips journal-verified shards — the two names exist so operator intent
// ("start this" vs "pick this back up") reads correctly in shell history.
// `--stop-after K` builds at most K shard-stages then exits 3, which is
// how the crash-resume tests and docs simulate preemption.
//
// `delta` trains over only the listed input dirs and writes a delta
// UDSNAP artifact chained to <base.udsnap> (src/offline/delta_build.h);
// `--parent` names the previous delta when extending a chain past depth
// 1. The output is what `DetectionService::ApplyDelta` consumes. Deltas
// plus compaction are how a built model grows; a planned build
// directory is never re-planned.
//
// Numeric flags take a plain decimal number (--shards at least 1); a
// sign, trailing bytes or overflow prints usage and exits 2.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "learn/trainer.h"
#include "offline/delta_build.h"
#include "offline/offline_build.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace unidetect;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  offline_build plan <build_dir> --shards N <input_dir> [...]\n"
      "  offline_build build <build_dir> [--threads N] [--stop-after K]\n"
      "  offline_build resume <build_dir> [--threads N]\n"
      "  offline_build merge <build_dir> <model_out>\n"
      "  offline_build verify <build_dir> [--check-inputs]\n"
      "  offline_build delta <base.udsnap> <delta_out> "
      "[--parent <artifact>] [--threads N] <input_dir> [...]\n"
      "N and K are decimal numbers; --shards N needs N >= 1.\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "offline_build: %s\n", status.ToString().c_str());
  return 1;
}

/// \brief Consumes `--flag <value>` at argv[*i] if present. A missing
/// value, or one that is not a decimal number >= `min_value`, prints
/// usage and exits 2.
bool ConsumeSizeFlag(const char* flag, char** argv, int argc, int* i,
                     size_t min_value, size_t* out) {
  if (std::strcmp(argv[*i], flag) != 0) return false;
  const std::optional<uint64_t> value =
      *i + 1 < argc ? ParseUnsigned(argv[*i + 1], min_value, SIZE_MAX)
                    : std::nullopt;
  if (!value) std::exit(Usage());
  *out = static_cast<size_t>(*value);
  *i += 2;
  return true;
}

int Plan(int argc, char** argv) {
  if (argc < 6) return Usage();
  const std::string build_dir = argv[2];
  size_t num_shards = 0;
  std::vector<std::string> input_dirs;
  for (int i = 3; i < argc;) {
    if (ConsumeSizeFlag("--shards", argv, argc, &i, 1, &num_shards)) continue;
    input_dirs.push_back(argv[i++]);
  }
  if (num_shards == 0 || input_dirs.empty()) return Usage();
  const Status status =
      PlanOfflineBuild(input_dirs, TrainerOptions{}, num_shards, build_dir);
  if (!status.ok()) return Fail(status);
  std::printf("Planned %s: %zu shard(s) over %zu input dir(s)\n",
              build_dir.c_str(), num_shards, input_dirs.size());
  return 0;
}

int Build(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string build_dir = argv[2];
  size_t stop_after = 0;
  OfflineBuildOptions options;
  for (int i = 3; i < argc;) {
    if (ConsumeSizeFlag("--threads", argv, argc, &i, 0,
                        &options.num_threads)) {
      continue;
    }
    if (ConsumeSizeFlag("--stop-after", argv, argc, &i, 0, &stop_after)) {
      continue;
    }
    return Usage();
  }
  if (options.num_threads == 0) options.num_threads = 1;
  size_t started = 0;
  if (stop_after > 0) {
    options.keep_going = [&started, stop_after](BuildStage, size_t) {
      return started++ < stop_after;
    };
  }
  const auto report = RunOfflineBuild(build_dir, options);
  if (!report.ok()) return Fail(report.status());
  std::printf("Built %zu, skipped %zu, rebuilt %zu shard-stage(s); %s\n",
              report->built, report->skipped, report->rebuilt,
              report->completed ? "build complete"
                                : "stopped early (resume to continue)");
  return report->completed ? 0 : 3;
}

int Merge(int argc, char** argv) {
  if (argc < 4) return Usage();
  const Status status = MergeOfflineBuildToFile(argv[2], argv[3]);
  if (!status.ok()) return Fail(status);
  std::printf("Merged %s -> %s\n", argv[2], argv[3]);
  return 0;
}

int Delta(int argc, char** argv) {
  if (argc < 5) return Usage();
  DeltaBuildSpec spec;
  spec.base_path = argv[2];
  spec.out_path = argv[3];
  for (int i = 4; i < argc;) {
    if (std::strcmp(argv[i], "--parent") == 0 && i + 1 < argc) {
      spec.parent_path = argv[i + 1];
      i += 2;
      continue;
    }
    if (ConsumeSizeFlag("--threads", argv, argc, &i, 0, &spec.num_threads)) {
      continue;
    }
    spec.input_dirs.push_back(argv[i++]);
  }
  if (spec.input_dirs.empty()) return Usage();
  if (spec.num_threads == 0) spec.num_threads = 1;
  const auto report = BuildDeltaSnapshot(spec);
  if (!report.ok()) return Fail(report.status());
  std::printf("Delta %s: %zu table(s), %llu bytes, depth %llu "
              "(base %016llx, parent %016llx, id %016llx)\n",
              spec.out_path.c_str(), report->tables,
              static_cast<unsigned long long>(report->encoded_bytes),
              static_cast<unsigned long long>(report->manifest.depth),
              static_cast<unsigned long long>(report->manifest.base_id),
              static_cast<unsigned long long>(report->manifest.parent_id),
              static_cast<unsigned long long>(report->artifact_id));
  return 0;
}

int Verify(int argc, char** argv) {
  if (argc < 3) return Usage();
  const bool check_inputs =
      argc > 3 && std::strcmp(argv[3], "--check-inputs") == 0;
  const auto report = VerifyOfflineBuild(argv[2], check_inputs);
  if (!report.ok()) return Fail(report.status());
  std::printf("%zu shard(s): %zu index partial(s), %zu observation "
              "partial(s) verified",
              report->shards, report->index_done, report->obs_done);
  if (check_inputs) std::printf("; %zu input file(s) re-hashed",
                                report->inputs_checked);
  std::printf("; %s\n", report->mergeable() ? "mergeable" : "incomplete");
  return report->mergeable() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "plan") == 0) return Plan(argc, argv);
  if (std::strcmp(cmd, "build") == 0 || std::strcmp(cmd, "resume") == 0) {
    return Build(argc, argv);
  }
  if (std::strcmp(cmd, "merge") == 0) return Merge(argc, argv);
  if (std::strcmp(cmd, "verify") == 0) return Verify(argc, argv);
  if (std::strcmp(cmd, "delta") == 0) return Delta(argc, argv);
  return Usage();
}
