#include "model_format/model_snapshot.h"

#include <memory>

#include "model_format/codec_internal.h"
#include "model_format/snapshot_v2.h"
#include "util/binary_io.h"
#include "util/checked.h"
#include "util/mmap_file.h"
#include "util/string_util.h"

namespace unidetect {

namespace snapshot_internal {

std::string EncodeOptionsPayload(const ModelOptions& options) {
  std::string out;
  AppendU8(&out, options.featurize.enabled ? 1 : 0);
  AppendU32(&out, static_cast<uint32_t>(options.smoothing));
  AppendU32(&out, static_cast<uint32_t>(options.denominator));
  AppendU64(&out, options.epsilon.min_rows);
  AppendF64(&out, options.epsilon.fraction);
  AppendF64(&out, options.pseudocount);
  AppendU64(&out, options.min_support);
  AppendF64(&out, options.point_grid);
  AppendU64(&out, options.min_column_rows);
  AppendU64(&out, options.mpd.distance_cap);
  AppendU64(&out, options.mpd.max_values);
  return out;
}

Result<ModelOptions> DecodeOptionsPayload(std::string_view payload) {
  BinaryReader reader(payload);
  ModelOptions options;
  uint8_t featurize = 0;
  uint32_t smoothing = 0;
  uint32_t denominator = 0;
  uint64_t eps_min_rows = 0;
  uint64_t min_support = 0;
  uint64_t min_column_rows = 0;
  uint64_t distance_cap = 0;
  uint64_t max_values = 0;
  if (!reader.ReadU8(&featurize) || !reader.ReadU32(&smoothing) ||
      !reader.ReadU32(&denominator) || !reader.ReadU64(&eps_min_rows) ||
      !reader.ReadF64(&options.epsilon.fraction) ||
      !reader.ReadF64(&options.pseudocount) || !reader.ReadU64(&min_support) ||
      !reader.ReadF64(&options.point_grid) ||
      !reader.ReadU64(&min_column_rows) || !reader.ReadU64(&distance_cap) ||
      !reader.ReadU64(&max_values)) {
    return Status::Corruption("Model snapshot: options section truncated");
  }
  if (!reader.empty()) {
    return Status::Corruption(
        "Model snapshot: options section has trailing bytes");
  }
  if (smoothing > 1 || denominator > 1) {
    return Status::Corruption(
        "Model snapshot: options section enum out of range");
  }
  options.featurize.enabled = featurize != 0;
  options.smoothing = static_cast<SmoothingMode>(smoothing);
  options.denominator = static_cast<DenominatorMode>(denominator);
  // The u64 wire fields narrow to size_t checked: on 32-bit hosts a
  // crafted value must not silently truncate into a different config.
  UNIDETECT_ASSIGN_OR_RETURN(
      options.epsilon.min_rows,
      CheckedCast<size_t>(eps_min_rows, "options epsilon min_rows"));
  options.min_support = min_support;
  UNIDETECT_ASSIGN_OR_RETURN(
      options.min_column_rows,
      CheckedCast<size_t>(min_column_rows, "options min_column_rows"));
  UNIDETECT_ASSIGN_OR_RETURN(
      options.mpd.distance_cap,
      CheckedCast<size_t>(distance_cap, "options mpd distance_cap"));
  UNIDETECT_ASSIGN_OR_RETURN(
      options.mpd.max_values,
      CheckedCast<size_t>(max_values, "options mpd max_values"));
  return options;
}

std::string SectionName(uint32_t id) {
  switch (static_cast<SnapshotSection>(id)) {
    case SnapshotSection::kOptions:
      return "options";
    case SnapshotSection::kStringPool:
      return "string pool";
    case SnapshotSection::kSubsetIndex:
      return "subset index";
    case SnapshotSection::kObservations:
      return "observations";
    case SnapshotSection::kTreeLevels:
      return "tree levels";
    case SnapshotSection::kTokenTable:
      return "token table";
    case SnapshotSection::kPatternIndex2:
      return "pattern index";
    case SnapshotSection::kDeltaManifest:
      return "delta manifest";
  }
  return StrCat("unknown(", id, ")");
}

}  // namespace snapshot_internal

bool LooksLikeModelSnapshot(std::string_view bytes) {
  return StartsWith(bytes, kSnapshotMagic);
}

std::string EncodeModelSnapshot(const Model& model) {
  return EncodeModelSnapshotV2(model);
}

Result<Model> LoadModelFromFile(const std::string& path,
                                SnapshotValidation validation) {
  auto region_or = MmapRegion::Map(path);
  if (!region_or.ok()) return region_or.status();
  MmapRegion region = std::move(region_or).ValueOrDie();
  const std::string_view bytes = region.bytes();
  if (!LooksLikeModelSnapshot(bytes)) {
    return Status::Corruption("Model: " + path +
                              " is not a UDSNAP snapshot (bad magic)");
  }
  return ModelFromSnapshotRegion(
      std::make_shared<MmapRegion>(std::move(region)), validation);
}

}  // namespace unidetect
