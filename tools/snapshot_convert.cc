// snapshot_convert: audits UDSNAP model artifacts; writes nothing.
//
//   $ snapshot_convert <model> --check
//   $ snapshot_convert <compacted> --check --chain <base> [<delta>...]
//
// `--check` decodes <model> with full validation (every section CRC,
// every sortedness and packing rule) and verifies that re-encoding the
// decoded model reproduces the file byte for byte — the canonical-
// packing guarantee DESIGN.md section 12 promises. A delta artifact is
// re-encoded with its own manifest.
//
// `--chain` names a base snapshot and its delta artifacts in chain
// order. Each delta's manifest is verified against the artifacts
// actually on disk (base id, parent id, ascending depth), the layers
// are folded with Model::Merge, and the fold's canonical encoding is
// byte-compared against <compacted>. Exit 0 means the compaction
// faithfully folded exactly those layers.

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "learn/model.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/mmap_file.h"

using namespace unidetect;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: snapshot_convert <model> --check\n"
               "       snapshot_convert <compacted> --check --chain "
               "<base> [<delta>...]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "snapshot_convert: %s\n", status.ToString().c_str());
  return 1;
}

/// \brief Verifies that `path` decodes with full validation and that
/// encode(decode(file)) is the file, byte for byte.
int CheckArtifact(const std::string& path) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return Fail(bytes.status());
  auto model = DecodeModelSnapshot(*bytes, SnapshotValidation::kFull);
  if (!model.ok()) return Fail(model.status());
  auto manifest = FindDeltaManifest(*bytes);
  if (!manifest.ok()) return Fail(manifest.status());
  const DeltaManifest* chain_link =
      manifest->has_value() ? &**manifest : nullptr;
  if (EncodeModelSnapshotV2(*model, chain_link) != *bytes) {
    return Fail(
        Status::Corruption(path + " does not re-encode bit-identically"));
  }
  std::printf("%s (%zu bytes, UDSNAP v%u%s) [checked]\n", path.c_str(),
              bytes->size(), kSnapshotVersion,
              chain_link != nullptr ? " delta" : "");
  return 0;
}

/// \brief Chain audit: verifies that `compacted_path` is exactly the
/// Model::Merge fold of `layers` (base first, deltas in chain order).
int AuditChain(const std::string& compacted_path,
               const std::vector<std::string>& layers) {
  // Each layer is mapped once: the manifest checks and the fold read
  // the same bytes. The manifests must chain the on-disk artifacts by
  // content hash — the same checks ApplyDelta runs before stacking a
  // layer — and every layer decodes with full validation.
  std::optional<Model> merged;
  uint64_t base_id = 0;
  uint64_t parent_id = 0;
  for (size_t i = 0; i < layers.size(); ++i) {
    auto mapped = MmapRegion::Map(layers[i]);
    if (!mapped.ok()) return Fail(mapped.status());
    auto region =
        std::make_shared<MmapRegion>(std::move(mapped).ValueOrDie());
    auto identity = SnapshotIdentityOf(region->bytes());
    if (!identity.ok()) return Fail(identity.status());
    if (i == 0) {
      if (identity->manifest.has_value()) {
        return Fail(Status::InvalidArgument(
            "chain audit: first layer " + layers[0] +
            " is a delta artifact; the chain must start at its base"));
      }
      base_id = identity->artifact_id;
    } else {
      if (!identity->manifest.has_value()) {
        return Fail(Status::InvalidArgument(
            "chain audit: " + layers[i] + " carries no delta manifest"));
      }
      const DeltaManifest& manifest = *identity->manifest;
      if (manifest.base_id != base_id || manifest.parent_id != parent_id ||
          manifest.depth != i) {
        return Fail(Status::InvalidArgument(
            "chain audit: " + layers[i] +
            " does not chain onto the preceding layers (wrong base, "
            "parent, or depth)"));
      }
    }
    parent_id = identity->artifact_id;
    auto layer =
        ModelFromSnapshotRegion(std::move(region), SnapshotValidation::kFull);
    if (!layer.ok()) return Fail(layer.status());
    if (!merged.has_value()) merged.emplace(layer->options());
    merged->Merge(*layer);
  }

  // Byte-compare the fold's canonical encoding against the compacted
  // artifact.
  merged->Finalize();
  const std::string encoded = EncodeModelSnapshotV2(*merged);
  auto compacted = ReadFileToString(compacted_path);
  if (!compacted.ok()) return Fail(compacted.status());
  if (encoded != *compacted) {
    return Fail(Status::Corruption(
        "chain audit: " + compacted_path +
        " is not bit-identical to the Model::Merge fold of the " +
        std::to_string(layers.size()) + " layer(s)"));
  }
  std::printf("%s == fold of %zu layer(s) (%zu bytes) [chain verified]\n",
              compacted_path.c_str(), layers.size(), encoded.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 3) return Usage();
  const std::string path = argv[1];
  int i = 2;
  if (std::strcmp(argv[i], "--check") == 0) ++i;
  if (i == argc) return CheckArtifact(path);
  if (std::strcmp(argv[i], "--chain") != 0 || i + 1 == argc) return Usage();
  // Everything after --chain is a layer path, base first.
  return AuditChain(path, std::vector<std::string>(argv + i + 1, argv + argc));
}
