// snapshot_convert: audits UDSNAP v2 model artifacts; writes nothing.
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
// are folded with Model::Merge, and the fold's canonical v2 encoding is
// byte-compared against <compacted>. Exit 0 means the compaction
// faithfully folded exactly those layers.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "learn/model.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "util/binary_io.h"
#include "util/logging.h"

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
  std::printf("%s (%zu bytes, UDSNAP v2%s) [checked]\n", path.c_str(),
              bytes->size(), chain_link != nullptr ? " delta" : "");
  return 0;
}

/// \brief Chain audit: verifies that `compacted_path` is exactly the
/// Model::Merge fold of `layers` (base first, deltas in chain order).
int AuditChain(const std::string& compacted_path,
               const std::vector<std::string>& layers) {
  // The manifests must chain the on-disk artifacts by content hash —
  // the same checks ApplyDelta runs before stacking a layer.
  auto base_identity = ReadSnapshotIdentity(layers[0]);
  if (!base_identity.ok()) return Fail(base_identity.status());
  if (base_identity->manifest.has_value()) {
    return Fail(Status::InvalidArgument(
        "chain audit: first layer " + layers[0] +
        " is a delta artifact; the chain must start at its base"));
  }
  uint64_t parent_id = base_identity->artifact_id;
  for (size_t i = 1; i < layers.size(); ++i) {
    auto identity = ReadSnapshotIdentity(layers[i]);
    if (!identity.ok()) return Fail(identity.status());
    if (!identity->manifest.has_value()) {
      return Fail(Status::InvalidArgument(
          "chain audit: " + layers[i] + " carries no delta manifest"));
    }
    const DeltaManifest& manifest = *identity->manifest;
    if (manifest.base_id != base_identity->artifact_id ||
        manifest.parent_id != parent_id || manifest.depth != i) {
      return Fail(Status::InvalidArgument(
          "chain audit: " + layers[i] +
          " does not chain onto the preceding layers (wrong base, "
          "parent, or depth)"));
    }
    parent_id = identity->artifact_id;
  }

  // Fold with full validation and byte-compare the canonical encoding
  // against the compacted artifact.
  auto base = LoadModelFromFile(layers[0], SnapshotValidation::kFull);
  if (!base.ok()) return Fail(base.status());
  Model merged(base->options());
  merged.Merge(*base);
  for (size_t i = 1; i < layers.size(); ++i) {
    auto delta = LoadModelFromFile(layers[i], SnapshotValidation::kFull);
    if (!delta.ok()) return Fail(delta.status());
    merged.Merge(*delta);
  }
  merged.Finalize();
  const std::string encoded = EncodeModelSnapshotV2(merged);
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
