#include "model_format/delta_snapshot.h"

#include "model_format/codec_internal.h"
#include "model_format/model_snapshot.h"
#include "util/binary_io.h"
#include "util/bounded_reader.h"
#include "util/checked.h"
#include "util/mmap_file.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

using snapshot_internal::kHeaderBytes;
using snapshot_internal::kTableEntryBytes;

constexpr uint32_t kManifestVersion = 1;
constexpr size_t kManifestPayloadBytes = 4 + 4 + 8 + 8 + 8;

// Parses just the container framing: magic, version, and the byte count
// of header + section table (validated against the buffer). Every other
// identity operation works over that prefix.
Status ParseContainerPrefix(BinaryReader* reader, uint32_t* section_count,
                            uint64_t* prefix_bytes) {
  std::string_view magic;
  if (!reader->ReadBytes(kSnapshotMagic.size(), &magic) ||
      magic != kSnapshotMagic) {
    return Status::Corruption("Snapshot identity: not a UDSNAP container");
  }
  uint32_t version = 0;
  if (!reader->ReadU32(&version) || !reader->ReadU32(section_count)) {
    return Status::Corruption("Snapshot identity: truncated header");
  }
  if (version > kSnapshotVersion) {
    return Status::NotImplemented(
        StrCat("Snapshot identity: format version ", version,
               " is newer than the supported version ", kSnapshotVersion));
  }
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t table_bytes,
      CheckedMul<uint64_t>(*section_count, kTableEntryBytes,
                           "snapshot identity section table"));
  if (table_bytes > reader->remaining()) {
    return Status::Corruption("Snapshot identity: truncated section table");
  }
  UNIDETECT_ASSIGN_OR_RETURN(
      *prefix_bytes,
      CheckedAdd<uint64_t>(kHeaderBytes, table_bytes,
                           "snapshot identity extent"));
  return Status::OK();
}

}  // namespace

std::string EncodeDeltaManifestPayload(const DeltaManifest& manifest) {
  std::string out;
  AppendU32(&out, kManifestVersion);
  AppendU32(&out, 0);  // reserved
  AppendU64(&out, manifest.base_id);
  AppendU64(&out, manifest.parent_id);
  AppendU64(&out, manifest.depth);
  return out;
}

Result<DeltaManifest> DecodeDeltaManifestPayload(std::string_view payload) {
  BinaryReader reader(payload);
  uint32_t version = 0;
  uint32_t reserved = 0;
  DeltaManifest manifest;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&reserved) ||
      !reader.ReadU64(&manifest.base_id) ||
      !reader.ReadU64(&manifest.parent_id) ||
      !reader.ReadU64(&manifest.depth)) {
    return Status::Corruption("Delta manifest: truncated payload");
  }
  if (!reader.empty()) {
    return Status::Corruption("Delta manifest: trailing bytes");
  }
  if (version > kManifestVersion) {
    return Status::NotImplemented(
        StrCat("Delta manifest: version ", version,
               " is newer than the supported version ", kManifestVersion));
  }
  if (version != kManifestVersion) {
    return Status::Corruption("Delta manifest: bad version");
  }
  if (reserved != 0) {
    return Status::Corruption("Delta manifest: nonzero reserved field");
  }
  if (manifest.depth == 0 || manifest.depth > kMaxDeltaDepth) {
    return Status::Corruption(
        StrCat("Delta manifest: depth ", manifest.depth,
               " outside [1, ", kMaxDeltaDepth, "]"));
  }
  if (manifest.depth == 1 && manifest.parent_id != manifest.base_id) {
    return Status::Corruption(
        "Delta manifest: first delta's parent must be its base");
  }
  return manifest;
}

Result<uint64_t> SnapshotArtifactId(std::string_view bytes) {
  BinaryReader reader(bytes);
  uint32_t section_count = 0;
  uint64_t prefix_bytes = 0;
  UNIDETECT_RETURN_NOT_OK(
      ParseContainerPrefix(&reader, &section_count, &prefix_bytes));
  // FNV-1a-64 over header + section table. The table rows carry every
  // section's CRC-32, so this commits to all payload content at
  // O(#sections) cost.
  uint64_t hash = 14695981039346656037ULL;
  for (uint64_t i = 0; i < prefix_bytes; ++i) {
    hash ^= static_cast<uint8_t>(bytes[static_cast<size_t>(i)]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Result<std::optional<DeltaManifest>> FindDeltaManifest(
    std::string_view bytes) {
  BinaryReader reader(bytes);
  uint32_t section_count = 0;
  uint64_t prefix_bytes = 0;
  UNIDETECT_RETURN_NOT_OK(
      ParseContainerPrefix(&reader, &section_count, &prefix_bytes));
  const BoundedReader file(bytes, "Delta manifest");
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0;
    uint32_t crc = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    if (!reader.ReadU32(&id) || !reader.ReadU32(&crc) ||
        !reader.ReadU64(&offset) || !reader.ReadU64(&length)) {
      return Status::Corruption(
          "Delta manifest: truncated section table");
    }
    if (id != static_cast<uint32_t>(SnapshotSection::kDeltaManifest)) {
      continue;
    }
    if (length != kManifestPayloadBytes) {
      return Status::Corruption(
          StrCat("Delta manifest: section length ", length, " (want ",
                 kManifestPayloadBytes, ")"));
    }
    // SubSpan overflow-checks offset + length against the buffer, so a
    // hostile table row cannot walk out of bounds here.
    UNIDETECT_ASSIGN_OR_RETURN(const std::string_view payload,
                               file.SubSpan(offset, length));
    // Always checksummed — the payload is 32 bytes, and the chain fields
    // steer which layers serving stacks, so they are never trusted raw.
    if (Crc32(payload) != crc) {
      return Status::Corruption(
          "Delta manifest: checksum mismatch in manifest section");
    }
    UNIDETECT_ASSIGN_OR_RETURN(const DeltaManifest manifest,
                               DecodeDeltaManifestPayload(payload));
    return std::optional<DeltaManifest>(manifest);
  }
  return std::optional<DeltaManifest>();
}

Result<SnapshotIdentity> SnapshotIdentityOf(std::string_view bytes) {
  SnapshotIdentity identity;
  UNIDETECT_ASSIGN_OR_RETURN(identity.artifact_id, SnapshotArtifactId(bytes));
  UNIDETECT_ASSIGN_OR_RETURN(identity.manifest, FindDeltaManifest(bytes));
  return identity;
}

Result<SnapshotIdentity> ReadSnapshotIdentity(const std::string& path) {
  // Mapped, not read: only the header, the section table and the
  // manifest payload are touched, so the cost is O(#sections) whatever
  // the file's size.
  UNIDETECT_ASSIGN_OR_RETURN(const MmapRegion region, MmapRegion::Map(path));
  return SnapshotIdentityOf(region.bytes());
}

}  // namespace unidetect
