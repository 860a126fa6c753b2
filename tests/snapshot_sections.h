// Test helpers that take a UDSNAP container apart and put it back
// together: split it into (id, payload) sections, edit them, and repack
// them canonically (64-byte aligned payloads in table order, zero
// padding, CRC-32 recomputed). A repacked file is well-formed at the
// container level, so a decode failure on it is the section content's
// doing, not a CRC or packing check.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "util/binary_io.h"

namespace unidetect {
namespace testing_snapshot {

struct SectionBytes {
  uint32_t id = 0;
  std::string payload;
};

/// The sections of a well-formed container, in table order.
inline std::vector<SectionBytes> SplitSections(std::string_view bytes) {
  std::vector<SectionBytes> out;
  BinaryReader reader(bytes);
  std::string_view magic;
  uint32_t version = 0;
  uint32_t count = 0;
  EXPECT_TRUE(reader.ReadBytes(8, &magic) && reader.ReadU32(&version) &&
              reader.ReadU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    uint32_t crc = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    EXPECT_TRUE(reader.ReadU32(&id) && reader.ReadU32(&crc) &&
                reader.ReadU64(&offset) && reader.ReadU64(&length));
    out.push_back({id, std::string(bytes.substr(offset, length))});
  }
  return out;
}

/// A canonically packed container holding `sections` in the given order.
inline std::string PackSections(uint32_t version,
                                const std::vector<SectionBytes>& sections) {
  std::string out = "UDSNAP\r\n";
  AppendU32(&out, version);
  AppendU32(&out, static_cast<uint32_t>(sections.size()));
  uint64_t offset = out.size() + sections.size() * 24;
  std::vector<uint64_t> offsets;
  for (const SectionBytes& section : sections) {
    offset = (offset + 63) / 64 * 64;
    offsets.push_back(offset);
    AppendU32(&out, section.id);
    AppendU32(&out, Crc32(section.payload));
    AppendU64(&out, offset);
    AppendU64(&out, section.payload.size());
    offset += section.payload.size();
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    out.resize(offsets[i], '\0');
    out.append(sections[i].payload);
  }
  return out;
}

/// The payload of section `id`; fails the test when it is absent.
inline std::string* FindPayload(std::vector<SectionBytes>* sections,
                                uint32_t id) {
  for (SectionBytes& section : *sections) {
    if (section.id == id) return &section.payload;
  }
  ADD_FAILURE() << "no section " << id;
  return nullptr;
}

}  // namespace testing_snapshot
}  // namespace unidetect
