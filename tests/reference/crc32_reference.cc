#include "reference/crc32_reference.h"

#include <array>

namespace unidetect {

namespace {
std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
}  // namespace

uint32_t Crc32Reference(std::string_view bytes) {
  static const std::array<uint32_t, 256> table = MakeTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace unidetect
