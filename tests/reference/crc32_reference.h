// Test-only oracle for Crc32 (util/binary_io.h): the classic bytewise,
// one-table loop that slicing-by-8 and the carry-less-multiply fold
// replaced. It builds its own table, so it shares no state with the
// library's tables.

#pragma once

#include <cstdint>
#include <string_view>

namespace unidetect {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), one byte per
/// step.
uint32_t Crc32Reference(std::string_view bytes);

}  // namespace unidetect
