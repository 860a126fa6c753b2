// Crc32 (util/binary_io.h), the slicing-by-8 checksum behind every
// UDSNAP section CRC and the offline pipeline's shard checks, against
// published IEEE CRC-32 values and the bytewise oracle
// (tests/reference/crc32_reference.h) at every length and alignment the
// eight-byte main loop and its tail can meet.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "reference/crc32_reference.h"
#include "util/binary_io.h"
#include "util/random.h"

namespace unidetect {
namespace {

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& ch : out) ch = static_cast<char>(rng.Next() & 0xff);
  return out;
}

TEST(Crc32Test, PublishedCheckValues) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  EXPECT_EQ(Crc32(std::string(32, '\x00')), 0x190A55ADu);
  EXPECT_EQ(Crc32(std::string(32, '\xff')), 0xFF6CAB0Bu);
  EXPECT_EQ(Crc32(std::string(4096, '\x00')), 0xC71C0011u);
  EXPECT_EQ(Crc32(std::string(4096, '\xff')), 0xF154670Au);
  EXPECT_EQ(Crc32Reference("123456789"), 0xCBF43926u);
}

// Lengths 0..300 start the main loop at every one of the eight
// alignments and leave every tail length 0..7.
TEST(Crc32Test, EveryLengthAtEveryOffsetMatchesTheBytewiseOracle) {
  const std::string buffer = RandomBytes(8 + 300, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::string_view bytes =
          std::string_view(buffer).substr(offset, length);
      ASSERT_EQ(Crc32(bytes), Crc32Reference(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, OneMebibyteMatchesTheBytewiseOracle) {
  const std::string buffer = RandomBytes(size_t{1} << 20, 29);
  EXPECT_EQ(Crc32(buffer), Crc32Reference(buffer));
}

TEST(Crc32Test, RunsOfZerosAndOnesMatchTheBytewiseOracle) {
  for (const char fill : {'\x00', '\xff'}) {
    for (size_t length = 0; length <= 1100; length += 11) {
      const std::string run(length, fill);
      ASSERT_EQ(Crc32(run), Crc32Reference(run))
          << "fill " << static_cast<int>(static_cast<unsigned char>(fill))
          << " length " << length;
    }
  }
}

}  // namespace
}  // namespace unidetect
