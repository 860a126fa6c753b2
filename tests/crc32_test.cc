// Crc32 (util/binary_io.h), the checksum behind every UDSNAP section CRC
// and the offline pipeline's shard checks. On the vector level a
// PCLMULQDQ fold (util/simd.h) takes the whole 16-byte blocks of a
// buffer of 64 bytes or more and slicing-by-8 the tail; on the scalar
// level slicing-by-8 takes it all. Both paths are checked, with dispatch
// forced on and off, against published IEEE CRC-32 values and the
// bytewise oracle (tests/reference/crc32_reference.h): at every length
// and alignment the fold's 64-byte and 16-byte steps and the tail can
// meet, and with each buffer ending at an unreadable page.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "reference/crc32_reference.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "util/simd.h"

namespace unidetect {
namespace {

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& ch : out) ch = static_cast<char>(rng.Next() & 0xff);
  return out;
}

// Forces the vector path on or off for one scope and restores the
// level it found, so a run under UNIDETECT_DISABLE_SIMD stays scalar
// after the test.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled)
      : was_enabled_(simd::ActiveSimdLevel() != simd::SimdLevel::kScalar) {
    simd::SetSimdEnabled(enabled);
  }
  ~ScopedSimd() { simd::SetSimdEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

constexpr bool kPaths[] = {true, false};

TEST(Crc32Test, PublishedCheckValues) {
  for (const bool vector : kPaths) {
    SCOPED_TRACE(vector ? "vector" : "scalar");
    ScopedSimd simd(vector);
    EXPECT_EQ(Crc32(""), 0u);
    EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
              0x414FA339u);
    EXPECT_EQ(Crc32(std::string(32, '\x00')), 0x190A55ADu);
    EXPECT_EQ(Crc32(std::string(32, '\xff')), 0xFF6CAB0Bu);
    EXPECT_EQ(Crc32(std::string(4096, '\x00')), 0xC71C0011u);
    EXPECT_EQ(Crc32(std::string(4096, '\xff')), 0xF154670Au);
  }
  EXPECT_EQ(Crc32Reference("123456789"), 0xCBF43926u);
}

// Lengths 0..1100 at offsets 0..15 cross every boundary of both paths:
// the fold's first 64 bytes, its 64-byte and 16-byte steps, the tail of
// 0..15 bytes it leaves, and slicing-by-8's eight alignments and tails.
TEST(Crc32Test, EveryLengthAtEveryOffsetMatchesTheBytewiseOracle) {
  const std::string buffer = RandomBytes(16 + 1100, 17);
  for (const bool vector : kPaths) {
    ScopedSimd simd(vector);
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t length = 0; length <= 1100; ++length) {
        const std::string_view bytes =
            std::string_view(buffer).substr(offset, length);
        ASSERT_EQ(Crc32(bytes), Crc32Reference(bytes))
            << (vector ? "vector" : "scalar") << " offset " << offset
            << " length " << length;
      }
    }
  }
}

TEST(Crc32Test, OneMebibyteMatchesTheBytewiseOracle) {
  const std::string buffer = RandomBytes(size_t{1} << 20, 29);
  const uint32_t expected = Crc32Reference(buffer);
  for (const bool vector : kPaths) {
    ScopedSimd simd(vector);
    EXPECT_EQ(Crc32(buffer), expected) << (vector ? "vector" : "scalar");
  }
}

TEST(Crc32Test, RunsOfZerosAndOnesMatchTheBytewiseOracle) {
  for (const bool vector : kPaths) {
    ScopedSimd simd(vector);
    for (const char fill : {'\x00', '\xff'}) {
      for (size_t length = 0; length <= 1100; length += 11) {
        const std::string run(length, fill);
        ASSERT_EQ(Crc32(run), Crc32Reference(run))
            << (vector ? "vector" : "scalar") << " fill "
            << static_cast<int>(static_cast<unsigned char>(fill))
            << " length " << length;
      }
    }
  }
}

// Each buffer ends exactly where a PROT_NONE page begins, so a load past
// its last byte faults instead of reading a neighbour's bytes.
TEST(Crc32Test, BufferEndingAtAGuardPageIsNeverOverRead) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  void* mapping = mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mapping, MAP_FAILED);
  char* const first = static_cast<char*>(mapping);
  char* const guard = first + page;
  ASSERT_EQ(mprotect(guard, page, PROT_NONE), 0);
  const std::string fill = RandomBytes(page, 41);
  fill.copy(first, page);
  for (const bool vector : kPaths) {
    ScopedSimd simd(vector);
    for (size_t length = 64; length <= 300; ++length) {
      const std::string_view bytes(guard - length, length);
      ASSERT_EQ(Crc32(bytes), Crc32Reference(bytes))
          << (vector ? "vector" : "scalar") << " length " << length;
    }
  }
  ASSERT_EQ(munmap(mapping, 2 * page), 0);
}

// The cases above pass on the scalar path alone; this one fails if a
// host with the fold's instructions never reaches it.
TEST(Crc32Test, VectorHostTakesTheFold) {
#if defined(__x86_64__)
  const bool host_folds = __builtin_cpu_supports("avx2") &&
                          __builtin_cpu_supports("pclmul");
#else
  const bool host_folds = false;
#endif
  const std::string bytes = RandomBytes(100, 53);
  {
    ScopedSimd simd(true);
    EXPECT_EQ(simd::ActiveSimdLevel() == simd::SimdLevel::kAvx2, host_folds);
    uint32_t crc = 0xFFFFFFFFu;
    EXPECT_EQ(simd::Crc32Fold(bytes.data(), bytes.size(), &crc),
              host_folds ? size_t{96} : size_t{0});
    EXPECT_EQ(simd::Crc32Fold(bytes.data(), 63, &crc), size_t{0});
  }
  {
    ScopedSimd simd(false);
    uint32_t crc = 0xFFFFFFFFu;
    EXPECT_EQ(simd::Crc32Fold(bytes.data(), bytes.size(), &crc), size_t{0});
    EXPECT_EQ(crc, 0xFFFFFFFFu);
  }
}

}  // namespace
}  // namespace unidetect
