// Tests for the overflow-checked arithmetic helpers that guard every
// wire-derived length/offset/count on the snapshot decode path, and for
// the BoundedReader cursor built on them.

#include "util/checked.h"

#include <cstdint>
#include <limits>
#include <string>

#include "util/binary_io.h"
#include "util/bounded_reader.h"

#include "gtest/gtest.h"

namespace unidetect {
namespace {

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

TEST(CheckedAddTest, InRangeSumsPassThrough) {
  auto sum = CheckedAdd<uint64_t>(40, 2);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum.ValueOrDie(), 42u);

  auto edge = CheckedAdd<uint64_t>(kU64Max - 1, 1);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge.ValueOrDie(), kU64Max);

  auto zero = CheckedAdd<uint64_t>(0, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.ValueOrDie(), 0u);
}

TEST(CheckedAddTest, WrapIsTypedCorruption) {
  // The attack this guards: offset + length wrapping below the buffer
  // size so a later `end <= size` compare passes.
  auto wrapped = CheckedAdd<uint64_t>(kU64Max, 1, "section extent");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_TRUE(wrapped.status().IsCorruption());
  EXPECT_NE(wrapped.status().ToString().find("section extent"),
            std::string::npos);

  EXPECT_FALSE(CheckedAdd<uint64_t>(kU64Max - 1, 2).ok());
  EXPECT_FALSE(CheckedAdd<uint32_t>(0xFFFFFFFFu, 1).ok());
}

TEST(CheckedMulTest, InRangeProductsPassThrough) {
  auto prod = CheckedMul<uint64_t>(6, 7);
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(prod.ValueOrDie(), 42u);

  auto by_zero = CheckedMul<uint64_t>(kU64Max, 0);
  ASSERT_TRUE(by_zero.ok());
  EXPECT_EQ(by_zero.ValueOrDie(), 0u);

  auto edge = CheckedMul<uint64_t>(kU64Max / 2, 2);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge.ValueOrDie(), kU64Max - 1);
}

TEST(CheckedMulTest, OverflowIsTypedCorruption) {
  // The attack this guards: count * sizeof(T) wrapping to a small byte
  // length that passes the bounds compare while the count stays huge.
  auto wrapped = CheckedMul<uint64_t>(kU64Max / 4 + 1, 4, "bulk section");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_TRUE(wrapped.status().IsCorruption());
  EXPECT_NE(wrapped.status().ToString().find("bulk section"),
            std::string::npos);

  EXPECT_FALSE(CheckedMul<uint64_t>(kU64Max, 2).ok());
  EXPECT_FALSE(CheckedMul<uint32_t>(0x10000u, 0x10000u).ok());
}

TEST(CheckedCastTest, FittingValuesPassThrough) {
  auto narrow = CheckedCast<uint32_t>(uint64_t{0xFFFFFFFFull});
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow.ValueOrDie(), 0xFFFFFFFFu);

  auto same = CheckedCast<uint64_t>(kU64Max);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same.ValueOrDie(), kU64Max);

  auto widen = CheckedCast<uint64_t>(uint32_t{7});
  ASSERT_TRUE(widen.ok());
  EXPECT_EQ(widen.ValueOrDie(), 7u);
}

TEST(CheckedCastTest, TruncationIsTypedCorruption) {
  // The attack this guards: a u64 length truncating through a 32-bit
  // size_t to a small in-bounds lie.
  auto truncated =
      CheckedCast<uint32_t>(uint64_t{0x100000000ull}, "token count");
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsCorruption());
  EXPECT_NE(truncated.status().ToString().find("token count"),
            std::string::npos);

  EXPECT_FALSE(CheckedCast<uint16_t>(uint64_t{0x10000ull}).ok());
}

TEST(CheckedTest, ComposesWithAssignOrReturn) {
  auto parse = [](uint64_t count, uint64_t elem) -> Result<uint64_t> {
    UNIDETECT_ASSIGN_OR_RETURN(const uint64_t bytes,
                               CheckedMul<uint64_t>(count, elem, "payload"));
    return CheckedAdd<uint64_t>(bytes, 16, "payload end");
  };
  auto ok = parse(10, 8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 96u);
  auto bad = parse(kU64Max / 2, 3);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption());
}

TEST(BoundedReaderTest, CopyArrayOfNothingFromAnEmptyBuffer) {
  // Both memcpy pointers would be null here: the empty buffer's and the
  // empty vector's. The copy must be skipped, not performed with size 0.
  const BoundedReader reader(std::string_view(), "empty");
  auto copy = reader.CopyArray<float>(0, 0);
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(copy->empty());
}

TEST(BoundedReaderTest, CopyArrayOfNothingAtTheBufferEnd) {
  std::string bytes;
  AppendF32(&bytes, 0.0f);
  AppendF32(&bytes, 1.0f);
  const BoundedReader reader(bytes, "two floats");
  auto empty = reader.CopyArray<float>(2, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto last = reader.CopyArray<float>(1, 1);
  ASSERT_TRUE(last.ok());
  ASSERT_EQ(last->size(), 1u);
  EXPECT_EQ((*last)[0], 1.0f);
  auto past_end = reader.CopyArray<float>(2, 1);
  ASSERT_FALSE(past_end.ok());
  EXPECT_TRUE(past_end.status().IsCorruption());
}

}  // namespace
}  // namespace unidetect
