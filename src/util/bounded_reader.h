// BoundedReader: the safe-cursor layer over untrusted bytes.
//
// Together with BinaryReader (util/binary_io.h) this file is the
// allowlisted home of raw byte reinterpretation: the unsafe-bytes lint
// pass (tools/lint) bans reinterpret_cast, memcpy and overlay pointer
// arithmetic everywhere else, so every wire byte that becomes a typed
// value flows through one of these two audited modules. BinaryReader is
// the sequential scalar cursor; BoundedReader is the random-access view
// used by the section-based snapshot decoders:
//
//   SubSpan(offset, length)      checked sub-view (section extraction)
//   Overlay<T>(elem_off, count)  zero-copy typed span over mapped bytes
//                                (little-endian hosts; alignment checked)
//   CopyArray<T>(elem_off, count) owned, endian-corrected element copy
//
// Every offset/length/count is treated as hostile: range ends are
// computed with CheckedAdd/CheckedMul (util/checked.h), so a crafted
// u64 that would wrap a `offset + length <= size` compare is a typed
// Corruption instead of an out-of-bounds view. Failures carry the
// buffer's name for actionable messages.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/binary_io.h"
#include "util/checked.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace unidetect {

class BoundedReader {
 public:
  /// `what` names the buffer in error messages ("observations section");
  /// it must outlive the reader (string literals in practice).
  explicit BoundedReader(std::string_view bytes, const char* what = "buffer")
      : bytes_(bytes), what_(what) {}

  size_t size() const { return bytes_.size(); }

  /// \brief Bounds-checked sub-view: `[offset, offset + length)` of the
  /// buffer, with the range end computed overflow-checked.
  Result<std::string_view> SubSpan(uint64_t offset, uint64_t length) const {
    UNIDETECT_ASSIGN_OR_RETURN(const uint64_t end,
                               CheckedAdd<uint64_t>(offset, length, what_));
    if (end > bytes_.size()) {
      return Status::Corruption(StrCat(what_, ": range [", offset, ", ", end,
                                       ") exceeds buffer size ",
                                       bytes_.size()));
    }
    return bytes_.substr(static_cast<size_t>(offset),
                         static_cast<size_t>(length));
  }

  /// \brief Zero-copy typed view of `count` elements starting at element
  /// `elem_offset`. The bytes are interpreted in place, so callers must
  /// be on a little-endian host (the snapshot wire format is LE); the
  /// base alignment is verified at runtime — a misaligned overlay is
  /// Corruption, not UB.
  template <typename T>
  Result<std::span<const T>> Overlay(uint64_t elem_offset,
                                     uint64_t count) const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(std::endian::native == std::endian::little,
                  "zero-copy overlays require a little-endian host; use "
                  "CopyArray on big-endian builds");
    if (count == 0) return std::span<const T>();
    UNIDETECT_ASSIGN_OR_RETURN(const std::string_view raw,
                               ByteRange<T>(elem_offset, count));
    if (reinterpret_cast<uintptr_t>(raw.data()) % alignof(T) != 0) {
      return Status::Corruption(
          StrCat(what_, ": overlay base is not ", alignof(T),
                 "-byte aligned"));
    }
    return std::span<const T>(reinterpret_cast<const T*>(raw.data()),
                              static_cast<size_t>(count));
  }

  /// \brief Owned copy of `count` little-endian elements starting at
  /// element `elem_offset`. Byte-swaps on big-endian hosts; a plain
  /// bounds-checked memcpy on little-endian ones. An empty range copies
  /// nothing (memcpy's pointers must be non-null even for zero bytes,
  /// and an empty vector's data() may be null).
  template <typename T>
  Result<std::vector<T>> CopyArray(uint64_t elem_offset,
                                   uint64_t count) const {
    static_assert(std::is_same_v<T, float> || std::is_same_v<T, uint32_t> ||
                      std::is_same_v<T, uint64_t>,
                  "CopyArray supports the snapshot element types");
    UNIDETECT_ASSIGN_OR_RETURN(const std::string_view raw,
                               ByteRange<T>(elem_offset, count));
    UNIDETECT_ASSIGN_OR_RETURN(const size_t n,
                               CheckedCast<size_t>(count, what_));
    std::vector<T> out(n);
    if (n == 0) return out;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), raw.data(), raw.size());
    } else {
      BinaryReader reader(raw);
      for (size_t i = 0; i < n; ++i) {
        if constexpr (std::is_same_v<T, float>) {
          reader.ReadF32(&out[i]);  // size pre-validated; cannot fail
        } else if constexpr (std::is_same_v<T, uint32_t>) {
          reader.ReadU32(&out[i]);
        } else {
          reader.ReadU64(&out[i]);
        }
      }
    }
    return out;
  }

 private:
  /// Byte range covering `count` elements of T at element `elem_offset`,
  /// all products and the range end overflow-checked.
  template <typename T>
  Result<std::string_view> ByteRange(uint64_t elem_offset,
                                     uint64_t count) const {
    UNIDETECT_ASSIGN_OR_RETURN(
        const uint64_t byte_offset,
        CheckedMul<uint64_t>(elem_offset, sizeof(T), what_));
    UNIDETECT_ASSIGN_OR_RETURN(const uint64_t byte_length,
                               CheckedMul<uint64_t>(count, sizeof(T), what_));
    return SubSpan(byte_offset, byte_length);
  }

  std::string_view bytes_;
  const char* what_;
};

}  // namespace unidetect
