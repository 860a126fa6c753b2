// Little-endian fixed-width binary encoding helpers and single-read
// file IO, shared by the model snapshot format (model_format/) and any
// future on-disk artifact. Encoders append to a std::string; the reader
// is a bounds-checked cursor over a string_view that never throws and
// never reads past the end.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/result.h"

namespace unidetect {

// ---------------------------------------------------------------------------
// Appenders. All integers are written little-endian regardless of host
// byte order; floats are written as the little-endian bytes of their
// IEEE-754 representation, so a float round-trips bit-identically.

void AppendU8(std::string* out, uint8_t v);
void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);

inline void AppendF32(std::string* out, float v) {
  AppendU32(out, std::bit_cast<uint32_t>(v));
}
inline void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

/// \brief Appends a u32 byte length followed by the raw bytes.
void AppendLengthPrefixed(std::string* out, std::string_view bytes);

// ---------------------------------------------------------------------------
// Reader.

/// \brief Bounds-checked little-endian cursor over an in-memory buffer.
///
/// Every Read* returns false (without advancing) when fewer bytes remain
/// than the field needs; callers translate that into a typed Status with
/// context. The buffer must outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return pos_ == data_.size(); }

  bool ReadU8(uint8_t* out);
  bool ReadU16(uint16_t* out);
  bool ReadU32(uint32_t* out);
  bool ReadU64(uint64_t* out);

  bool ReadF32(float* out) {
    uint32_t bits = 0;
    if (!ReadU32(&bits)) return false;
    *out = std::bit_cast<float>(bits);
    return true;
  }
  bool ReadF64(double* out) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  /// \brief Reads `n` raw bytes as a view into the underlying buffer.
  bool ReadBytes(size_t n, std::string_view* out);

  /// \brief Reads a u32 length prefix, then that many bytes.
  bool ReadLengthPrefixed(std::string_view* out);

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Checksums.

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, initial
/// and final xor 0xFFFFFFFF) of `bytes`. On the vector level
/// (util/simd.h) a PCLMULQDQ fold takes the whole 16-byte blocks of a
/// buffer of 64 bytes or more; slicing-by-8 takes the rest, and all of
/// it on the scalar level. Both give the same value.
uint32_t Crc32(std::string_view bytes);

// ---------------------------------------------------------------------------
// Whole-file IO.

/// \brief Reads an entire file with one size-probed allocation and one
/// read call — the replacement for the `ostringstream << rdbuf()` slurp
/// idiom, which copies every byte twice through a stream buffer.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Writes `contents` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, std::string_view contents);

}  // namespace unidetect
