#include "util/binary_io.h"

#include <array>
#include <fstream>

#include "util/simd.h"

namespace unidetect {

namespace {
template <typename T>
void AppendLittleEndian(std::string* out, T v) {
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(bytes, sizeof(T));
}

template <typename T>
bool ReadLittleEndian(std::string_view data, size_t* pos, T* out) {
  if (data.size() - *pos < sizeof(T)) return false;
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(data[*pos + i]))
         << (8 * i);
  }
  *pos += sizeof(T);
  *out = v;
  return true;
}
}  // namespace

void AppendU8(std::string* out, uint8_t v) { AppendLittleEndian(out, v); }
void AppendU16(std::string* out, uint16_t v) { AppendLittleEndian(out, v); }
void AppendU32(std::string* out, uint32_t v) { AppendLittleEndian(out, v); }
void AppendU64(std::string* out, uint64_t v) { AppendLittleEndian(out, v); }

void AppendLengthPrefixed(std::string* out, std::string_view bytes) {
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
}

bool BinaryReader::ReadU8(uint8_t* out) {
  return ReadLittleEndian(data_, &pos_, out);
}
bool BinaryReader::ReadU16(uint16_t* out) {
  return ReadLittleEndian(data_, &pos_, out);
}
bool BinaryReader::ReadU32(uint32_t* out) {
  return ReadLittleEndian(data_, &pos_, out);
}
bool BinaryReader::ReadU64(uint64_t* out) {
  return ReadLittleEndian(data_, &pos_, out);
}

bool BinaryReader::ReadBytes(size_t n, std::string_view* out) {
  if (remaining() < n) return false;
  *out = data_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool BinaryReader::ReadLengthPrefixed(std::string_view* out) {
  uint32_t n = 0;
  if (!ReadU32(&n)) return false;
  if (remaining() < n) return false;
  return ReadBytes(n, out);
}

namespace {
// The scalar path, and the tail of the vector one. Slicing-by-8
// (Kounavis and Berry): kCrc32Tables[k][b] is the CRC register
// contribution of byte b followed by k zero bytes, so one step folds
// eight input bytes with eight independent table loads instead of a
// chain of eight dependent ones. Table 0 is the classic bytewise table,
// which still finishes the tail.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}
constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian u32 of the four bytes at bytes[pos]. Byte loads keep the
// result independent of host byte order and alignment; compilers fuse
// them into one load.
uint32_t LoadU32(std::string_view bytes, size_t pos) {
  return static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos])) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + 3]))
             << 24;
}
}  // namespace

uint32_t Crc32(std::string_view bytes) {
  const auto& t = kCrc32Tables;
  uint32_t crc = 0xFFFFFFFFu;
  // The vector fold (util/simd.h) takes the whole 16-byte blocks, if any.
  size_t pos = simd::Crc32Fold(bytes.data(), bytes.size(), &crc);
  for (; bytes.size() - pos >= 8; pos += 8) {
    const uint32_t lo = crc ^ LoadU32(bytes, pos);
    const uint32_t hi = LoadU32(bytes, pos + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; pos < bytes.size(); ++pos) {
    crc = t[0][(crc ^ static_cast<unsigned char>(bytes[pos])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot determine size of " + path);
  in.seekg(0, std::ios::beg);
  std::string out(static_cast<size_t>(size), '\0');
  in.read(out.data(), size);
  if (in.gcount() != size) {
    return Status::IOError("short read from " + path);
  }
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace unidetect
