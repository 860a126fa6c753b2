#include "util/flat_string_table.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace unidetect {

namespace {

constexpr uint64_t kOnes = 0x0101010101010101ULL;
constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;

// Little-endian word of the 8 bytes at p. Byte loads keep hashes
// independent of host byte order and alignment; compilers fuse them into
// one load.
uint64_t LoadWord(const char* p) {
  uint64_t w = 0;
  for (int i = 0; i < 8; ++i) {
    w |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
  }
  return w;
}

// Little-endian word of the last n < 8 bytes at p, zero-padded.
uint64_t LoadTail(const char* p, size_t n) {
  uint64_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    w |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
  }
  return w;
}

// Lowercases the ASCII letters of all eight bytes at once, exactly as
// std::tolower does in the "C" locale: 'A'..'Z' gain 0x20, every other
// byte (including those >= 0x80) is unchanged. Adding to the low seven
// bits of each byte cannot carry into the next byte.
uint64_t AsciiLowerWord(uint64_t w) {
  const uint64_t low7 = w & (0x7F * kOnes);
  const uint64_t at_least_a = low7 + (0x80 - 'A') * kOnes;
  const uint64_t above_z = low7 + (0x7F - 'Z') * kOnes;
  const uint64_t upper = at_least_a & ~above_z & ~w & (0x80 * kOnes);
  return w | (upper >> 2);
}

template <bool kFold>
uint64_t Fold(uint64_t w) {
  if constexpr (kFold) {
    return AsciiLowerWord(w);
  } else {
    return w;
  }
}

// Hash of the key's bytes, folded first when kFold.
template <bool kFold>
uint64_t HashBytes(std::string_view key) {
  uint64_t h = kMul ^ key.size();
  size_t pos = 0;
  for (; pos + 8 <= key.size(); pos += 8) {
    h = (std::rotl(h, 23) ^ Fold<kFold>(LoadWord(key.data() + pos))) * kMul;
  }
  if (pos < key.size()) {
    h = (std::rotl(h, 23) ^
         Fold<kFold>(LoadTail(key.data() + pos, key.size() - pos))) *
        kMul;
  }
  // Final avalanche (MurmurHash3's fmix64): slot index and tag come from
  // the low and high halves.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

// stored == (kFold ? AsciiLower(key) : key).
template <bool kFold>
bool KeyEquals(std::string_view stored, std::string_view key) {
  if (stored.size() != key.size()) return false;
  if constexpr (!kFold) {
    return stored == key;
  } else {
    size_t pos = 0;
    for (; pos + 8 <= key.size(); pos += 8) {
      if (AsciiLowerWord(LoadWord(key.data() + pos)) !=
          LoadWord(stored.data() + pos)) {
        return false;
      }
    }
    const size_t tail = key.size() - pos;
    return AsciiLowerWord(LoadTail(key.data() + pos, tail)) ==
           LoadTail(stored.data() + pos, tail);
  }
}

uint32_t Tag(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

}  // namespace

void FlatStringTable::Reserve(size_t keys, size_t bytes) {
  // Smallest power of two that holds `keys` at the 3/4 load bound.
  const size_t capacity =
      std::bit_ceil(std::max<size_t>(16, (keys * 4 + 2) / 3));
  if (capacity > slots_.size()) Rehash(capacity);
  arena_.reserve(bytes);
  ends_.reserve(keys);
}

std::pair<uint32_t, bool> FlatStringTable::Insert(std::string_view key) {
  return InsertImpl<false>(key);
}

std::pair<uint32_t, bool> FlatStringTable::InsertAsciiLower(
    std::string_view key) {
  return InsertImpl<true>(key);
}

uint64_t FlatStringTable::HashAsciiLower(std::string_view key) {
  return HashBytes<true>(key);
}

uint32_t FlatStringTable::FindAsciiLower(std::string_view key,
                                         uint64_t hash) const {
  if (slots_.empty()) return kAbsent;
  const uint32_t tag = Tag(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kAbsent) return kAbsent;
    if (slot.tag == tag && KeyEquals<true>(this->key(slot.id), key)) {
      return slot.id;
    }
  }
}

template <bool kFold>
std::pair<uint32_t, bool> FlatStringTable::InsertImpl(std::string_view key) {
  // Grow first, so the slot the probe ends on is the key's final slot.
  if ((size() + 1) * 4 > slots_.size() * 3) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  const uint64_t hash = HashBytes<kFold>(key);
  const uint32_t tag = Tag(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.id == kAbsent) {
      UNIDETECT_CHECK(size() < kAbsent);
      const auto id = static_cast<uint32_t>(size());
      slot = {tag, id};
      if constexpr (kFold) {
        for (const char c : key) {
          arena_.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32)
                                                : c);
        }
      } else {
        arena_.append(key);
      }
      ends_.push_back(arena_.size());
      return {id, true};
    }
    if (slot.tag == tag && KeyEquals<kFold>(this->key(slot.id), key)) {
      return {slot.id, false};
    }
  }
}

void FlatStringTable::Rehash(size_t capacity) {
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < size(); ++id) {
    // Stored bytes are already in their final (folded) form.
    const uint64_t hash = HashBytes<false>(key(id));
    size_t i = hash & mask;
    while (slots_[i].id != kAbsent) i = (i + 1) & mask;
    slots_[i] = {Tag(hash), id};
  }
}

}  // namespace unidetect
