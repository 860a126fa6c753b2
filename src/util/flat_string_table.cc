#include "util/flat_string_table.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"
#include "util/string_util.h"

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

size_t FlatStringTable::CapacityFor(size_t keys) {
  return std::bit_ceil(std::max<size_t>(16, (keys * 4 + 2) / 3));
}

FlatStringTable FlatStringTable::Borrow(std::span<const Slot> slots,
                                        std::string_view arena,
                                        std::span<const uint32_t> ends) {
  FlatStringTable table;
  table.slots_view_ = slots;
  table.arena_view_ = arena;
  table.ends_view_ = ends;
  table.borrowed_ = true;
  return table;
}

FlatStringTable FlatStringTable::Adopt(std::vector<Slot> slots,
                                       std::vector<char> arena,
                                       std::vector<uint32_t> ends) {
  FlatStringTable table;
  table.slots_owned_ = std::move(slots);
  table.arena_owned_ = std::move(arena);
  table.ends_owned_ = std::move(ends);
  return table;
}

Status FlatStringTable::CheckSortedLower(bool verify_probes) const {
  const std::span<const Slot> slots = this->slots();
  const std::string_view arena = this->arena();
  const std::span<const uint32_t> ends = this->ends();
  const size_t n = ends.size();
  if (n >= kAbsent) {
    return Status::Corruption("token table: too many keys");
  }
  if (!std::has_single_bit(slots.size()) || slots.size() < CapacityFor(n)) {
    return Status::Corruption(
        StrCat("token table: capacity ", slots.size(),
               " is not a power of two at or above ", CapacityFor(n)));
  }
  // These passes run on every open of a mapped snapshot, so the slot
  // and byte passes accumulate flags instead of branching per element.
  // Bit `id` of `seen` marks an id held by a slot; bit n absorbs empty
  // slots and out-of-range ids.
  std::vector<uint64_t> seen(n / 64 + 1, 0);
  size_t occupied = 0;
  size_t repeats = 0;
  bool out_of_range = false;
  bool tagged_empty = false;
  for (const Slot& slot : slots) {
    const bool used = slot.id != kAbsent;
    const uint64_t bit = std::min<uint64_t>(slot.id, n);
    uint64_t& word = seen[bit / 64];
    const uint64_t mask = uint64_t{1} << (bit % 64);
    repeats += static_cast<size_t>(used & ((word & mask) != 0));
    word |= mask;
    occupied += static_cast<size_t>(used);
    out_of_range |= used & (slot.id >= n);
    tagged_empty |= !used & (slot.tag != 0);
  }
  if (out_of_range) {
    return Status::Corruption("token table: slot id out of range");
  }
  if (occupied == slots.size()) {
    return Status::Corruption("token table: no empty slot");
  }
  if (tagged_empty) {
    return Status::Corruption("token table: empty slot with a tag");
  }
  if (repeats != 0) {
    return Status::Corruption("token table: an id is held by two slots");
  }
  if (occupied != n) {
    return Status::Corruption(StrCat("token table: ", occupied,
                                     " occupied slots for ", n, " keys"));
  }
  // One pass over the key ends and the first eight bytes of each key:
  // ends must rise (every key non-empty) and keys must ascend. Adjacent
  // keys' prefixes (big-endian, zero-padded) order them unless equal;
  // only then are the keys compared in full.
  const char* bytes = arena.data();
  const auto prefix = [&](uint32_t begin, uint32_t len) {
    const uint64_t w = arena.size() - begin >= 8
                           ? LoadWord(bytes + begin)
                           : LoadTail(bytes + begin, arena.size() - begin);
    const uint64_t kept =
        len >= 8 ? w : w & ((uint64_t{1} << (8 * len)) - 1);
    return __builtin_bswap64(kept);
  };
  bool stalled = false;
  bool descending = false;
  uint32_t begin = 0;
  uint32_t prev_begin = 0;
  uint64_t prev_prefix = 0;
  for (uint32_t id = 0; id < n; ++id) {
    const uint32_t end = ends[id];
    if (end <= begin || end > arena.size()) {
      stalled = true;
      break;
    }
    const uint64_t key_prefix = prefix(begin, end - begin);
    if (id > 0) {
      descending |=
          key_prefix != prev_prefix
              ? key_prefix < prev_prefix
              : std::string_view(bytes + begin, end - begin) <=
                    std::string_view(bytes + prev_begin, begin - prev_begin);
    }
    prev_prefix = key_prefix;
    prev_begin = begin;
    begin = end;
  }
  if (stalled) {
    return Status::Corruption("token table: key ends do not rise in the arena");
  }
  if (begin != arena.size()) {
    return Status::Corruption(
        "token table: key ends do not end at the arena's end");
  }
  if (descending) {
    return Status::Corruption("token table: keys not strictly ascending");
  }
  uint64_t upper = 0;
  size_t pos = 0;
  for (; pos + 8 <= arena.size(); pos += 8) {
    const uint64_t w = LoadWord(bytes + pos);
    upper |= AsciiLowerWord(w) ^ w;
  }
  const uint64_t tail = LoadTail(bytes + pos, arena.size() - pos);
  upper |= AsciiLowerWord(tail) ^ tail;
  if (upper != 0) {
    return Status::Corruption("token table: key with an uppercase letter");
  }
  if (verify_probes) {
    for (uint32_t id = 0; id < n; ++id) {
      const std::string_view key = KeyIn(arena, ends, id);
      if (FindAsciiLower(key, HashAsciiLower(key)) != id) {
        return Status::Corruption(
            StrCat("token table: key ", id, " is not at its probe position"));
      }
    }
  }
  return Status::OK();
}

uint64_t FlatStringTable::OwnedBytes() const {
  return slots_owned_.capacity() * sizeof(Slot) + arena_owned_.capacity() +
         ends_owned_.capacity() * sizeof(uint32_t);
}

void FlatStringTable::Reserve(size_t keys, size_t bytes) {
  UNIDETECT_CHECK(!borrowed_);
  const size_t capacity = CapacityFor(keys);
  if (capacity > slots_owned_.size()) Rehash(capacity);
  arena_owned_.reserve(bytes);
  ends_owned_.reserve(keys);
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
  const std::span<const Slot> slots = this->slots();
  if (slots.empty()) return kAbsent;
  const uint32_t tag = Tag(hash);
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots[i];
    if (slot.id == kAbsent) return kAbsent;
    if (slot.tag == tag && KeyEquals<true>(this->key(slot.id), key)) {
      return slot.id;
    }
  }
}

template <bool kFold>
std::pair<uint32_t, bool> FlatStringTable::InsertImpl(std::string_view key) {
  UNIDETECT_CHECK(!borrowed_);
  // Grow first, so the slot the probe ends on is the key's final slot.
  if ((ends_owned_.size() + 1) * 4 > slots_owned_.size() * 3) {
    Rehash(std::max<size_t>(16, slots_owned_.size() * 2));
  }
  const uint64_t hash = HashBytes<kFold>(key);
  const uint32_t tag = Tag(hash);
  const size_t mask = slots_owned_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_owned_[i];
    if (slot.id == kAbsent) {
      UNIDETECT_CHECK(ends_owned_.size() < kAbsent &&
                      key.size() <= UINT32_MAX - arena_owned_.size());
      const auto id = static_cast<uint32_t>(ends_owned_.size());
      slot = {tag, id};
      if constexpr (kFold) {
        for (const char c : key) {
          arena_owned_.push_back(
              c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c);
        }
      } else {
        arena_owned_.insert(arena_owned_.end(), key.begin(), key.end());
      }
      ends_owned_.push_back(static_cast<uint32_t>(arena_owned_.size()));
      return {id, true};
    }
    if (slot.tag == tag && KeyEquals<kFold>(this->key(slot.id), key)) {
      return {slot.id, false};
    }
  }
}

void FlatStringTable::Rehash(size_t capacity) {
  slots_owned_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < ends_owned_.size(); ++id) {
    // Stored bytes are already in their final (folded) form.
    const uint64_t hash = HashBytes<false>(key(id));
    size_t i = hash & mask;
    while (slots_owned_[i].id != kAbsent) i = (i + 1) & mask;
    slots_owned_[i] = {Tag(hash), id};
  }
}

}  // namespace unidetect
