// FlatStringTable: an open-addressing map from a string to a dense id.
//
// Ids are 0, 1, 2, ... in first-insertion order, so a table doubles as
// a dictionary encoder (EncodeColumn's codes are its ids + 1) and as the
// key store of an index whose values live in a vector beside it (the
// TokenIndex counts). Key bytes sit back to back in one arena; each slot
// holds an id and a 32-bit hash tag, and keys are compared by bytes
// only when the tags match. Probing is linear over a power-of-two slot
// array kept at most 3/4 full.
//
// The *AsciiLower entry points hash and compare the ASCII-lowercase form
// of their argument a word at a time, without materializing it: a
// case-folded lookup of a token costs no allocation (DESIGN.md section
// 17.1). The hash is fixed (no per-process seed), so ids, probe order
// and everything built on them are deterministic.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace unidetect {

class FlatStringTable {
 public:
  /// Find's answer for a key that is not in the table.
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  FlatStringTable() = default;

  /// \brief Sizes the table for `keys` keys holding `bytes` key bytes in
  /// total, so that inserting them never rehashes or regrows the arena.
  void Reserve(size_t keys, size_t bytes = 0);

  size_t size() const { return ends_.size(); }

  /// \brief The bytes of key `id` (id < size()). Stable until the next
  /// insertion.
  std::string_view key(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_).substr(begin, ends_[id] - begin);
  }

  /// \brief Inserts `key` if absent. Returns its id and whether it is new.
  std::pair<uint32_t, bool> Insert(std::string_view key);

  /// \brief Inserts AsciiLower(key) if absent (the stored bytes are the
  /// lowercase form). Returns its id and whether it is new.
  std::pair<uint32_t, bool> InsertAsciiLower(std::string_view key);

  /// \brief The hash FindAsciiLower expects: that of AsciiLower(key).
  /// Computing it once lets a caller probe several tables per token.
  static uint64_t HashAsciiLower(std::string_view key);

  /// \brief The id of the key equal to AsciiLower(key), or kAbsent.
  /// `hash` must be HashAsciiLower(key).
  uint32_t FindAsciiLower(std::string_view key, uint64_t hash) const;

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = kAbsent;  // kAbsent marks an empty slot
  };

  template <bool kFold>
  std::pair<uint32_t, bool> InsertImpl(std::string_view key);
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;   // power-of-two size, or empty
  std::string arena_;         // every key's bytes, in id order
  std::vector<size_t> ends_;  // ends_[id]: one past key id's last byte
};

}  // namespace unidetect
