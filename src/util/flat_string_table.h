// FlatStringTable: an open-addressing map from a string to a dense id.
//
// Ids are 0, 1, 2, ... in first-insertion order, so a table doubles as
// a dictionary encoder (EncodeColumn's codes are its ids + 1) and as the
// key store of an index whose values live in a vector beside it (the
// TokenIndex counts). Key bytes sit back to back in one arena; each slot
// holds an id and a 32-bit hash tag, and keys are compared by bytes
// only when the tags match. Probing is linear over a power-of-two slot
// array kept at most 3/4 full. A table holds fewer than 2^32 - 1 keys
// and at most 4 GiB of key bytes (ids and key ends are u32).
//
// The *AsciiLower entry points hash and compare the ASCII-lowercase form
// of their argument a word at a time, without materializing it: a
// case-folded lookup of a token costs no allocation (DESIGN.md section
// 17.1). The hash is fixed (no per-process seed), so ids, probe order
// and everything built on them are deterministic.
//
// Storage is owned (the vectors below, grown by Insert) or borrowed: a
// UDSNAP snapshot stores a token table's slot array, key ends and key
// bytes verbatim, and a mapped snapshot lends them to Borrow without a
// copy (model_format/snapshot_v2.h). Both forms answer lookups through
// the one probe loop. A borrowed table is read-only: Reserve and the
// insertions require an owned one.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace unidetect {

class FlatStringTable {
 public:
  /// Find's answer for a key that is not in the table.
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  /// One slot of the probe array, and its wire form in the snapshot's
  /// token section: two little-endian u32s.
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = kAbsent;  // kAbsent marks an empty slot
  };

  FlatStringTable() = default;

  /// \brief The slot count Reserve(keys) gives a fresh table: the
  /// smallest power of two, at least 16, that holds `keys` at the 3/4
  /// load bound.
  static size_t CapacityFor(size_t keys);

  /// \brief A read-only view of external arrays (a mapped snapshot
  /// section), which must outlive the table and every copy of it.
  /// `ends[id]` is one past key id's last byte in `arena`. Nothing is
  /// checked: call CheckSortedLower before the first lookup.
  static FlatStringTable Borrow(std::span<const Slot> slots,
                                std::string_view arena,
                                std::span<const uint32_t> ends);

  /// \brief The owned counterpart of Borrow (the decode that copies).
  static FlatStringTable Adopt(std::vector<Slot> slots,
                               std::vector<char> arena,
                               std::vector<uint32_t> ends);

  /// \brief Checks a table from untrusted arrays against the canonical
  /// form a snapshot stores, in O(size() + capacity()): a power-of-two
  /// capacity no smaller than CapacityFor(size()); exactly size()
  /// occupied slots, each id below size() and held by one slot, with at
  /// least one slot empty so a probe ends; key ends that rise strictly
  /// and end at the arena's end; and keys that are non-empty, ASCII-
  /// lowercase and strictly ascending by bytes (so ids are the keys'
  /// sorted rank and no key repeats). `verify_probes` additionally
  /// re-hashes every key and requires its probe to reach its own slot,
  /// tag and all, in O(arena bytes + probe lengths). Corruption names
  /// the first rule broken.
  Status CheckSortedLower(bool verify_probes) const;

  /// \brief Sizes the table for `keys` keys holding `bytes` key bytes in
  /// total, so that inserting them never rehashes or regrows the arena.
  void Reserve(size_t keys, size_t bytes = 0);

  size_t size() const { return ends().size(); }
  size_t capacity() const { return slots().size(); }

  /// \brief The bytes of key `id` (id < size()). Stable until the next
  /// insertion.
  std::string_view key(uint32_t id) const {
    return KeyIn(arena(), ends(), id);
  }

  /// \brief The probe array, the concatenated key bytes in id order and
  /// the key ends: the arrays the snapshot writer stores.
  std::span<const Slot> slots() const {
    return borrowed_ ? slots_view_ : std::span<const Slot>(slots_owned_);
  }
  std::string_view arena() const {
    return borrowed_ ? arena_view_
                     : std::string_view(arena_owned_.data(),
                                        arena_owned_.size());
  }
  std::span<const uint32_t> ends() const {
    return borrowed_ ? ends_view_ : std::span<const uint32_t>(ends_owned_);
  }

  /// \brief True when the arrays are borrowed (Borrow) rather than owned.
  bool borrowed() const { return borrowed_; }

  /// \brief Heap bytes owned by the table (0 when borrowed).
  uint64_t OwnedBytes() const;

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
  static std::string_view KeyIn(std::string_view arena,
                                std::span<const uint32_t> ends,
                                uint32_t id) {
    const uint32_t begin = id == 0 ? 0 : ends[id - 1];
    return arena.substr(begin, ends[id] - begin);
  }

  template <bool kFold>
  std::pair<uint32_t, bool> InsertImpl(std::string_view key);
  void Rehash(size_t capacity);

  // Owned storage; empty while borrowed_.
  std::vector<Slot> slots_owned_;   // power-of-two size, or empty
  std::vector<char> arena_owned_;   // every key's bytes, in id order
  std::vector<uint32_t> ends_owned_;  // ends[id]: one past key id's end
  // Borrowed storage; set only while borrowed_.
  std::span<const Slot> slots_view_;
  std::string_view arena_view_;
  std::span<const uint32_t> ends_view_;
  bool borrowed_ = false;
};

}  // namespace unidetect
