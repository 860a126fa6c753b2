// FindingsCache: the serving tier's fingerprint -> findings memo
// (DESIGN.md §13). At corpus scale the common case is the same table
// text arriving again and again; detection is pure given (model
// generation, effective options, table content), so the service can key
// a table's ranked findings by a content fingerprint and skip the
// detectors entirely on a repeat.
//
// Determinism: the cache is insertion/LRU-ordered — eviction follows the
// recency list, never iteration order of a hash map (and never pointer
// keys, which the determinism linter rejects). A batch that hits the
// cache returns byte-identical findings to the batch that populated it:
// DetectTable output for one table depends on nothing outside the key.
//
// Invalidation: the model generation is folded into every key AND the
// service clears the cache on a successful Reload. The clear bounds
// memory; the generation in the key makes in-flight inserts from a
// batch that pinned the previous engine harmless (their entries can
// never match a lookup against the new generation).

#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "detect/finding.h"
#include "detect/unidetect.h"
#include "table/table.h"

namespace unidetect {

/// \brief A 128-bit content fingerprint. Wide enough that accidental
/// collisions are negligible at any realistic cache population (the
/// cache serves correctness-sensitive reuse, so 64 bits would be
/// uncomfortably small at "millions of users" request volume).
struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
  bool operator==(const Key128&) const = default;
};

struct Key128Hash {
  size_t operator()(const Key128& key) const {
    // The halves are already well-mixed; fold them asymmetrically.
    return static_cast<size_t>(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// \brief Fingerprint of one column's name + cell contents (framed, so
/// cell boundaries are part of the hash).
Key128 FingerprintColumn(const Column& column);

/// \brief Full cache key for one table under one serving configuration:
/// model generation + effective options + table name + every column
/// fingerprint.
Key128 FingerprintTable(const Table& table, uint64_t generation,
                        const UniDetectOptions& options);

/// \brief Byte-bounded LRU map from Key128 to a table's ranked findings.
///
/// Not thread-safe; the owner serializes access (DetectionService holds
/// it behind its own mutex). A max_bytes of 0 disables the cache:
/// Lookup always misses without counting, Insert is a no-op.
class FindingsCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;       ///< entries evicted by the byte bound
    uint64_t resident_bytes = 0;  ///< approximate bytes currently held
    uint64_t entries = 0;
  };

  explicit FindingsCache(uint64_t max_bytes) : max_bytes_(max_bytes) {}

  bool enabled() const { return max_bytes_ > 0; }

  /// \brief Returns the cached findings and refreshes the entry's
  /// recency, or nullopt on a miss. Counts a hit or miss (only when
  /// enabled).
  std::optional<std::vector<Finding>> Lookup(const Key128& key);

  /// \brief Inserts (or refreshes) an entry, then evicts from the cold
  /// end of the recency list until the byte bound holds. An entry larger
  /// than the whole budget is not inserted (it could only thrash).
  void Insert(const Key128& key, const std::vector<Finding>& findings);

  /// \brief Drops every entry (Reload invalidation). Cumulative
  /// hit/miss/eviction counters survive; resident bytes drop to zero.
  void Clear();

  Stats stats() const;

 private:
  struct Entry {
    Key128 key;
    std::vector<Finding> findings;
    uint64_t bytes = 0;
  };

  void EvictToBound();

  const uint64_t max_bytes_;
  // Recency list, most-recent first; the map indexes into it. Eviction
  // pops from the back, so the order entries leave the cache is a pure
  // function of the lookup/insert sequence.
  std::list<Entry> lru_;
  std::unordered_map<Key128, std::list<Entry>::iterator, Key128Hash> index_;
  uint64_t resident_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace unidetect
