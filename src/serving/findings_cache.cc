#include "serving/findings_cache.h"

#include <bit>
#include <string_view>

namespace unidetect {

namespace {

// A 128-bit streaming mix built from two decorrelated 64-bit FNV-1a
// lanes plus a final avalanche. Not cryptographic — it only needs to
// make accidental collisions between distinct table contents vanishingly
// unlikely, deterministically across platforms and runs.
struct Mix128 {
  uint64_t a = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  uint64_t b = 0x6c62272e07bb0142ULL;  // high half of the 128-bit basis

  void Byte(uint8_t byte) {
    a = (a ^ byte) * 0x100000001b3ULL;  // FNV-1a prime
    b = (b ^ byte) * 0x00000100000001b3ULL + 0x9e3779b97f4a7c15ULL;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (i * 8)));
  }
  void Double(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    // Length framing first: "ab" + "c" must not collide with "a" + "bc".
    U64(s.size());
    for (const char c : s) Byte(static_cast<uint8_t>(c));
  }

  Key128 Final() const {
    // fmix64 avalanche on each lane, cross-fed so the halves diverge
    // even for short inputs.
    auto avalanche = [](uint64_t x) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 33;
      x *= 0xc4ceb9fe1a85ec53ULL;
      x ^= x >> 33;
      return x;
    };
    const uint64_t ha = avalanche(a ^ (b << 1));
    const uint64_t hb = avalanche(b ^ ha);
    return Key128{ha, hb};
  }
};

void MixColumn(Mix128* mix, const Column& column) {
  mix->Str(column.name());
  mix->U64(column.size());
  for (const std::string& cell : column.cells()) mix->Str(cell);
}

}  // namespace

Key128 FingerprintColumn(const Column& column) {
  Mix128 mix;
  MixColumn(&mix, column);
  return mix.Final();
}

Key128 FingerprintTable(const Table& table, uint64_t generation,
                        const UniDetectOptions& options) {
  Mix128 mix;
  mix.U64(generation);
  // Every option that can steer DetectTable output is part of the key.
  // fdr_q is not: only DetectCorpus reads it.
  mix.Double(options.alpha);
  mix.U64(options.detect.size());
  for (const bool enabled : options.detect) mix.Byte(enabled ? 1 : 0);
  mix.Double(options.pattern_pmi_threshold);
  mix.Byte(options.use_dictionary ? 1 : 0);
  mix.U64(options.dictionary_min_table_count);
  mix.U64(options.max_fd_pairs_per_table);
  // Findings embed the table name, so two tables with identical columns
  // but different names must key differently.
  mix.Str(table.name());
  mix.U64(table.num_columns());
  for (const Column& column : table.columns()) MixColumn(&mix, column);
  return mix.Final();
}

namespace {

uint64_t FindingBytes(const Finding& finding) {
  return sizeof(Finding) + finding.table_name.capacity() +
         finding.value.capacity() + finding.explanation.capacity() +
         finding.rows.capacity() * sizeof(size_t);
}

uint64_t EntryBytes(const std::vector<Finding>& findings) {
  // Approximate but deterministic: struct + heap payloads per finding,
  // plus fixed list/map node overhead for the entry itself.
  constexpr uint64_t kEntryOverhead = 128;
  uint64_t bytes = kEntryOverhead + findings.capacity() * sizeof(Finding);
  for (const Finding& finding : findings) {
    bytes += FindingBytes(finding) - sizeof(Finding);
  }
  return bytes;
}

}  // namespace

std::optional<std::vector<Finding>> FindingsCache::Lookup(const Key128& key) {
  if (!enabled()) return std::nullopt;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->findings;
}

void FindingsCache::Insert(const Key128& key,
                           const std::vector<Finding>& findings) {
  if (!enabled()) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Re-detection of a cached table (e.g. its entry was looked up by a
    // racing batch after this one missed): identical value by
    // construction, just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  const uint64_t bytes = EntryBytes(findings);
  if (bytes > max_bytes_) return;  // would evict everything else for one entry
  lru_.push_front(Entry{key, findings, bytes});
  index_.emplace(key, lru_.begin());
  resident_bytes_ += bytes;
  EvictToBound();
}

void FindingsCache::EvictToBound() {
  while (resident_bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& cold = lru_.back();
    resident_bytes_ -= cold.bytes;
    index_.erase(cold.key);
    lru_.pop_back();
    ++evictions_;
  }
}

void FindingsCache::Clear() {
  lru_.clear();
  index_.clear();
  resident_bytes_ = 0;
}

FindingsCache::Stats FindingsCache::stats() const {
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.resident_bytes = resident_bytes_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace unidetect
