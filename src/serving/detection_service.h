// DetectionService: the serving tier over the UniDetect engine.
//
// The service owns the model behind an immutable snapshot
// (std::shared_ptr<const Engine>): every request pins the snapshot it
// started with, Reload() builds a replacement off to the side and swaps
// the pointer on success, and the old model drains naturally when the
// last in-flight batch releases its reference. No request ever observes
// a half-swapped model, and a failed reload leaves the service exactly
// as it was.
//
// The engine serves a layered ModelStack (DESIGN.md §15): an immutable
// base snapshot plus zero or more delta layers, each a small UDSNAP
// artifact trained over only the new corpus shards. ApplyDelta() swaps
// in a new engine layering one more delta after verifying the delta's
// manifest chains onto the currently served layers by content hash;
// Reload() swaps full bases (and refuses deltas, as ApplyDelta refuses
// bases). ReloadIfGeneration() is the compare-and-swap variant the
// background compactor uses so a compacted base never clobbers layers
// it did not fold.
//
// Detection results are deterministic: a batch is scanned table by
// table on the calling thread (UniDetect::DetectCorpus is the parallel
// batch path) and carries no wall-clock values. Latency is
// observed only in ServiceStats, as a fixed power-of-two-microsecond
// histogram from which p50/p99 upper bounds are derived.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "detect/finding.h"
#include "detect/unidetect.h"
#include "learn/model.h"
#include "learn/model_stack.h"
#include "serving/findings_cache.h"
#include "table/table.h"
#include "util/latency_histogram.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace unidetect {

/// \brief A point-in-time copy of the service counters.
struct ServiceStats {
  uint64_t requests = 0;        ///< DetectBatch calls served.
  uint64_t tables = 0;          ///< Tables scanned across all batches.
  uint64_t findings = 0;        ///< Findings returned across all batches.
  uint64_t reloads = 0;         ///< Successful full-base swaps.
  uint64_t failed_reloads = 0;  ///< Reload attempts that changed nothing.
  uint64_t generation = 0;      ///< Generation of the currently served model.
  /// Successful ApplyDelta swaps since construction (a counter — it does
  /// not drop when a compaction folds the layers away).
  uint64_t applied_deltas = 0;
  /// Full-base swaps that retired at least one delta layer — i.e. the
  /// chain was folded into a fresh base, whether by the background
  /// compactor (ReloadIfGeneration) or an operator Reload.
  uint64_t compactions = 0;
  /// Delta layers currently stacked above the base (0 = just the base).
  uint64_t delta_layers = 0;
  /// Total bytes (private heap + file-backed mapping) held by the delta
  /// layers; 0 when serving a bare base. The base's own storage stays in
  /// model_resident_bytes / model_mapped_bytes.
  uint64_t delta_resident_bytes = 0;
  /// Per-request latency percentile upper bounds, in microseconds, read
  /// off the power-of-two histogram (0 when no requests yet). Upper
  /// bounds, not interpolations: p50 = 256 means half the requests took
  /// under 256us.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  /// Successful-Reload latency percentile upper bounds (load + swap), in
  /// microseconds, from their own power-of-two histogram. On the
  /// mmap path this stays flat as models grow — the whole point of the
  /// zero-copy snapshot layout. ApplyDelta swaps feed the same
  /// histogram: both are engine replacements, and the delta open cost
  /// is O(delta index), not O(base).
  double reload_latency_p50_us = 0.0;
  double reload_latency_p99_us = 0.0;
  /// Storage gauges of the currently served *base* layer: private heap
  /// bytes vs file-backed mapped bytes (page-cache shared across
  /// processes). An owned model reports mapped = 0; a mapped model
  /// keeps resident near zero.
  uint64_t model_resident_bytes = 0;
  uint64_t model_mapped_bytes = 0;
  /// Findings-cache counters (all zero when the cache is disabled):
  /// cumulative hits/misses/evictions since construction, current
  /// approximate resident bytes, and hits / (hits + misses) (0 before
  /// the first lookup).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_resident_bytes = 0;
  uint64_t cache_entries = 0;
  double cache_hit_rate = 0.0;
};

/// \brief Serves detection requests over a hot-swappable model.
class DetectionService {
 public:
  /// \brief One DetectBatch response: findings per input table (same
  /// order and cardinality as the request), each ranked most-confident
  /// first, plus the generation of the model snapshot that served it.
  struct BatchResult {
    std::vector<std::vector<Finding>> per_table;
    uint64_t generation = 0;
  };

  /// \brief The layer chain currently serving: `paths[i]` / `ids[i]` for
  /// layer i (0 = base, ascending deltas above), plus the generation the
  /// chain was captured at. A service constructed from an in-memory
  /// model reports one layer with an empty path and id 0; such a chain
  /// accepts no deltas and cannot be compacted from files.
  struct LayerSet {
    std::vector<std::string> paths;
    std::vector<uint64_t> ids;
    uint64_t generation = 0;
  };

  /// Takes shared ownership of `model` (generation 1). `options` are the
  /// serving defaults applied to every request without an override.
  /// `findings_cache_bytes` bounds the fingerprint -> findings cache
  /// (serving/findings_cache.h); 0 — the default, so cold-path behavior
  /// and benchmarks are unchanged — disables it.
  explicit DetectionService(std::shared_ptr<const Model> model,
                            UniDetectOptions options = {},
                            uint64_t findings_cache_bytes = 0);

  /// \brief Builds a service from a UDSNAP snapshot, mapped once and
  /// decoded zero-copy from the mapping its identity was read from.
  /// Anything else is Corruption; delta artifacts are refused: a service
  /// must start from a base.
  static Result<std::unique_ptr<DetectionService>> Create(
      const std::string& model_path, UniDetectOptions options = {},
      uint64_t findings_cache_bytes = 0);

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// \brief Atomically replaces the served layer chain with a single
  /// fresh base loaded from `path`. The load runs outside the swap lock
  /// — the current model keeps serving throughout — and the swap happens
  /// only on success; on failure the service is untouched and the error
  /// is returned. In-flight batches finish on the snapshot they started
  /// with; a retired mapped model unmaps its region when the last such
  /// batch drops its engine reference.
  ///
  /// Delta artifacts are refused (InvalidArgument): a delta only means
  /// something stacked on the chain it names — use ApplyDelta.
  ///
  /// Snapshots open in deferred-validation mode (structure and metadata
  /// CRCs only), so reload cost is O(index), independent of observation
  /// count. A file that is not a current-version UDSNAP snapshot is Corruption.
  Status Reload(const std::string& path) EXCLUDES(mu_, stats_mu_);

  /// \brief Reload() guarded by a generation check: the swap happens
  /// only if the served generation still equals `expected` once the
  /// replacement is ready. AlreadyExists when the generation moved —
  /// the benign compare-and-swap failure the compactor retries after
  /// refreshing its view of the chain (not counted as a failed reload).
  Status ReloadIfGeneration(const std::string& path, uint64_t expected)
      EXCLUDES(mu_, stats_mu_);

  /// \brief Atomically stacks the delta artifact at `path` on top of the
  /// served chain. The artifact must carry a delta manifest whose
  /// base/parent/depth match the chain exactly (base_id == layer 0's id,
  /// parent_id == the top layer's id, depth == current layer count) and
  /// whose model options byte-match the base's — anything else is
  /// refused with InvalidArgument and the service is untouched.
  ///
  /// On success the generation bumps, so findings-cache keys (which
  /// embed the generation) self-invalidate: warm entries miss against
  /// the new chain and age out of the LRU naturally.
  Status ApplyDelta(const std::string& path) EXCLUDES(mu_, stats_mu_);

  /// \brief Scans `tables` on the calling thread and returns per-table
  /// ranked findings. `override_options`, when non-null, replaces the
  /// serving defaults for this request only.
  BatchResult DetectBatch(
      std::span<const Table> tables,
      const UniDetectOptions* override_options = nullptr) const
      EXCLUDES(mu_, stats_mu_);

  /// \brief The serving defaults every request without an override
  /// runs under, and the base a per-request override is applied over.
  const UniDetectOptions& options() const { return options_; }

  /// \brief Generation of the model currently serving (starts at 1,
  /// +1 per successful Reload or ApplyDelta).
  uint64_t generation() const EXCLUDES(mu_);

  /// \brief Snapshot of the served layer chain (paths, artifact ids,
  /// generation), taken atomically against swaps.
  LayerSet Layers() const EXCLUDES(mu_);

  /// \brief A coherent point-in-time snapshot: every counter, gauge and
  /// percentile describes the same instant (all three internal locks
  /// are held together for the copy-out — see the fixed acquisition
  /// order documented at the implementation).
  ServiceStats Stats() const EXCLUDES(mu_, stats_mu_);

  /// Number of power-of-two latency buckets (util/latency_histogram.h);
  /// bucket i counts requests with latency in [2^(i-1), 2^i)
  /// microseconds (bucket 0: < 1us).
  static constexpr size_t kLatencyBuckets = kLatencyHistogramBuckets;

 private:
  // Reads the served engine's +Dict dictionary without building it, so
  // tests can check that a generation builds it at most once.
  friend class DetectionServiceTestPeer;

  // An immutable layer chain snapshot; requests pin one via shared_ptr.
  // layer_paths/layer_ids run bottom-up: index 0 is the base, the last
  // entry is the newest delta.
  struct Engine {
    Engine(std::shared_ptr<const ModelStack> stack_in,
           std::vector<std::string> layer_paths_in,
           std::vector<uint64_t> layer_ids_in, uint64_t generation_in)
        : stack(std::move(stack_in)),
          layer_paths(std::move(layer_paths_in)),
          layer_ids(std::move(layer_ids_in)),
          generation(generation_in) {}

    // The +Dict dictionary over `stack`: built by the first request that
    // asks for it, then shared by every later one, so a served
    // generation builds it at most once. Every caller passes the serving
    // defaults' `min_table_count`; a later call returns the dictionary
    // the first one built.
    std::shared_ptr<const Dictionary> SharedDictionary(
        uint64_t min_table_count) const EXCLUDES(dictionary_mu);

    std::shared_ptr<const ModelStack> stack;
    std::vector<std::string> layer_paths;
    std::vector<uint64_t> layer_ids;
    uint64_t generation;
    mutable Mutex dictionary_mu;
    mutable std::shared_ptr<const Dictionary> dictionary
        GUARDED_BY(dictionary_mu);
  };

  DetectionService(std::shared_ptr<const Model> base, std::string base_path,
                   uint64_t base_id, UniDetectOptions options,
                   uint64_t findings_cache_bytes);

  // Shared body of Reload / ReloadIfGeneration; `expected` < 0 means
  // unconditional.
  Status ReloadInternal(const std::string& path, int64_t expected)
      EXCLUDES(mu_, stats_mu_);

  std::shared_ptr<const Engine> Snapshot() const EXCLUDES(mu_);

  const UniDetectOptions options_;  // serving defaults; immutable

  mutable Mutex mu_;
  std::shared_ptr<const Engine> engine_ GUARDED_BY(mu_);

  // The findings cache sits behind its own mutex: lookups/inserts are
  // short map-and-splice operations, and keeping them off stats_mu_ and
  // mu_ means a cache hit never contends with a reload swap.
  mutable Mutex cache_mu_;
  mutable FindingsCache cache_ GUARDED_BY(cache_mu_);

  mutable Mutex stats_mu_;
  mutable uint64_t requests_ GUARDED_BY(stats_mu_) = 0;
  mutable uint64_t tables_ GUARDED_BY(stats_mu_) = 0;
  mutable uint64_t findings_ GUARDED_BY(stats_mu_) = 0;
  mutable uint64_t reloads_ GUARDED_BY(stats_mu_) = 0;
  mutable uint64_t failed_reloads_ GUARDED_BY(stats_mu_) = 0;
  mutable uint64_t applied_deltas_ GUARDED_BY(stats_mu_) = 0;
  mutable uint64_t compactions_ GUARDED_BY(stats_mu_) = 0;
  mutable LatencyBuckets latency_buckets_ GUARDED_BY(stats_mu_) = {};
  mutable LatencyBuckets reload_latency_buckets_ GUARDED_BY(stats_mu_) = {};
};

}  // namespace unidetect
