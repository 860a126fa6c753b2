#include "serving/detection_service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "model_format/codec_internal.h"
#include "model_format/delta_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "util/checked.h"
#include "util/mmap_file.h"
#include "util/string_util.h"

namespace unidetect {

DetectionService::DetectionService(std::shared_ptr<const Model> model,
                                   UniDetectOptions options,
                                   uint64_t findings_cache_bytes)
    : DetectionService(std::move(model), /*base_path=*/std::string(),
                       /*base_id=*/0, std::move(options),
                       findings_cache_bytes) {}

DetectionService::DetectionService(std::shared_ptr<const Model> base,
                                   std::string base_path, uint64_t base_id,
                                   UniDetectOptions options,
                                   uint64_t findings_cache_bytes)
    : options_(std::move(options)), cache_(findings_cache_bytes) {
  auto stack = std::make_shared<const ModelStack>(
      std::vector<std::shared_ptr<const Model>>{std::move(base)});
  MutexLock lock(&mu_);
  engine_ = std::make_shared<const Engine>(
      std::move(stack), std::vector<std::string>{std::move(base_path)},
      std::vector<uint64_t>{base_id}, /*generation_in=*/1);
}

namespace {

// A published artifact, mapped once: its identity is read from the same
// bytes its model is decoded from, so a rename between the checks and
// the decode cannot make the service vouch for one file and serve
// another.
struct MappedArtifact {
  std::shared_ptr<MmapRegion> region;
  SnapshotIdentity identity;
};

Result<MappedArtifact> MapArtifact(const std::string& path) {
  UNIDETECT_ASSIGN_OR_RETURN(MmapRegion region, MmapRegion::Map(path));
  MappedArtifact artifact;
  artifact.region = std::make_shared<MmapRegion>(std::move(region));
  UNIDETECT_ASSIGN_OR_RETURN(artifact.identity,
                             SnapshotIdentityOf(artifact.region->bytes()));
  return artifact;
}

// Deferred validation skips the bulk payloads' CRC: their pages are not
// read until queries fault them in.
Result<std::shared_ptr<const Model>> DecodeArtifact(MappedArtifact artifact) {
  auto model = ModelFromSnapshotRegion(std::move(artifact.region),
                                       SnapshotValidation::kDeferPayload);
  if (!model.ok()) return model.status();
  return std::make_shared<const Model>(std::move(model).ValueOrDie());
}

}  // namespace

Result<std::unique_ptr<DetectionService>> DetectionService::Create(
    const std::string& model_path, UniDetectOptions options,
    uint64_t findings_cache_bytes) {
  auto artifact = MapArtifact(model_path);
  if (!artifact.ok()) return artifact.status();
  if (artifact->identity.manifest.has_value()) {
    return Status::InvalidArgument(
        StrCat("Create: ", model_path,
               " is a delta artifact; a service must start from a base "
               "(apply deltas with ApplyDelta)"));
  }
  const uint64_t artifact_id = artifact->identity.artifact_id;
  auto model = DecodeArtifact(std::move(artifact).ValueOrDie());
  if (!model.ok()) return model.status();
  return std::unique_ptr<DetectionService>(new DetectionService(
      std::move(model).ValueOrDie(), model_path, artifact_id,
      std::move(options), findings_cache_bytes));
}

Status DetectionService::Reload(const std::string& path) {
  return ReloadInternal(path, /*expected=*/-1);
}

Status DetectionService::ReloadIfGeneration(const std::string& path,
                                            uint64_t expected) {
  return ReloadInternal(path, static_cast<int64_t>(expected));
}

Status DetectionService::ReloadInternal(const std::string& path,
                                        int64_t expected) {
  const auto start = std::chrono::steady_clock::now();
  // Map, identity, decode and engine construction happen with no lock
  // held: the current snapshot keeps serving while the replacement is
  // prepared, and a failed load never disturbs it.
  auto artifact = MapArtifact(path);
  if (artifact.ok() && artifact->identity.manifest.has_value()) {
    artifact = Status::InvalidArgument(
        StrCat("Reload: ", path,
               " is a delta artifact and only means something stacked on "
               "the chain it names; use ApplyDelta"));
  }
  if (!artifact.ok()) {
    MutexLock lock(&stats_mu_);
    ++failed_reloads_;
    return artifact.status();
  }
  const uint64_t artifact_id = artifact->identity.artifact_id;
  auto model = DecodeArtifact(std::move(artifact).ValueOrDie());
  if (!model.ok()) {
    MutexLock lock(&stats_mu_);
    ++failed_reloads_;
    return model.status();
  }
  auto stack = std::make_shared<const ModelStack>(
      std::vector<std::shared_ptr<const Model>>{
          std::move(model).ValueOrDie()});
  size_t retired_deltas = 0;
  {
    MutexLock lock(&mu_);
    if (expected >= 0 &&
        engine_->generation != static_cast<uint64_t>(expected)) {
      // Benign compare-and-swap failure: the chain moved (a delta landed
      // or another reload won) between the caller's Layers() snapshot
      // and now. Not a failed reload — the caller refreshes and retries.
      return Status::AlreadyExists(
          StrCat("Reload: generation moved to ", engine_->generation,
                 " (expected ", expected, "); chain changed underfoot"));
    }
    retired_deltas = engine_->layer_ids.size() - 1;
    // The old engine is released here; it stays alive until the last
    // in-flight batch that pinned it drops its reference (for a mapped
    // model, that release is also the munmap).
    engine_ = std::make_shared<const Engine>(
        std::move(stack), std::vector<std::string>{path},
        std::vector<uint64_t>{artifact_id}, engine_->generation + 1);
  }
  {
    // Invalidate memoized findings: they belong to the retired
    // generation. (Keys also carry the generation, so a straggler batch
    // still inserting old-generation entries can never poison lookups
    // against the new model — those entries just age out.)
    MutexLock lock(&cache_mu_);
    cache_.Clear();
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  MutexLock lock(&stats_mu_);
  ++reloads_;
  if (retired_deltas > 0) ++compactions_;
  ++reload_latency_buckets_[LatencyBucketIndex(micros)];
  return Status::OK();
}

Status DetectionService::ApplyDelta(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  // Map, identity and decode run off-lock, same as Reload. The chain
  // checks run under the swap lock against the engine actually being
  // extended.
  auto artifact = MapArtifact(path);
  if (artifact.ok() && !artifact->identity.manifest.has_value()) {
    artifact = Status::InvalidArgument(
        StrCat("ApplyDelta: ", path,
               " carries no delta manifest — it is a base snapshot; use "
               "Reload"));
  }
  if (!artifact.ok()) return artifact.status();
  const SnapshotIdentity identity = artifact->identity;
  const DeltaManifest& manifest = *identity.manifest;
  auto decoded = DecodeArtifact(std::move(artifact).ValueOrDie());
  if (!decoded.ok()) return decoded.status();
  std::shared_ptr<const Model> delta = std::move(decoded).ValueOrDie();
  {
    MutexLock lock(&mu_);
    const std::vector<uint64_t>& ids = engine_->layer_ids;
    if (ids.front() == 0) {
      return Status::InvalidArgument(
          "ApplyDelta: the served base has no artifact id (an in-memory "
          "model); deltas chain only onto UDSNAP bases");
    }
    if (manifest.base_id != ids.front()) {
      return Status::InvalidArgument(
          StrCat("ApplyDelta: delta chains to base ", manifest.base_id,
                 " but the service is serving base ", ids.front()));
    }
    if (manifest.parent_id != ids.back()) {
      return Status::InvalidArgument(
          StrCat("ApplyDelta: delta expects parent ", manifest.parent_id,
                 " but the top of the served chain is ", ids.back(),
                 " (delta applied out of order, or already applied)"));
    }
    if (manifest.depth != ids.size()) {
      return Status::InvalidArgument(
          StrCat("ApplyDelta: delta is layer ", manifest.depth,
                 " of its chain but the service is serving ", ids.size(),
                 " layers"));
    }
    // Layers must agree on the learning options: LR arithmetic reads
    // them from the base, so a delta trained under different knobs would
    // silently change what its counts mean. Byte-compare the canonical
    // options payload rather than chasing field-by-field drift.
    if (snapshot_internal::EncodeOptionsPayload(delta->options()) !=
        snapshot_internal::EncodeOptionsPayload(
            engine_->stack->base().options())) {
      return Status::InvalidArgument(
          "ApplyDelta: delta was trained under different model options "
          "than the served base");
    }
    // Token counts are summed across layers. Decode bounds each layer's
    // counts by its table count, so a chain whose table counts sum
    // without overflow cannot wrap a summed count either.
    uint64_t tables = delta->token_index().num_tables();
    const ModelStack& served = *engine_->stack;
    for (size_t i = 0; i < served.num_layers(); ++i) {
      const uint64_t layer_tables = served.layer(i).token_index().num_tables();
      UNIDETECT_ASSIGN_OR_RETURN(
          tables, CheckedAdd<uint64_t>(tables, layer_tables,
                                       "token index table count across the "
                                       "chain"));
    }
    auto stack = std::make_shared<const ModelStack>(
        engine_->stack->WithDelta(std::move(delta)));
    std::vector<std::string> paths = engine_->layer_paths;
    std::vector<uint64_t> new_ids = ids;
    paths.push_back(path);
    new_ids.push_back(identity.artifact_id);
    // No cache clear: keys embed the generation, so warm entries simply
    // stop matching and age out — the swap stays O(1) beyond the delta
    // open itself.
    engine_ = std::make_shared<const Engine>(
        std::move(stack), std::move(paths), std::move(new_ids),
        engine_->generation + 1);
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  MutexLock lock(&stats_mu_);
  ++applied_deltas_;
  ++reload_latency_buckets_[LatencyBucketIndex(micros)];
  return Status::OK();
}

std::shared_ptr<const Dictionary> DetectionService::Engine::SharedDictionary(
    uint64_t min_table_count) const {
  MutexLock lock(&dictionary_mu);
  if (dictionary == nullptr) {
    dictionary = std::make_shared<const Dictionary>(
        Dictionary::FromTokenPrevalence(stack->token_prevalence(),
                                        min_table_count));
  }
  return dictionary;
}

std::shared_ptr<const DetectionService::Engine> DetectionService::Snapshot()
    const {
  MutexLock lock(&mu_);
  return engine_;
}

DetectionService::BatchResult DetectionService::DetectBatch(
    std::span<const Table> tables,
    const UniDetectOptions* override_options) const {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const Engine> engine = Snapshot();

  // A facade holds only shared pointers and options, so each request
  // builds its own against the pinned engine. The +Dict dictionary is the
  // costly part: it comes from the engine, built once per generation,
  // unless an in-process override asks for another token threshold.
  const UniDetectOptions& effective =
      override_options != nullptr ? *override_options : options_;
  std::shared_ptr<const Dictionary> dictionary;
  if (effective.use_dictionary && effective.dictionary_min_table_count ==
                                      options_.dictionary_min_table_count) {
    dictionary = engine->SharedDictionary(options_.dictionary_min_table_count);
  }
  const UniDetect detector(engine->stack, effective, std::move(dictionary));

  BatchResult result;
  result.generation = engine->generation;
  result.per_table.resize(tables.size());

  // Findings-cache probe: fingerprint every table against the pinned
  // generation and effective options, answer hits from the cache, and
  // narrow detection to the misses. Hit results are byte-identical to
  // re-detection — DetectTable is a pure function of the key's inputs.
  std::vector<Key128> keys;
  std::vector<size_t> todo;  // table indices needing detection
  const bool use_cache = cache_.enabled();
  if (use_cache) {
    keys.resize(tables.size());
    for (size_t i = 0; i < tables.size(); ++i) {
      keys[i] = FingerprintTable(tables[i], engine->generation, effective);
    }
    MutexLock lock(&cache_mu_);
    for (size_t i = 0; i < tables.size(); ++i) {
      if (auto cached = cache_.Lookup(keys[i])) {
        result.per_table[i] = *std::move(cached);
      } else {
        todo.push_back(i);
      }
    }
  } else {
    todo.resize(tables.size());
    for (size_t i = 0; i < tables.size(); ++i) todo[i] = i;
  }

  for (const size_t i : todo) {
    result.per_table[i] = detector.DetectTable(tables[i]);
  }

  if (use_cache && !todo.empty()) {
    MutexLock lock(&cache_mu_);
    for (const size_t i : todo) cache_.Insert(keys[i], result.per_table[i]);
  }

  uint64_t found = 0;
  for (const auto& per_table : result.per_table) found += per_table.size();
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  {
    MutexLock lock(&stats_mu_);
    ++requests_;
    tables_ += tables.size();
    findings_ += found;
    ++latency_buckets_[LatencyBucketIndex(micros)];
  }
  return result;
}

uint64_t DetectionService::generation() const {
  return Snapshot()->generation;
}

DetectionService::LayerSet DetectionService::Layers() const {
  const std::shared_ptr<const Engine> engine = Snapshot();
  LayerSet layers;
  layers.paths = engine->layer_paths;
  layers.ids = engine->layer_ids;
  layers.generation = engine->generation;
  return layers;
}

ServiceStats DetectionService::Stats() const {
  ServiceStats stats;
  LatencyBuckets buckets;
  LatencyBuckets reload_buckets;
  uint64_t reload_samples = 0;
  {
    // One coherent cut: all three locks are held together for the
    // copy-out, so the engine gauges, cache counters and histograms
    // describe the same instant (a reload landing mid-Stats can no
    // longer show the new generation next to the old reload count).
    // Fixed acquisition order mu_ -> cache_mu_ -> stats_mu_; no other
    // code path holds any two of these at once, so the nesting cannot
    // deadlock. All three critical sections are short copies — the
    // percentile math runs after release.
    MutexLock engine_lock(&mu_);
    MutexLock cache_lock(&cache_mu_);
    MutexLock stats_lock(&stats_mu_);

    stats.generation = engine_->generation;
    const ModelStack& stack = *engine_->stack;
    stats.model_resident_bytes = stack.base().ApproxResidentBytes();
    stats.model_mapped_bytes = stack.base().mapped_bytes();
    stats.delta_layers = stack.num_layers() - 1;
    for (size_t i = 1; i < stack.num_layers(); ++i) {
      stats.delta_resident_bytes +=
          stack.layer(i).ApproxResidentBytes() + stack.layer(i).mapped_bytes();
    }

    const FindingsCache::Stats cache = cache_.stats();
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
    stats.cache_evictions = cache.evictions;
    stats.cache_resident_bytes = cache.resident_bytes;
    stats.cache_entries = cache.entries;
    if (cache.hits + cache.misses > 0) {
      stats.cache_hit_rate = static_cast<double>(cache.hits) /
                             static_cast<double>(cache.hits + cache.misses);
    }

    stats.requests = requests_;
    stats.tables = tables_;
    stats.findings = findings_;
    stats.reloads = reloads_;
    stats.failed_reloads = failed_reloads_;
    stats.applied_deltas = applied_deltas_;
    stats.compactions = compactions_;
    buckets = latency_buckets_;
    reload_buckets = reload_latency_buckets_;
    reload_samples = reloads_ + applied_deltas_;
  }
  if (stats.requests > 0) {
    stats.latency_p50_us =
        LatencyPercentileUpperBound(buckets, stats.requests, 0.50);
    stats.latency_p99_us =
        LatencyPercentileUpperBound(buckets, stats.requests, 0.99);
    stats.latency_p999_us =
        LatencyPercentileUpperBound(buckets, stats.requests, 0.999);
  }
  if (reload_samples > 0) {
    stats.reload_latency_p50_us =
        LatencyPercentileUpperBound(reload_buckets, reload_samples, 0.50);
    stats.reload_latency_p99_us =
        LatencyPercentileUpperBound(reload_buckets, reload_samples, 0.99);
  }
  return stats;
}

}  // namespace unidetect
