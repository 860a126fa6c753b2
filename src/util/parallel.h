// Fork/join data parallelism for the corpus passes.
//
// The paper crunches the corpus with MapReduce-like jobs: map over the
// tables, then reduce the partials. Every such job here is one ForkJoin
// call. It starts its workers, runs them, and joins them all before it
// returns, so no thread outlives the call and nothing queues between the
// caller and its workers. ForkJoin is the only place in the library that
// starts threads for data parallelism; how work is handed out (an atomic
// next-item counter, a mutex-guarded cursor, contiguous shards) stays
// with the caller. ParallelFor is the contiguous split on top of it, for
// callers that derive per-shard state (a partial model, a forked Rng)
// from the shard index.

#pragma once

#include <cstddef>
#include <functional>

namespace unidetect {

/// \brief Workers a fork/join over `work` items runs: `num_threads`
/// (0 means std::thread::hardware_concurrency()) capped at `work`, so no
/// worker starts without an item to take. 0 when `work` is 0.
size_t ForkJoinWorkers(size_t num_threads, size_t work);

/// \brief Runs worker(w) for every w in [0, ForkJoinWorkers(num_threads,
/// work)) and returns once all of them have finished. Worker 0 runs on
/// the calling thread and workers 1..k-1 each on a thread of their own;
/// with one worker no thread is started. If workers throw, the exception
/// of the lowest-numbered one is rethrown after all have been joined.
void ForkJoin(size_t num_threads, size_t work,
              const std::function<void(size_t worker)>& worker);

/// \brief Runs fn(shard, begin, end) over [0, n) split into contiguous
/// shards of ceil(n / k) items, k = ForkJoinWorkers(num_threads, n); the
/// last shard takes the remainder and a shard that would be empty is not
/// run. Shard boundaries depend only on (n, num_threads), so callers can
/// derive deterministic per-shard state from `shard`.
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t shard, size_t begin,
                                          size_t end)>& fn);

}  // namespace unidetect
