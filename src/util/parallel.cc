#include "util/parallel.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace unidetect {

size_t ForkJoinWorkers(size_t num_threads, size_t work) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(num_threads, work);
}

void ForkJoin(size_t num_threads, size_t work,
              const std::function<void(size_t)>& worker) {
  const size_t workers = ForkJoinWorkers(num_threads, work);
  if (workers == 0) return;
  // An exception a worker throws is held until every worker has been
  // joined, then the lowest-numbered one is rethrown on the caller, as a
  // serial loop would have thrown it.
  std::vector<std::exception_ptr> errors(workers);
  const auto run = [&](size_t w) {
    try {
      worker(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  {
    // jthreads join on destruction, so no exit from this block (a
    // thread that fails to start included) leaves a worker running.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) threads.emplace_back(run, w);
    run(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t workers = ForkJoinWorkers(num_threads, n);
  if (workers == 0) return;
  const size_t chunk = (n + workers - 1) / workers;
  const size_t shards = (n + chunk - 1) / chunk;
  ForkJoin(shards, shards, [&](size_t shard) {
    const size_t begin = shard * chunk;
    fn(shard, begin, std::min(n, begin + chunk));
  });
}

}  // namespace unidetect
