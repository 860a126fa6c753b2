#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace unidetect {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> touched(n);
  ParallelFor(3, n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ParallelForTest, ForkJoinRunsEveryWorkerOnce) {
  std::vector<std::atomic<int>> ran(5);
  ForkJoin(5, 100, [&](size_t worker) { ran[worker].fetch_add(1); });
  for (size_t w = 0; w < ran.size(); ++w) EXPECT_EQ(ran[w].load(), 1) << w;
}

TEST(ParallelForTest, ShardsAreContiguousAndOrdered) {
  std::vector<std::pair<size_t, size_t>> ranges(4, {0, 0});
  ParallelFor(4, 10, [&](size_t shard, size_t begin, size_t end) {
    ranges[shard] = {begin, end};
  });
  // 10 over 4 threads: chunk = 3 -> shards [0,3) [3,6) [6,9) [9,10).
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(ranges[1], (std::pair<size_t, size_t>{3, 6}));
  EXPECT_EQ(ranges[2], (std::pair<size_t, size_t>{6, 9}));
  EXPECT_EQ(ranges[3], (std::pair<size_t, size_t>{9, 10}));
}

TEST(ParallelForTest, HandlesFewerItemsThanThreads) {
  std::atomic<int> count{0};
  ParallelFor(8, 2, [&](size_t, size_t begin, size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(ParallelForTest, ZeroItemsIsNoop) {
  ParallelFor(2, 0, [&](size_t, size_t, size_t) { FAIL(); });
}

TEST(ParallelForTest, ForkJoinOverNoWorkReturns) {
  // No work starts no worker and returns at once: nothing to join.
  EXPECT_EQ(ForkJoinWorkers(2, 0), 0u);
  ForkJoin(2, 0, [&](size_t) { FAIL(); });
}

TEST(ParallelForTest, ZeroThreadsMeansHardwareConcurrency) {
  const size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(ForkJoinWorkers(0, 1'000'000), hardware);
  EXPECT_EQ(ForkJoinWorkers(0, 1), 1u);
}

TEST(ParallelForTest, OneWorkerRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  // One thread asked for, and one item with many threads asked for.
  for (const auto& [threads, n] :
       {std::pair<size_t, size_t>{1, 50}, std::pair<size_t, size_t>{8, 1}}) {
    size_t calls = 0;
    ParallelFor(threads, n, [&](size_t shard, size_t begin, size_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(shard, 0u);
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, n);
      ++calls;
    });
    EXPECT_EQ(calls, 1u) << threads << " threads, " << n << " items";
  }
}

TEST(ParallelForTest, WorkerZeroIsTheCallerAndTheRestAreNot) {
  const std::thread::id caller = std::this_thread::get_id();
  Mutex mu;
  std::vector<std::thread::id> ids(4);
  ForkJoin(4, 4, [&](size_t worker) {
    MutexLock lock(&mu);
    ids[worker] = std::this_thread::get_id();
  });
  EXPECT_EQ(ids[0], caller);
  const std::set<std::thread::id> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(ParallelForTest, WorkerExceptionIsRethrownAfterEveryWorkerJoins) {
  std::atomic<int> finished{0};
  EXPECT_THROW(ForkJoin(3, 3,
                        [&](size_t worker) {
                          if (worker == 2) throw std::runtime_error("w2");
                          finished.fetch_add(1);
                        }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 2);
}

TEST(ParallelForTest, MoreThreadsThanItemsStartsNoIdleWorker) {
  // 3 items over 8 threads: three workers, one per item.
  EXPECT_EQ(ForkJoinWorkers(8, 3), 3u);
  std::atomic<size_t> workers{0};
  ForkJoin(8, 3, [&](size_t worker) {
    EXPECT_LT(worker, 3u);
    workers.fetch_add(1);
  });
  EXPECT_EQ(workers.load(), 3u);

  // 9 items over 4 threads: chunk = 3 leaves three non-empty shards, and
  // no fourth worker is started for the empty one.
  Mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<size_t> shards{0};
  ParallelFor(4, 9, [&](size_t shard, size_t begin, size_t end) {
    EXPECT_LT(shard, 3u);
    EXPECT_LT(begin, end);
    shards.fetch_add(1);
    MutexLock lock(&mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(shards.load(), 3u);
  EXPECT_EQ(threads.size(), 3u);
}

}  // namespace
}  // namespace unidetect
