// EventLoop: the single-threaded epoll reactor under the network front
// end (DESIGN.md §16). One thread owns every registered fd; readiness
// callbacks run on that thread, so connection state needs no locking.
// Each server shard serves a request to completion inside its
// readiness callback, so nothing else ever hands work to the loop
// except Post(), which enqueues a closure and kicks an eventfd so a
// parked epoll_wait wakes immediately — DetectionServer::Stop() uses
// it to run the shutdown on each loop thread.
//
// Add/Modify/Remove are loop-thread calls: make them before Run() or
// from inside a callback or a posted closure.
//
// The loop is deliberately minimal: level-triggered epoll, no timer
// wheel (deadlines are checked against the read time before detection
// starts), no fd ownership (callers register, unregister and close
// their own fds). Everything here is Linux-only, like the mmap
// snapshot path.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace unidetect {

class EventLoop {
 public:
  /// Readiness callback; `events` is the epoll event mask (EPOLLIN /
  /// EPOLLOUT / EPOLLHUP / EPOLLERR bits).
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief False when construction failed (epoll/eventfd unavailable);
  /// status() carries the reason.
  bool ok() const { return init_status_.ok(); }
  const Status& status() const { return init_status_; }

  /// \brief Registers `fd` for `events`; the callback runs on the loop
  /// thread whenever the fd is ready.
  Status Add(int fd, uint32_t events, FdCallback callback);

  /// \brief Changes the interest mask of a registered fd.
  Status Modify(int fd, uint32_t events);

  /// \brief Unregisters a fd (does not close it). Safe to call from
  /// inside the fd's own callback.
  void Remove(int fd);

  /// \brief Enqueues `fn` to run on the loop thread and wakes the loop.
  /// Thread-safe; callable before Run() and from callbacks.
  void Post(std::function<void()> fn) EXCLUDES(post_mu_);

  /// \brief Runs the reactor on the calling thread until Stop().
  void Run();

  /// \brief Stops Run() from any thread (idempotent).
  void Stop();

 private:
  void DrainWakeup();
  void RunPosted() EXCLUDES(post_mu_);

  Status init_status_;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;

  // Callbacks keyed by fd. Only the loop thread touches this map;
  // std::map keeps iteration order deterministic.
  std::map<int, FdCallback> callbacks_;

  std::atomic<bool> stop_requested_{false};

  Mutex post_mu_;
  std::vector<std::function<void()>> posted_ GUARDED_BY(post_mu_);
};

}  // namespace unidetect
