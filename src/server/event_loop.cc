#include "server/event_loop.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <utility>

#include "util/string_util.h"

namespace unidetect {

namespace {
Status Errno(const char* what) {
  return Status::IOError(StrCat(what, ": ", strerror(errno)));
}
}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    init_status_ = Errno("epoll_create1");
    return;
  }
  wakeup_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) {
    init_status_ = Errno("eventfd");
    return;
  }
  struct epoll_event event = {};
  event.events = EPOLLIN;
  event.data.fd = wakeup_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &event) != 0) {
    init_status_ = Errno("epoll_ctl(wakeup)");
  }
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) close(wakeup_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  struct epoll_event event = {};
  event.events = events;
  event.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    return Errno("epoll_ctl(add)");
  }
  callbacks_[fd] = std::move(callback);
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event event = {};
  event.events = events;
  event.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::Post(std::function<void()> fn) {
  {
    MutexLock lock(&post_mu_);
    posted_.push_back(std::move(fn));
  }
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; nothing to do.
  [[maybe_unused]] const ssize_t ignored =
      write(wakeup_fd_, &one, sizeof(one));
}

void EventLoop::DrainWakeup() {
  uint64_t counter = 0;
  while (read(wakeup_fd_, &counter, sizeof(counter)) > 0) {
  }
}

void EventLoop::RunPosted() {
  // Swap the queue out under the lock, run outside it: posted closures
  // are allowed to Post() more work or touch connections freely.
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(&post_mu_);
    tasks.swap(posted_);
  }
  for (std::function<void()>& task : tasks) task();
}

void EventLoop::Run() {
  std::vector<struct epoll_event> events(64);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<size_t>(i)].data.fd;
      if (fd == wakeup_fd_) {
        DrainWakeup();
        continue;
      }
      // Look up and copy so a callback that removes its own (or a
      // sibling's) registration never invalidates the function object
      // mid-call.
      const auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;
      const FdCallback callback = it->second;
      callback(events[static_cast<size_t>(i)].events);
    }
    RunPosted();
    if (n == static_cast<int>(events.size())) {
      events.resize(events.size() * 2);
    }
  }
  // One final drain so closures posted alongside Stop() still run.
  RunPosted();
  stop_requested_.store(false, std::memory_order_release);
}

void EventLoop::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t ignored =
      write(wakeup_fd_, &one, sizeof(one));
}

}  // namespace unidetect
