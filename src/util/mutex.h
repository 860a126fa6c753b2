// Annotated mutex primitives.
//
// Thin wrappers over <mutex>/<condition_variable> that carry the
// capability annotations from thread_annotations.h, so clang's
// -Wthread-safety can statically check lock discipline on every
// GUARDED_BY field. libstdc++'s std::mutex is unannotated, which is why
// the wrapper (rather than std::lock_guard directly) is the project-wide
// locking idiom; the wrappers compile to the std types with no overhead.

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace unidetect {

/// \brief An annotated standard mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII lock over Mutex (the std::lock_guard analogue).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// \brief Condition variable usable with Mutex.
///
/// Wait takes the Mutex directly (caller must hold it); predicate loops
/// are written by the caller so guarded reads stay visible to the
/// thread-safety analysis:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;

  /// Atomically releases `mu`, blocks until notified, reacquires `mu`.
  void Wait(Mutex& mu) REQUIRES(mu) {
    NativeLockAdapter adapter{mu.mu_};
    cv_.wait(adapter);
  }

  /// Like Wait, but also returns (false) when `timeout` elapses without
  /// a notification. Callers re-check their predicate either way — the
  /// background-compactor poll loop is the intended user.
  bool WaitFor(Mutex& mu, std::chrono::milliseconds timeout) REQUIRES(mu) {
    NativeLockAdapter adapter{mu.mu_};
    return cv_.wait_for(adapter, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // BasicLockable view of an already-held std::mutex, for
  // condition_variable_any's unlock/relock protocol.
  struct NativeLockAdapter {
    std::mutex& mu;
    void lock() { mu.lock(); }
    void unlock() { mu.unlock(); }
  };

  std::condition_variable_any cv_;
};

}  // namespace unidetect
