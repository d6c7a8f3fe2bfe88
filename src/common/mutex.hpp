// Annotated mutex/condvar wrappers for Clang Thread Safety Analysis.
//
// Thin zero-overhead wrappers over std::mutex / std::shared_mutex /
// std::condition_variable that carry the capability attributes from
// common/thread_annotations.hpp. The analysis only tracks annotated lock
// types, so every mutex-guarded subsystem in the tree (SessionTable,
// QueryHistory, ProxyFleet, the proxy's checkpoint path, BoundedQueue,
// api::PrivateSearchClient's batch engine, ...) uses these instead of the
// raw std types. Under GCC the attributes vanish and the wrappers compile
// down to the std types they hold.
//
// Locking idiom: prefer the RAII guards (MutexLock / ReaderLock /
// WriterLock). For try-lock paths, call `try_lock()` explicitly and adopt
// the held lock into a MutexLock (see QueryHistory::insert).
// Condition waits go through CondVar, whose wait() requires the annotated
// Mutex held — the analysis then sees the capability held across the wait,
// which matches reality at entry and exit.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.hpp"

namespace xsearch {

/// Exclusive lock. Satisfies BasicLockable, so std::unique_lock<Mutex>
/// still works operationally — but such uses are invisible to the
/// analysis; use MutexLock wherever the guarded fields are annotated.
class XS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() XS_ACQUIRE() { m_.lock(); }
  void unlock() XS_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() XS_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped handle, for CondVar's adopt-wait only.
  [[nodiscard]] std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// Reader/writer lock (exclusive writers, shared readers).
class XS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() XS_ACQUIRE() { m_.lock(); }
  void unlock() XS_RELEASE() { m_.unlock(); }
  void lock_shared() XS_ACQUIRE_SHARED() { m_.lock_shared(); }
  void unlock_shared() XS_RELEASE_SHARED() { m_.unlock_shared(); }

 private:
  std::shared_mutex m_;
};

/// RAII exclusive guard over Mutex.
class XS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) XS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  /// Adopts a mutex the caller already holds (e.g. via a successful
  /// try_lock), so the try-lock fast path keeps RAII release.
  MutexLock(Mutex& mutex, std::adopt_lock_t) XS_REQUIRES(mutex)
      : mutex_(mutex) {}
  ~MutexLock() XS_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII exclusive guard over SharedMutex.
class XS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mutex) XS_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~WriterLock() XS_RELEASE_GENERIC() { mutex_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII shared (reader) guard over SharedMutex.
class XS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mutex) XS_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~ReaderLock() XS_RELEASE_GENERIC() { mutex_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable bound to the annotated Mutex. wait() requires the
/// mutex held; internally it adopts the native handle for the std wait
/// (which unlocks while parked and relocks before returning), then
/// releases the adoption so ownership stays with the caller's guard.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(Mutex& mutex) XS_REQUIRES(mutex) {
    std::unique_lock<std::mutex> inner(mutex.native(), std::adopt_lock);
    cv_.wait(inner);
    (void)inner.release();
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mutex,
                          const std::chrono::duration<Rep, Period>& timeout)
      XS_REQUIRES(mutex) {
    std::unique_lock<std::mutex> inner(mutex.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_for(inner, timeout);
    (void)inner.release();
    return status;
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mutex, const std::chrono::time_point<Clock, Duration>& deadline)
      XS_REQUIRES(mutex) {
    std::unique_lock<std::mutex> inner(mutex.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(inner, deadline);
    (void)inner.release();
    return status;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace xsearch
