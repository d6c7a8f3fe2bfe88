// Fixed-size thread pool.
//
// The X-Search paper notes the proxy "uses multiple threads" with the query
// table shared among them (§4.1); this pool backs that design in the proxy
// server's dispatch stage.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/queue.hpp"

namespace xsearch {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads, std::size_t queue_capacity = 4096)
      : tasks_(queue_capacity) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shutdown(); }

  /// Non-blocking enqueue; returns false when the queue is full or after
  /// shutdown() has been called (the caller sheds the task).
  bool submit(std::function<void()> task) {
    return tasks_.try_push(std::move(task));
  }

  /// Drains outstanding tasks and joins all workers. Idempotent.
  void shutdown() {
    tasks_.close();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop() {
    while (auto task = tasks_.pop()) (*task)();
  }

  BoundedQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

}  // namespace xsearch
