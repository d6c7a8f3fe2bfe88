#include "loadgen/loadgen.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/queue.hpp"

namespace xsearch::loadgen {

namespace {
struct Ticket {
  Nanos scheduled = 0;
};
}  // namespace

LoadReport run_open_loop(const std::function<void(std::size_t worker)>& handler,
                         const LoadConfig& config) {
  LoadReport report;
  report.offered_rps = config.target_rps;
  if (config.target_rps <= 0 || config.duration <= 0) return report;

  BoundedQueue<Ticket> queue(config.queue_capacity);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> dropped{0};

  Mutex histogram_mutex;
  Histogram latency;

  // Workers: pull tickets, run the handler, record scheduled-to-done time.
  std::vector<std::thread> workers;
  workers.reserve(config.workers);
  for (std::size_t w = 0; w < config.workers; ++w) {
    workers.emplace_back([&, w] {
      Histogram local;
      while (auto ticket = queue.pop()) {
        handler(w);
        local.record(wall_now() - ticket->scheduled);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      MutexLock lock(histogram_mutex);
      latency.merge(local);
    });
  }

  // Dispatcher: emit tickets on the fixed schedule. Requests that cannot be
  // queued (server hopelessly behind) are dropped, not delayed — delaying
  // them would reintroduce coordinated omission.
  const double interval_ns = static_cast<double>(kSecond) / config.target_rps;
  const Nanos start = wall_now();
  const Nanos end = start + config.duration;
  std::uint64_t issued = 0;
  while (true) {
    const Nanos scheduled =
        start + static_cast<Nanos>(static_cast<double>(issued) * interval_ns);
    if (scheduled >= end) break;
    // Busy-wait until the scheduled instant (sleep granularity is too
    // coarse at tens of thousands of requests per second).
    while (wall_now() < scheduled) {
    }
    if (queue.try_push(Ticket{scheduled})) {
      ++issued;
    } else {
      dropped.fetch_add(1, std::memory_order_relaxed);
      ++issued;  // the request was offered even though the server lost it
    }
  }

  queue.close();
  for (auto& w : workers) w.join();

  const Nanos elapsed = wall_now() - start;
  report.issued = issued;
  report.completed = completed.load();
  report.dropped = dropped.load();
  report.latency = std::move(latency);
  report.achieved_rps = elapsed > 0 ? static_cast<double>(report.completed) *
                                          static_cast<double>(kSecond) /
                                          static_cast<double>(elapsed)
                                    : 0.0;
  return report;
}

LoadReport run_closed_loop(const std::function<void(std::size_t worker)>& handler,
                           std::size_t workers, Nanos duration) {
  LoadReport report;
  if (workers == 0 || duration <= 0) return report;

  // Every thread is spawned before the clock starts; `end` stays 0 until
  // then, and each worker spins on it so none gets a head start.
  std::atomic<Nanos> end{0};
  std::atomic<std::uint64_t> completed{0};
  Mutex histogram_mutex;
  Histogram latency;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Nanos stop = 0;
      while ((stop = end.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      Histogram local;
      std::uint64_t done = 0;
      for (Nanos start = wall_now(); start < stop; ++done) {
        handler(w);
        const Nanos finished = wall_now();
        local.record(finished - start);
        start = finished;
      }
      completed.fetch_add(done, std::memory_order_relaxed);
      MutexLock lock(histogram_mutex);
      latency.merge(local);
    });
  }

  const Nanos start = wall_now();
  end.store(start + duration, std::memory_order_release);
  for (auto& t : threads) t.join();

  const Nanos elapsed = wall_now() - start;
  report.issued = report.completed = completed.load();
  report.latency = std::move(latency);
  report.achieved_rps = static_cast<double>(report.completed) *
                        static_cast<double>(kSecond) /
                        static_cast<double>(elapsed);
  return report;
}

}  // namespace xsearch::loadgen
