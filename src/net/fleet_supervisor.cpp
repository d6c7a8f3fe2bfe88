#include "net/fleet_supervisor.hpp"

#include <chrono>
#include <utility>

namespace xsearch::net {

FleetSupervisor::FleetSupervisor(ProxyFleet& fleet, Options options)
    : fleet_(&fleet),
      options_(options),
      consecutive_failures_(fleet.worker_count(), 0),
      probe_thread_([this] { run(); }) {}

FleetSupervisor::~FleetSupervisor() { stop(); }

void FleetSupervisor::stop() {
  {
    MutexLock lock(stop_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();

  // No sweep can start anymore: retire the prober machinery. Abandoned
  // probers exit when their stuck ecall returns, so joining them here can
  // block until the hang releases (callers release it first).
  std::shared_ptr<ProbeTask> task;
  std::thread prober;
  std::vector<std::thread> abandoned;
  {
    MutexLock lock(sweep_mutex_);
    task = std::move(probe_task_);
    prober = std::move(prober_thread_);
    abandoned = std::move(abandoned_probers_);
  }
  if (task != nullptr) {
    MutexLock lock(task->mutex);
    task->shutdown = true;
    task->cv.notify_all();
  }
  if (prober.joinable()) prober.join();
  for (auto& thread : abandoned) {
    if (thread.joinable()) thread.join();
  }
}

void FleetSupervisor::run() {
  for (;;) {
    {
      MutexLock lock(stop_mutex_);
      // Park for one probe interval, waking early when stop() signals.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::nanoseconds(options_.probe_interval);
      while (!stopping_) {
        if (stop_cv_.wait_until(stop_mutex_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) return;
    }
    probe_once();
  }
}

void FleetSupervisor::prober_main(std::shared_ptr<ProbeTask> task) {
  for (;;) {
    std::size_t worker = 0;
    {
      MutexLock lock(task->mutex);
      while (!task->has_job && !task->shutdown) task->cv.wait(task->mutex);
      if (task->shutdown) return;
      worker = task->worker;
    }
    // May block arbitrarily long on a hung enclave — that is exactly what
    // this thread exists to absorb.
    Status result = fleet_->heartbeat(worker);
    MutexLock lock(task->mutex);
    task->has_job = false;
    task->result = std::move(result);
    task->done = true;
    task->cv.notify_all();
    if (task->abandoned) return;  // sweep moved on long ago; retire quietly
  }
}

void FleetSupervisor::ensure_prober() {
  if (probe_task_ != nullptr) return;
  probe_task_ = std::make_shared<ProbeTask>();
  prober_thread_ = std::thread(
      [this, task = probe_task_]() mutable { prober_main(std::move(task)); });
}

Status FleetSupervisor::probe_worker(std::size_t index, bool& timed_out) {
  timed_out = false;
  if (options_.probe_budget <= 0) {
    return fleet_->heartbeat(index);  // legacy inline probe, no deadline
  }
  ensure_prober();
  const std::shared_ptr<ProbeTask> task = probe_task_;
  {
    MutexLock lock(task->mutex);
    task->worker = index;
    task->has_job = true;
    task->done = false;
  }
  task->cv.notify_all();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(options_.probe_budget);
  {
    MutexLock lock(task->mutex);
    while (!task->done) {
      if (task->cv.wait_until(task->mutex, deadline) ==
              std::cv_status::timeout &&
          !task->done) {
        // Probe still running past its budget: the worker is HUNG (a
        // crashed enclave fails the ecall immediately). Abandon this
        // prober — it retires itself when the stuck call returns.
        task->abandoned = true;
        timed_out = true;
        break;
      }
    }
    if (!timed_out) return task->result;
  }
  abandoned_probers_.push_back(std::move(prober_thread_));
  probe_task_.reset();  // next probe gets a fresh prober
  return deadline_exceeded("supervisor: heartbeat probe timed out");
}

void FleetSupervisor::probe_once() {
  MutexLock sweep(sweep_mutex_);
  for (std::size_t i = 0; i < consecutive_failures_.size(); ++i) {
    bool timed_out = false;
    const Status alive = probe_worker(i, timed_out);
    probes_.inc();
    if (alive.is_ok()) {
      consecutive_failures_[i] = 0;
      continue;
    }
    probe_failures_.inc();
    if (timed_out) probe_timeouts_.inc();
    if (++consecutive_failures_[i] < options_.failure_threshold) continue;

    // Declared dead: migrate its arc first (drain is refused for the last
    // live worker and is a no-op on an already-drained one), then bring up
    // the replacement, which restores the sealed checkpoint when there is
    // one. On respawn failure the counter stays saturated, so the next
    // sweep retries immediately. A HUNG worker is drained without the
    // final checkpoint — the seal ecall could wedge just like the probe —
    // so its recovery point is the last periodic checkpoint.
    (void)fleet_->drain(i, /*seal_final=*/!timed_out);
    if (fleet_->respawn(i).is_ok()) {
      auto_respawns_.inc();
      consecutive_failures_[i] = 0;
    }
  }
}

}  // namespace xsearch::net
