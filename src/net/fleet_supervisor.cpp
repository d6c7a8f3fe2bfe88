#include "net/fleet_supervisor.hpp"

#include <chrono>
#include <utility>

#include "common/check.hpp"

namespace xsearch::net {

namespace {

// Checked before the probe thread starts: with a budget of zero every
// probe's deadline is already past, so each sweep would declare every
// worker hung and respawn it.
FleetSupervisor::Options checked(FleetSupervisor::Options options) {
  XS_CHECK(options.probe_budget > 0, "probe_budget must be positive");
  return options;
}

}  // namespace

FleetSupervisor::FleetSupervisor(ProxyFleet& fleet, Options options)
    : fleet_(&fleet),
      options_(checked(options)),
      slots_(fleet.worker_count()),
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
    std::function<Status()> job;
    {
      MutexLock lock(task->mutex);
      while (!task->has_job && !task->shutdown) task->cv.wait(task->mutex);
      if (task->shutdown) return;
      job = std::move(task->job);
    }
    // May block arbitrarily long on a hung enclave — that is exactly what
    // this thread exists to absorb.
    Status result = job();
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

Status FleetSupervisor::run_bounded(std::function<Status()> job, bool& timed_out) {
  timed_out = false;
  ensure_prober();
  const std::shared_ptr<ProbeTask> task = probe_task_;
  {
    MutexLock lock(task->mutex);
    task->job = std::move(job);
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
        // Still running past its budget: the worker is HUNG (a crashed
        // enclave fails the ecall immediately). Abandon this prober — it
        // retires itself when the stuck call returns.
        task->abandoned = true;
        timed_out = true;
        break;
      }
    }
    if (!timed_out) return task->result;
  }
  abandoned_probers_.push_back(std::move(prober_thread_));
  probe_task_.reset();  // next probe gets a fresh prober
  return deadline_exceeded("supervisor: probe or seal timed out");
}

bool FleetSupervisor::seal_if_due(std::size_t index, Slot& slot, bool& timed_out) {
  const std::shared_ptr<core::XSearchProxy> proxy = fleet_->worker_proxy(index);
  if (proxy->checkpoint_path().empty()) return true;
  const auto start = std::chrono::steady_clock::now();
  if (slot.sealed.lock() == proxy && start < slot.next_seal) return true;
  // A failed seal other than a timeout (say, a full disk) is the proxy's
  // `checkpoint.write_failures`, not a sign of a dead enclave.
  (void)run_bounded([proxy] { return proxy->checkpoint_now(); }, timed_out);
  if (timed_out) return false;  // still due: the next sweep retries it
  const auto end = std::chrono::steady_clock::now();
  slot.sealed = proxy;
  slot.next_seal = end + (end - start) * kSealSpacing;
  return true;
}

void FleetSupervisor::probe_once() {
  MutexLock sweep(sweep_mutex_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    bool timed_out = false;
    const bool answered =
        run_bounded([this, i] { return fleet_->heartbeat(i); }, timed_out).is_ok();
    probes_.inc();
    // A healthy worker is sealed when due; a seal that overruns the budget
    // marks the worker hung, as a hung heartbeat does.
    if (answered && seal_if_due(i, slot, timed_out)) {
      slot.failures = 0;
      continue;
    }
    probe_failures_.inc();
    if (timed_out) probe_timeouts_.inc();
    if (++slot.failures < options_.failure_threshold) continue;

    // Declared dead: migrate its arc first (drain is refused for the last
    // live worker and is a no-op on an already-drained one), then bring up
    // the replacement, which restores the sealed checkpoint when there is
    // one. On respawn failure the counter stays saturated, so the next
    // sweep retries immediately. A HUNG worker is drained without the
    // final checkpoint — the seal ecall could wedge just like the probe —
    // so its recovery point is the sweep's last seal.
    (void)fleet_->drain(i, /*seal_final=*/!timed_out);
    if (fleet_->respawn(i).is_ok()) {
      auto_respawns_.inc();
      slot.failures = 0;
    }
  }
}

}  // namespace xsearch::net
