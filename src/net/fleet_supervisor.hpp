// Automatic crash recovery for a ProxyFleet.
//
// A production front tier cannot wait for an operator to notice a dead
// enclave: the supervisor closes the detect→drain→respawn→restore loop the
// fleet exposes as manual calls. A background thread probes every worker
// with a heartbeat ecall each `probe_interval`; a worker failing
// `failure_threshold` consecutive probes is declared dead and respawned
// (drain first, so its ring arc migrates before the replacement attests).
//
// The sweep is also the fleet's checkpoint schedule: with per-worker
// checkpointing on, a worker whose heartbeat succeeds is sealed
// (`XSearchProxy::checkpoint_now`) at once on its first healthy sweep
// after a spawn, then no sooner than `kSealSpacing` times its previous
// seal's duration — near 1% of a core per worker at any window size. No
// query waits for a seal, a crash loses the queries since the last one,
// and the respawn is a *warm* restart: the replacement restores that seal
// instead of reopening the cold-start window.
//
// Probes and seals carry their own deadline (`probe_budget`): both are
// synchronous blocking ecalls, so a worker that HANGS (wedged enclave, not
// a crashed one) would otherwise block the sweep forever and the
// supervisor would never notice any other worker dying. Each runs on a
// dedicated prober thread; when one overruns its budget the supervisor
// abandons that prober (it retires itself when the stuck ecall eventually
// returns), counts a timeout failure, and — at the threshold — drains the
// worker WITHOUT the final checkpoint (a seal ecall on a wedged enclave
// could block forever too) before respawning it.
//
// The supervisor is untrusted host machinery: it sees only ecall success/
// failure and moves sealed blobs around. Nothing it does (or maliciously
// fails to do) weakens the enclave's guarantees — a supervisor that never
// respawns is availability loss, not privacy loss.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "net/proxy_fleet.hpp"

namespace xsearch::net {

class FleetSupervisor {
 public:
  struct Options {
    /// Pause between probe sweeps over all workers.
    Nanos probe_interval = 20 * kMilli;
    /// Consecutive heartbeat failures before a worker is respawned.
    std::uint32_t failure_threshold = 3;
    /// Deadline for one heartbeat probe or one seal (must be positive): a
    /// call still running past it counts as a failure (the worker is hung,
    /// not merely crashed) and the sweep moves on.
    Nanos probe_budget = kSecond;
  };

  /// A worker's next seal waits this many times its last seal's duration.
  static constexpr int kSealSpacing = 100;

  /// Starts supervising `fleet` (which must outlive this object) on a
  /// background thread. Stops on destruction.
  FleetSupervisor(ProxyFleet& fleet, Options options);
  ~FleetSupervisor();

  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  /// Stops the probe thread and joins every prober, including abandoned
  /// ones — so a probe stuck in a PERMANENTLY wedged ecall blocks stop()
  /// until the hang releases (tests release the hang first). Idempotent;
  /// the destructor calls it.
  void stop();

  /// `supervisor.*`: probes, probe_failures (incl. timeouts),
  /// probe_timeouts, auto_respawns — the one count of supervisor-driven
  /// respawns (`fleet.respawns` counts every respawn).
  [[nodiscard]] metrics::Snapshot metrics() const { return metrics_.snapshot(); }

  /// One synchronous sweep over all workers — probe, seal when due,
  /// respawn at the threshold — exactly what the background thread runs
  /// per interval. Exposed so tests can step the state machine
  /// deterministically; safe to call while the background thread runs
  /// (sweeps serialize).
  void probe_once();

 private:
  struct Slot {
    /// Consecutive failed probes (or seals that overran the budget).
    std::uint32_t failures = 0;
    /// The proxy last sealed: any other proxy (a respawn) is due at once.
    std::weak_ptr<core::XSearchProxy> sealed;
    std::chrono::steady_clock::time_point next_seal{};
  };

  /// Mailbox between a sweep and its prober thread. Shared ownership: an
  /// abandoned prober keeps its task alive after the sweep moved on.
  struct ProbeTask {
    Mutex mutex;
    CondVar cv;
    bool has_job XS_GUARDED_BY(mutex) = false;
    bool done XS_GUARDED_BY(mutex) = false;
    bool abandoned XS_GUARDED_BY(mutex) = false;
    bool shutdown XS_GUARDED_BY(mutex) = false;
    std::function<Status()> job XS_GUARDED_BY(mutex);
    Status result XS_GUARDED_BY(mutex);
  };

  void run();
  /// Runs `job` (a heartbeat or a seal) on the prober thread. Sets
  /// `timed_out` when it overran `probe_budget` (the status is then
  /// DEADLINE_EXCEEDED).
  [[nodiscard]] Status run_bounded(std::function<Status()> job, bool& timed_out)
      XS_REQUIRES(sweep_mutex_);
  /// Seals worker `index` if due; false when the seal timed out (hung).
  [[nodiscard]] bool seal_if_due(std::size_t index, Slot& slot, bool& timed_out)
      XS_REQUIRES(sweep_mutex_);
  /// Spawns the prober thread lazily (and again after an abandonment).
  void ensure_prober() XS_REQUIRES(sweep_mutex_);
  void prober_main(std::shared_ptr<ProbeTask> task);

  ProxyFleet* fleet_;
  const Options options_;

  /// Serializes sweeps and guards the per-worker slots plus the
  /// prober-thread machinery.
  Mutex sweep_mutex_;
  std::vector<Slot> slots_ XS_GUARDED_BY(sweep_mutex_);
  std::shared_ptr<ProbeTask> probe_task_ XS_GUARDED_BY(sweep_mutex_);
  std::thread prober_thread_ XS_GUARDED_BY(sweep_mutex_);
  /// Probers whose heartbeat overran the budget: each exits on its own
  /// when the stuck ecall returns; stop() joins them.
  std::vector<std::thread> abandoned_probers_ XS_GUARDED_BY(sweep_mutex_);

  metrics::Registry metrics_{"supervisor"};
  metrics::Counter& probes_ = metrics_.counter("probes");
  metrics::Counter& probe_failures_ = metrics_.counter("probe_failures");
  metrics::Counter& probe_timeouts_ = metrics_.counter("probe_timeouts");
  metrics::Counter& auto_respawns_ = metrics_.counter("auto_respawns");

  Mutex stop_mutex_;
  CondVar stop_cv_;
  bool stopping_ XS_GUARDED_BY(stop_mutex_) = false;
  std::thread probe_thread_;
};

}  // namespace xsearch::net
