// Scale-out front tier: N X-Search proxy workers behind one router.
//
// The paper's proxy is a single SGX enclave, which caps throughput at one
// machine's EPC and core budget. ProxyFleet is the first multi-backend
// layer above it: it owns N XSearchProxy workers — each with its own
// enclave runtime, SessionTable and socket-ocall state — and routes every
// request by *consistent hash of the session id*, so
//
//  * all records of one session land on one worker, in order (the
//    SecureChannel nonce counters require it), while
//  * distinct sessions fan out across the whole fleet.
//
// Session ids are untrusted routing metadata (integrity lives in the
// channel records), so the router picks them: on handshake it draws a
// random id, looks up the owning worker on the hash ring, and proposes the
// id to that worker's enclave. Query records then need nothing but the
// ring lookup — the fleet keeps NO per-session routing table, which is the
// point of consistent hashing: routing state is O(workers), not
// O(sessions), and a worker's death invalidates only its own arc.
//
// Worker lifecycle:
//  * drain(i)   removes worker i's virtual nodes from the ring. Its live
//    sessions remap to ring successors, get "unknown session" there, and
//    re-attest transparently (both brokers already retry once on
//    NOT_FOUND). Sessions on other workers never notice. When the worker
//    checkpoints, drain also seals a final checkpoint (graceful shutdown),
//    so a rolling restart restores with zero history loss.
//  * respawn(i) replaces worker i with a freshly keyed proxy and restores
//    its ring arc. With Options::proxy.checkpoint_dir set, each worker
//    keeps its sealed history under its own `worker-<i>/` subdirectory and
//    the replacement proxy restores it — a *warm* restart whose decoy
//    table is as deep as the last checkpoint, instead of the cold-start
//    obfuscation window a crash used to open. Only the sessions that
//    hashed to worker i must re-attest — the failure domain of a crashed
//    enclave is exactly its own arc, never the fleet.
//
// FleetSupervisor (fleet_supervisor.hpp) automates the crash half:
// heartbeat probes per worker, drain+respawn after a failure threshold.
//
// The fleet implements core::ProxyHandler, so net::ProxyServer fronts a
// fleet exactly as it fronts a single proxy, and net::RemoteBroker works
// against it unchanged, over TCP or in-process.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "engine/search_engine.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {

/// The label on worker `index`'s series in a fleet's metrics():
/// worker="<index>".
[[nodiscard]] std::string worker_label(std::size_t index);

/// restore_hits / (restore_hits + restore_misses) of a fleet's metrics();
/// 1.0 when no restart has happened yet (nothing was ever cold).
[[nodiscard]] double warm_start_ratio(const metrics::Snapshot& fleet);

class ProxyFleet : public core::ProxyHandler {
 public:
  struct Options {
    /// Proxy workers in the fleet.
    std::size_t workers = 2;
    /// Virtual nodes per worker on the hash ring. More nodes = smoother
    /// session spread and smaller remap arcs on drain, at O(nodes·workers)
    /// ring memory.
    std::size_t virtual_nodes = 64;
    /// Per-worker proxy configuration. Each worker's seed is domain-
    /// separated from `proxy.seed` by its index, so workers draw
    /// independent key material while a fleet run stays reproducible.
    core::XSearchProxy::Options proxy;
  };

  /// Builds `options.workers` proxies over the shared `engine` (which may
  /// be null when `options.proxy.contact_engine` is false) and `authority`;
  /// both must outlive the fleet. Every worker runs the same enclave code,
  /// so clients pin the one shared measurement.
  [[nodiscard]] static Result<std::unique_ptr<ProxyFleet>> create(
      const engine::SearchEngine* engine,
      const sgx::AttestationAuthority& authority, Options options);

  ProxyFleet(const ProxyFleet&) = delete;
  ProxyFleet& operator=(const ProxyFleet&) = delete;

  // --- ProxyHandler ---------------------------------------------------------

  /// Routes the handshake: draws a session id (or honors a caller
  /// proposal), finds its ring owner, and proposes the id to that worker.
  [[nodiscard]] Result<core::HandshakeResponse> handshake(
      const crypto::X25519Key& client_ephemeral_pub,
      std::uint64_t proposed_session_id) override;

  /// Routes one record to the session's ring owner. A session whose owner
  /// was drained maps to the successor worker, which reports NOT_FOUND —
  /// the broker's re-attest-and-retry path finishes the migration.
  /// The worker call runs WITHOUT the fleet lock (the worker is pinned by
  /// shared ownership), so a hung enclave stalls only its own arc's
  /// requests — routing, drain and respawn stay responsive.
  [[nodiscard]] Result<Bytes> handle_query_record(std::uint64_t session_id,
                                                  ByteSpan record) override;
  [[nodiscard]] Result<Bytes> handle_query_record(
      std::uint64_t session_id, ByteSpan record,
      const Deadline& deadline) override;

  [[nodiscard]] sgx::Measurement measurement() const override;

  // --- worker lifecycle -----------------------------------------------------

  /// Removes worker `index` from the ring (its sessions migrate to ring
  /// successors on their next query). The worker object stays alive until
  /// respawn so in-flight requests finish. Draining the last live worker
  /// is refused. A checkpointing worker seals a final checkpoint on its
  /// way out (best effort — a crashed enclave cannot, and that is what
  /// the periodic interval is for).
  [[nodiscard]] Status drain(std::size_t index);

  /// `drain` with control over the final checkpoint. The supervisor passes
  /// `seal_final = false` when it drains a worker that timed out (hung, not
  /// crashed): a checkpoint ecall on a wedged enclave could block forever,
  /// and the periodic checkpoint is the designated recovery point anyway.
  [[nodiscard]] Status drain(std::size_t index, bool seal_final);

  /// Replaces worker `index` with a freshly keyed proxy and restores its
  /// ring arc. The replacement restores the worker's sealed checkpoint
  /// when one exists (warm restart; counted in `fleet.restore_hits`), and falls
  /// back to an empty history otherwise (cold — the pre-checkpoint crash
  /// model). Works on both live workers (crash + restart) and drained
  /// ones (rolling restart).
  [[nodiscard]] Status respawn(std::size_t index);

  /// Probes worker `index`'s enclave with a heartbeat ecall. UNAVAILABLE
  /// once the enclave crashed; the supervisor respawns after a threshold
  /// of consecutive failures. Runs without the fleet lock held, so a
  /// probe into a HUNG (not crashed) enclave blocks only its caller —
  /// the supervisor bounds that with its own probe deadline.
  [[nodiscard]] Status heartbeat(std::size_t index);

  /// Host-side fault injection: crashes worker `index`'s enclave (every
  /// subsequent ecall on it fails). The failure-injection tests and the
  /// fig5 kill-and-recover bench use this; the supervisor is what brings
  /// the worker back.
  [[nodiscard]] Status kill_worker(std::size_t index);

  /// Host-side handle to worker `index`'s proxy, for fault injection the
  /// crash model cannot express (e.g. wedging an ecall handler to model a
  /// HUNG enclave). Shared ownership: the handle stays valid across a
  /// respawn of the slot — it then refers to the retired proxy.
  [[nodiscard]] std::shared_ptr<core::XSearchProxy> worker_proxy(
      std::size_t index) const;

  // --- introspection --------------------------------------------------------

  [[nodiscard]] std::size_t worker_count() const {
    // The slot count is fixed after create() (respawn replaces slots, never
    // adds them), but the vector is guarded, so take the shared lock —
    // uncontended in practice and provably consistent.
    ReaderLock lock(mutex_);
    return workers_.size();
  }

  /// `fleet.*` — respawns, restore_hits (a start that came back with its
  /// sealed history), restore_misses (a respawn that cold-started; an
  /// initial boot counts only when it restored) — plus, labelled
  /// worker_label(i), slot i's `worker.*` (routed, respawns, live — 1 while
  /// on the ring) and its current proxy's series. Only the proxy series
  /// restart on respawn.
  [[nodiscard]] metrics::Snapshot metrics() const;

  /// History depth of worker `index` right now — the decoy-quality number
  /// the recovery bench charts across a respawn (0 on a cold start).
  [[nodiscard]] std::size_t worker_history_depth(std::size_t index) const;

  /// Ring owner of `session_id` right now, or `worker_count()` when the
  /// ring is empty. Exposed so tests can assert routing stability.
  [[nodiscard]] std::size_t owner_of(std::uint64_t session_id) const;

 private:
  struct Worker {
    /// Shared ownership: routing copies the pointer under the fleet lock,
    /// releases the lock, then calls. A respawn can swap the slot while
    /// calls are in flight on the retired proxy — it is destroyed when the
    /// last in-flight call returns, never under a caller.
    std::shared_ptr<core::XSearchProxy> proxy;
    metrics::Registry metrics{"worker"};
    /// 1 while on the ring (routing state, written under the exclusive lock).
    metrics::Gauge& live = metrics.gauge("live");
    /// Also the generation a respawned worker's seed is mixed with.
    metrics::Counter& respawns = metrics.counter("respawns");
    metrics::Counter& routed = metrics.counter("routed");
  };

  explicit ProxyFleet(const engine::SearchEngine* engine,
                      const sgx::AttestationAuthority& authority,
                      Options options);

  /// Derives worker `index`'s per-slot proxy options. Reads the worker's
  /// respawn count, so the caller holds `mutex_` (either mode).
  [[nodiscard]] core::XSearchProxy::Options worker_options(std::size_t index)
      const XS_REQUIRES_SHARED(mutex_);

  /// Rebuilds ring_ from the live workers. Caller holds `mutex_` exclusive.
  void rebuild_ring_locked() XS_REQUIRES(mutex_);

  /// Folds a (re)started worker's restore outcome into the fleet counters.
  /// `initial_spawn` exempts checkpoint-less workers from the miss count.
  void account_restore(const core::XSearchProxy& proxy, bool initial_spawn);

  /// Ring lookup. Caller holds `mutex_` (either mode). Returns
  /// workers_.size() when the ring is empty.
  [[nodiscard]] std::size_t owner_locked(std::uint64_t session_id) const
      XS_REQUIRES_SHARED(mutex_);

  const engine::SearchEngine* engine_;
  const sgx::AttestationAuthority* authority_;
  const Options options_;

  // Guards the ring and worker slots. Routing holds it shared for the
  // duration of the worker call, so drain/respawn (exclusive) waits out
  // in-flight requests instead of destroying a proxy under them.
  mutable SharedMutex mutex_;
  // Worker slots: the vector (and each Worker's live/respawns fields, which
  // the analysis cannot tie to a guard owned by another object) follow the
  // same rule — reads under a shared hold of mutex_, writes under exclusive.
  std::vector<std::unique_ptr<Worker>> workers_ XS_GUARDED_BY(mutex_);
  /// (point on the 64-bit ring, worker index), sorted by point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_ XS_GUARDED_BY(mutex_);
  /// Session-id source for handshakes (ids are routing metadata, so a
  /// deterministic stream is fine — uniqueness per worker is enforced by
  /// the worker's table refusing duplicate proposals).
  Mutex rng_mutex_;
  Rng session_id_rng_ XS_GUARDED_BY(rng_mutex_);

  metrics::Registry metrics_{"fleet"};
  metrics::Counter& respawns_ = metrics_.counter("respawns");
  metrics::Counter& restore_hits_ = metrics_.counter("restore_hits");
  metrics::Counter& restore_misses_ = metrics_.counter("restore_misses");
};

}  // namespace xsearch::net
