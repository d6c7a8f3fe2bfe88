#include "net/proxy_fleet.hpp"

#include <algorithm>
#include <utility>

namespace xsearch::net {

namespace {

/// Stateless 64-bit mixer for ring points and session-id placement.
/// Session ids come from an Rng (already well mixed), but ring points are
/// built from tiny (worker, replica) integers — without mixing, every
/// worker's nodes would clump at the bottom of the ring.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  return splitmix64(x);  // splitmix64 advances its state arg; x is a copy
}

constexpr std::size_t kHandshakeIdAttempts = 8;

}  // namespace

Result<std::unique_ptr<ProxyFleet>> ProxyFleet::create(
    const engine::SearchEngine* engine, const sgx::AttestationAuthority& authority,
    Options options) {
  if (options.workers == 0) {
    return invalid_argument("fleet: options.workers must be >= 1");
  }
  if (options.virtual_nodes == 0) {
    return invalid_argument("fleet: options.virtual_nodes must be >= 1");
  }
  auto fleet = std::unique_ptr<ProxyFleet>(
      new ProxyFleet(engine, authority, std::move(options)));
  // Construction is single-threaded, but worker slots and the ring are
  // guarded state: hold the writer lock (uncontended here) so the fill and
  // ring build satisfy the same machine-checked discipline as respawn.
  WriterLock lock(fleet->mutex_);
  for (std::size_t i = 0; i < fleet->options_.workers; ++i) {
    auto proxy = core::XSearchProxy::create(engine, authority,
                                            fleet->worker_options(i));
    if (!proxy) return proxy.status();
    fleet->account_restore(*proxy.value(), /*initial_spawn=*/true);
    auto worker = std::make_unique<Worker>();
    worker->proxy = std::move(proxy).value();
    worker->live.set(1);
    fleet->workers_.push_back(std::move(worker));
  }
  fleet->rebuild_ring_locked();
  return fleet;
}

ProxyFleet::ProxyFleet(const engine::SearchEngine* engine,
                       const sgx::AttestationAuthority& authority, Options options)
    : engine_(engine),
      authority_(&authority),
      options_(std::move(options)),
      session_id_rng_(mix64(options_.proxy.seed ^ 0xf1ee7)) {}

core::XSearchProxy::Options ProxyFleet::worker_options(std::size_t index) const {
  core::XSearchProxy::Options worker = options_.proxy;
  // Domain-separate each worker's key material and RNG streams; mix with
  // the respawn count so a respawned worker never replays its predecessor's
  // draws.
  const std::uint64_t generation =
      workers_.size() > index ? workers_[index]->respawns.value() : 0;
  worker.seed = mix64(options_.proxy.seed ^ mix64((index + 1) * 0x9e3779b97f4a7c15ULL +
                                                  generation));
  // Each worker checkpoints under its own subdirectory, named by slot (not
  // generation): a respawned worker must find exactly its predecessor's
  // sealed history, and never a sibling's.
  if (!options_.proxy.checkpoint_dir.empty()) {
    worker.checkpoint_dir =
        options_.proxy.checkpoint_dir / ("worker-" + std::to_string(index));
  }
  return worker;
}

void ProxyFleet::account_restore(const core::XSearchProxy& proxy,
                                 bool initial_spawn) {
  if (proxy.metrics().value("checkpoint.restore_hits") > 0) {
    restore_hits_.inc();
  } else if (!initial_spawn) {
    restore_misses_.inc();
  }
}

void ProxyFleet::rebuild_ring_locked() {
  ring_.clear();
  ring_.reserve(workers_.size() * options_.virtual_nodes);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w]->live.value() == 0) continue;
    for (std::size_t v = 0; v < options_.virtual_nodes; ++v) {
      const std::uint64_t point =
          mix64(mix64(w + 1) ^ (v * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL));
      ring_.emplace_back(point, static_cast<std::uint32_t>(w));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ProxyFleet::owner_locked(std::uint64_t session_id) const {
  if (ring_.empty()) return workers_.size();
  const std::uint64_t point = mix64(session_id);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& node, std::uint64_t p) { return node.first < p; });
  if (it == ring_.end()) it = ring_.begin();  // wrap: first node clockwise
  return it->second;
}

std::size_t ProxyFleet::owner_of(std::uint64_t session_id) const {
  ReaderLock lock(mutex_);
  return owner_locked(session_id);
}

metrics::Snapshot ProxyFleet::metrics() const {
  metrics::Snapshot out = metrics_.snapshot();
  ReaderLock lock(mutex_);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    metrics::Snapshot part = workers_[i]->metrics.snapshot();
    part.merge(workers_[i]->proxy->metrics());
    // secret-lint: allow(metric-name-literal) a worker index, bounded by Options::workers, never client data
    out.merge(part, "worker", std::to_string(i));
  }
  return out;
}

std::string worker_label(std::size_t index) {
  return metrics::label("worker", std::to_string(index));
}

double warm_start_ratio(const metrics::Snapshot& fleet) {
  const std::uint64_t hits = fleet.value("fleet.restore_hits");
  const std::uint64_t total = hits + fleet.value("fleet.restore_misses");
  return total == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(total);
}

std::size_t ProxyFleet::worker_history_depth(std::size_t index) const {
  ReaderLock lock(mutex_);
  if (index >= workers_.size()) return 0;
  return workers_[index]->proxy->history_size();
}

Status ProxyFleet::heartbeat(std::size_t index) {
  std::shared_ptr<core::XSearchProxy> proxy;
  {
    ReaderLock lock(mutex_);
    if (index >= workers_.size()) return invalid_argument("fleet: no such worker");
    proxy = workers_[index]->proxy;
  }
  // Probe outside the fleet lock: a hung (not crashed) enclave blocks only
  // this probe, never routing or the drain/respawn writer path.
  return proxy->heartbeat();
}

Status ProxyFleet::kill_worker(std::size_t index) {
  ReaderLock lock(mutex_);
  if (index >= workers_.size()) return invalid_argument("fleet: no such worker");
  workers_[index]->proxy->crash_enclave();
  return Status::ok();
}

std::shared_ptr<core::XSearchProxy> ProxyFleet::worker_proxy(
    std::size_t index) const {
  ReaderLock lock(mutex_);
  if (index >= workers_.size()) return nullptr;
  return workers_[index]->proxy;
}

sgx::Measurement ProxyFleet::measurement() const {
  // All workers run the same enclave code (XSearchProxy::code_identity), so
  // worker 0's measurement is the fleet's. Respawn preserves it: a fresh
  // proxy re-measures the same code. Copied out under the lock — a
  // reference would dangle if respawn replaced the worker.
  ReaderLock lock(mutex_);
  return workers_.front()->proxy->measurement();
}

Result<core::HandshakeResponse> ProxyFleet::handshake(
    const crypto::X25519Key& client_ephemeral_pub,
    std::uint64_t proposed_session_id) {
  // A caller-proposed id is routed like any other; otherwise draw ids until
  // the owning worker accepts one (collisions are ~2^-64, but the loop also
  // absorbs an id of 0, which is the "no proposal" sentinel).
  for (std::size_t attempt = 0; attempt < kHandshakeIdAttempts; ++attempt) {
    std::uint64_t session_id = proposed_session_id;
    if (session_id == 0) {
      MutexLock rng_lock(rng_mutex_);
      session_id = session_id_rng_.next();
    }
    if (session_id == 0) continue;

    std::shared_ptr<core::XSearchProxy> proxy;
    {
      ReaderLock lock(mutex_);
      const std::size_t owner = owner_locked(session_id);
      if (owner >= workers_.size()) {
        return unavailable("fleet: no live workers");
      }
      Worker& worker = *workers_[owner];
      worker.routed.inc();
      proxy = worker.proxy;
    }
    auto response = proxy->handshake(client_ephemeral_pub, session_id);
    if (response.is_ok() ||
        response.status().code() != StatusCode::kFailedPrecondition ||
        proposed_session_id != 0) {
      return response;
    }
    // Id already in use on that worker — draw another.
  }
  return resource_exhausted("fleet: could not place a session id");
}

Result<Bytes> ProxyFleet::handle_query_record(std::uint64_t session_id,
                                              ByteSpan record) {
  return handle_query_record(session_id, record, Deadline());
}

Result<Bytes> ProxyFleet::handle_query_record(std::uint64_t session_id,
                                              ByteSpan record,
                                              const Deadline& deadline) {
  std::shared_ptr<core::XSearchProxy> proxy;
  {
    ReaderLock lock(mutex_);
    const std::size_t owner = owner_locked(session_id);
    if (owner >= workers_.size()) {
      return unavailable("fleet: no live workers");
    }
    Worker& worker = *workers_[owner];
    worker.routed.inc();
    proxy = worker.proxy;
  }
  // The call runs WITHOUT the fleet lock: shared ownership pins the proxy,
  // so respawn can swap the slot under in-flight requests (the retired
  // proxy dies when the last one returns), and a hung worker stalls only
  // its own arc's requests instead of wedging the router.
  return proxy->handle_query_record(session_id, record, deadline);
}

Status ProxyFleet::drain(std::size_t index) { return drain(index, /*seal_final=*/true); }

Status ProxyFleet::drain(std::size_t index, bool seal_final) {
  {
    WriterLock lock(mutex_);
    if (index >= workers_.size()) return invalid_argument("fleet: no such worker");
    if (workers_[index]->live.value() == 0) return Status::ok();  // idempotent
    std::size_t live = 0;
    for (const auto& worker : workers_) live += worker->live.value();
    if (live <= 1) {
      return failed_precondition("fleet: refusing to drain the last live worker");
    }
    workers_[index]->live.set(0);
    rebuild_ring_locked();
  }
  // Graceful exit: seal what the worker learned so its successor restores
  // a full window. Best effort — a crashed enclave fails the seal ecall,
  // leaving the last *periodic* checkpoint as the recovery point; a HUNG
  // enclave (probe timeout) is drained with `seal_final = false`, because
  // the seal ecall itself could block forever. The seal runs outside the
  // fleet lock (shared ownership pins the proxy across a concurrent
  // respawn), so it cannot stall queries on healthy workers.
  if (!seal_final) return Status::ok();
  std::shared_ptr<core::XSearchProxy> proxy;
  {
    ReaderLock lock(mutex_);
    Worker& worker = *workers_[index];
    if (worker.live.value() == 0 && !worker.proxy->checkpoint_path().empty()) {
      proxy = worker.proxy;
    }
  }
  if (proxy != nullptr) (void)proxy->checkpoint_now();
  return Status::ok();
}

Status ProxyFleet::respawn(std::size_t index) {
  core::XSearchProxy::Options options;
  {
    WriterLock lock(mutex_);
    if (index >= workers_.size()) return invalid_argument("fleet: no such worker");
    workers_[index]->respawns.inc();
    options = worker_options(index);
  }
  // The expensive part — enclave init plus reading and replaying the
  // sealed checkpoint — runs without the fleet lock, so queries on healthy
  // workers (shared lock) flow while the replacement warms up. Routing
  // still sends the dead arc's records to the old slot until the swap;
  // they fail/migrate exactly as during the outage itself.
  auto proxy =
      core::XSearchProxy::create(engine_, *authority_, options);
  if (!proxy) return proxy.status();
  // The fresh proxy already ran its restore in create(): with a sealed
  // checkpoint on disk this respawn was warm, otherwise cold.
  account_restore(*proxy.value(), /*initial_spawn=*/false);
  respawns_.inc();
  std::shared_ptr<core::XSearchProxy> retired;
  {
    WriterLock lock(mutex_);
    retired = std::move(workers_[index]->proxy);  // destroyed after unlock
    workers_[index]->proxy = std::move(proxy).value();
    workers_[index]->live.set(1);
    rebuild_ring_locked();
  }
  return Status::ok();
}

}  // namespace xsearch::net
