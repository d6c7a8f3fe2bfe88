// Unified client API over the five private web search mechanisms.
//
// The paper's argument is comparative — X-Search against Direct, TrackMeNot,
// Tor and PEAS on the same workload (§5.2) — so every bench, attack harness
// and example talks to this one interface instead of the five unrelated
// concrete APIs. A `PrivateSearchClient` owns a mechanism's whole stack
// (relays, proxies, enclave, ...), exposes an explicit session lifecycle,
// a synchronous `search`, an asynchronous batch path (`submit`/`poll`/`wait`
// executed on a `common::ThreadPool`), and uniform introspection of the
// mechanism's privacy properties. Concrete mechanisms are produced by name
// through `api/registry.hpp`.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "engine/document.hpp"

namespace xsearch::api {

/// Crash-recovery knobs of checkpointing deployments (X-Search only; other
/// mechanisms hold no server-side state worth restoring). With
/// `checkpoint_dir` set, the proxy (or each fleet worker, under its own
/// subdirectory) periodically seals its query history to disk and restores
/// it on restart — a warm restart instead of the cold-start obfuscation
/// window a crash otherwise opens. The supervisor knobs drive
/// net::FleetSupervisor for fleet deployments.
struct RecoveryConfig {
  /// Directory for sealed history checkpoints (empty = checkpointing off).
  std::string checkpoint_dir;
  /// Queries between periodic checkpoints (0 = explicit/drain-time only).
  std::uint64_t checkpoint_interval_queries = 256;
  /// Supervisor pause between heartbeat sweeps over the fleet.
  Nanos probe_interval = 20 * kMilli;
  /// Consecutive heartbeat failures before a worker is auto-respawned.
  std::uint32_t failure_threshold = 3;
  /// Deadline for one heartbeat probe; a probe overrunning it means the
  /// worker is HUNG (not crashed) and counts as a failure. 0 = probe
  /// without a deadline (a hung worker then wedges the probe loop).
  Nanos probe_budget = kSecond;
};

/// End-to-end robustness knobs for the X-Search client broker: request
/// deadlines, budgeted retries with backoff, and a client-side circuit
/// breaker. All default to the historical behavior (no deadline, retry
/// exactly once, breaker off). The in-process and the remote X-Search
/// clients run the same broker and honour every knob; the other
/// mechanisms ignore them.
struct RobustnessConfig {
  /// End-to-end budget per search/batch call, covering every attempt,
  /// backoff pause and socket operation; also carried on the wire so the
  /// server sheds work it cannot finish in time. 0 = unbounded.
  Nanos request_budget = 0;
  /// Budget for TCP connect + attested handshake (0 = unbounded).
  Nanos connect_budget = 0;
  /// Total attempts per call, including the first (1 = never retry).
  std::uint32_t retry_attempts = 2;
  /// Backoff curve between attempts (capped decorrelated jitter).
  Nanos retry_initial_backoff = kMilli;
  Nanos retry_max_backoff = 50 * kMilli;
  /// Client-side circuit breaker: while open, calls fail fast with
  /// UPSTREAM_DOWN and never touch the wire.
  bool breaker_enabled = false;
};

/// Mechanism-agnostic client configuration. Every knob that several
/// mechanisms interpret (top_k, k, seeds) is routed through here so no
/// mechanism hard-codes its own default.
struct ClientConfig {
  /// Results the user wants per query. For obfuscating mechanisms this is
  /// also the per-sub-query fetch size (the paper's "first 20 results").
  std::size_t top_k = 20;
  /// Number of fake queries aggregated with each real one (TrackMeNot,
  /// PEAS, X-Search; ignored by Direct and Tor).
  std::size_t k = 3;
  /// Deterministic seed for all client-side randomness.
  std::uint64_t seed = 1;
  /// Client identity as seen by identity-observing components (PEAS
  /// receiver; also used to diversify batch-lane siblings).
  std::uint32_t client_id = 0;
  /// When false, mechanisms reply without contacting the engine — the
  /// saturation configuration of the Figure 5 bench (§6.3).
  bool contact_engine = true;
  /// Sliding-window size of the X-Search in-enclave history table.
  std::size_t history_capacity = 100'000;
  /// Bound on live X-Search client sessions held in enclave memory; the
  /// least recently used session beyond it is evicted and its client must
  /// re-handshake (the client broker does so transparently).
  std::size_t session_capacity = 4096;
  /// Idle time after which an X-Search session expires (0 = never).
  Nanos session_idle_ttl = 0;
  /// Lock shards of the X-Search session table (more shards = less
  /// contention between concurrent sessions).
  std::size_t session_shards = 8;
  /// Calibrated per-request service cost charged (as busy CPU) before each
  /// search — the proxy network/OS-stack work the in-process simulation
  /// does not otherwise execute (Figure 5 saturation bench; 0 = off).
  Nanos stack_cost_per_request = 0;
  /// Worker threads of the asynchronous batch path.
  std::size_t batch_workers = 4;
  /// Pending-request capacity of the batch queue; `try_submit` reports
  /// overflow instead of blocking.
  std::size_t batch_queue_capacity = 4096;
  /// Maximum `submit()`s coalesced into ONE mechanism round trip (1 = off).
  /// The X-Search clients (in-process and remote) answer a coalesced batch
  /// with one batch frame — one sealed record and one query ecall each way —
  /// amortizing AEAD, crossing and syscall cost over the batch; others just
  /// loop. Capped by the wire protocol's batch bound.
  std::size_t batch_coalesce = 1;
  /// Crash-recovery configuration (checkpointing + fleet supervision).
  RecoveryConfig recovery;
  /// Deadlines, retries and circuit breaking (X-Search client broker).
  RobustnessConfig robustness;
};

/// What a mechanism exposes to whom — the §2 taxonomy, made introspectable.
struct PrivacyProperties {
  std::string mechanism;
  /// The engine learns who issued the query.
  bool identity_exposed = false;
  /// The engine can single out the real query content.
  bool query_exposed = false;
  /// Fake queries per real query actually in effect (0 = none).
  std::size_t k = 0;
  /// Who must be honest for the protection to hold.
  std::string trust_assumption;
  /// Enclave boundary crossings so far (0 for mechanisms without a TEE);
  /// the ablation benches chart these.
  std::uint64_t enclave_transitions = 0;
};

/// Uniform operation counters, same fields for every mechanism.
struct Stats {
  std::uint64_t connects = 0;
  std::uint64_t searches = 0;   // sync + batch searches executed
  std::uint64_t failures = 0;   // searches that returned a non-OK status
  std::uint64_t submitted = 0;  // batch requests accepted
  std::uint64_t completed = 0;  // batch requests finished (either way)
};

using SearchResults = std::vector<engine::SearchResult>;

/// Handle for one asynchronous batch request.
using Ticket = std::uint64_t;
constexpr Ticket kInvalidTicket = 0;

/// Completion record of one batch request.
struct SearchOutcome {
  Ticket ticket = kInvalidTicket;
  Status status;
  SearchResults results;
  /// submit() entry to completion, wall clock — queueing included, so an
  /// open-loop driver sees coordinated-omission-free latency.
  Nanos latency = 0;
};

class PrivateSearchClient {
 public:
  virtual ~PrivateSearchClient();

  PrivateSearchClient(const PrivateSearchClient&) = delete;
  PrivateSearchClient& operator=(const PrivateSearchClient&) = delete;

  // --- session lifecycle ----------------------------------------------------

  /// Establishes the mechanism's session: attestation + secure channel for
  /// X-Search, key agreement for PEAS, circuit setup for Tor, nothing for
  /// Direct/TrackMeNot. Idempotent; `search` calls it lazily.
  [[nodiscard]] Status connect();

  /// Stops the batch path (draining in-flight requests) and tears down the
  /// session. The client may be `connect`ed again afterwards. Must not be
  /// called concurrently with submit/poll/wait/drain — quiesce batch
  /// producers first (the batch lanes themselves are drained here).
  void close();

  [[nodiscard]] virtual bool connected() const = 0;

  // --- synchronous path -----------------------------------------------------

  /// One private search for `config().top_k` results. Thread-safe
  /// (serialized on this client; use the batch path for parallelism).
  [[nodiscard]] Result<SearchResults> search(std::string_view query);

  /// Same, with an explicit result budget (0 means `config().top_k`).
  [[nodiscard]] Result<SearchResults> search(std::string_view query,
                                             std::size_t top_k);

  /// Many searches in one mechanism round trip. Outcomes are index-aligned
  /// with `queries`; per-query failures do not poison the batch (a
  /// transport-level failure repeats on every slot). Thread-safe like
  /// `search`. `top_k` of 0 means `config().top_k`.
  struct BatchQuery {
    std::string query;
    std::size_t top_k = 0;
  };
  [[nodiscard]] std::vector<Result<SearchResults>> search_batch(
      std::vector<BatchQuery> queries);

  // --- asynchronous batch path ---------------------------------------------

  /// Enqueues a search on the batch thread pool and returns its ticket.
  /// Blocks for back-pressure when the batch queue is full.
  [[nodiscard]] Ticket submit(std::string query, std::size_t top_k = 0);

  /// Non-blocking variant for open-loop load generation: returns
  /// `kInvalidTicket` when the batch queue is full (the request is dropped,
  /// as a saturated server would reset it).
  [[nodiscard]] Ticket try_submit(std::string query, std::size_t top_k = 0);

  /// Fire-and-forget variant: `on_done` is invoked from a batch worker
  /// thread instead of parking the outcome for `poll`.
  void submit(std::string query, std::size_t top_k,
              std::function<void(SearchOutcome)> on_done);

  /// Non-blocking completion check. Empty optional: still in flight.
  /// Engaged with `kNotFound`: unknown (or already collected) ticket.
  /// Each completed outcome is returned exactly once.
  [[nodiscard]] std::optional<SearchOutcome> poll(Ticket ticket);

  /// Blocks until `ticket` completes and returns its outcome (or an
  /// outcome carrying `kNotFound` for unknown/collected tickets).
  [[nodiscard]] SearchOutcome wait(Ticket ticket);

  /// Blocks until no batch request is in flight.
  void drain();

  // --- introspection --------------------------------------------------------

  [[nodiscard]] virtual PrivacyProperties privacy_properties() const = 0;
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const ClientConfig& config() const { return config_; }

  /// Preloads mechanism state as if `past_queries` had been searched by
  /// earlier users (X-Search: the in-enclave history table; default no-op).
  /// The benches use this for the §5.1 warm-up methodology.
  [[nodiscard]] virtual Status prime(const std::vector<std::string>& past_queries);

 protected:
  explicit PrivateSearchClient(ClientConfig config);

  // --- mechanism hooks ------------------------------------------------------

  /// Idempotent session establishment.
  [[nodiscard]] virtual Status do_connect() = 0;
  virtual void do_close() {}
  /// One search; `top_k` is already resolved (never 0).
  [[nodiscard]] virtual Result<SearchResults> do_search(std::string_view query,
                                                        std::size_t top_k) = 0;

  /// One round trip for many searches; `top_k`s are already resolved. The
  /// default loops over `do_search`; mechanisms with a batched wire format
  /// (X-Search) override it to send one frame. Must return exactly
  /// `queries.size()` outcomes, index-aligned.
  [[nodiscard]] virtual std::vector<Result<SearchResults>> do_search_batch(
      const std::vector<BatchQuery>& queries);

  /// A new client sharing this one's backend (same proxy/relays/issuer),
  /// used as an independent batch lane so batch workers run in parallel.
  /// Called serially before batch workers start. Returning nullptr makes
  /// the batch path fall back to serializing through this client.
  [[nodiscard]] virtual std::unique_ptr<PrivateSearchClient> spawn_sibling(
      std::uint64_t seed);

  /// Stops the batch pool and destroys the lane siblings. Subclasses whose
  /// siblings reference subclass-owned state MUST call this first thing in
  /// their destructor (the base destructor would run too late).
  void shutdown_async();

 private:
  struct AsyncEngine;
  struct PendingRequest;

  [[nodiscard]] AsyncEngine& async();
  [[nodiscard]] AsyncEngine* async_if_built();
  [[nodiscard]] Ticket submit_impl(std::string query, std::size_t top_k,
                                   std::function<void(SearchOutcome)> on_done,
                                   bool blocking);
  [[nodiscard]] Ticket submit_coalesced(
      AsyncEngine& engine, std::string query, std::size_t top_k,
      std::function<void(SearchOutcome)> on_done, bool blocking);
  void flush_loop(AsyncEngine& engine);
  [[nodiscard]] std::size_t resolve_top_k(std::size_t top_k) const {
    return top_k == 0 ? config_.top_k : top_k;
  }

  ClientConfig config_;

  mutable Mutex sync_mutex_;  // serializes do_connect/do_search
  // Guards the engine *slot*; the engine itself has its own mutex and
  // stays alive until shutdown_async() reclaims it, so references
  // handed out by async() remain valid outside this lock.
  Mutex async_init_mutex_;
  std::unique_ptr<AsyncEngine> async_ XS_GUARDED_BY(async_init_mutex_);

  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> searches_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
};

using ClientPtr = std::unique_ptr<PrivateSearchClient>;

}  // namespace xsearch::api
