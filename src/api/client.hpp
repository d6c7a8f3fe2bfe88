// Unified client API over the five private web search mechanisms.
//
// The paper's argument is comparative — X-Search against Direct, TrackMeNot,
// Tor and PEAS on the same workload (§5.2) — so every bench, attack harness
// and example talks to this one interface instead of the five unrelated
// concrete APIs. A `PrivateSearchClient` owns a mechanism's whole stack
// (relays, proxies, enclave, ...), exposes an explicit session lifecycle,
// a synchronous `search` and `search_batch`, siblings (`spawn_sibling`:
// more users of the same deployment, for parallel load), and uniform
// introspection of the mechanism's privacy properties. Concrete mechanisms
// are produced by name through `api/registry.hpp`.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
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
};

/// End-to-end robustness knobs for the X-Search client broker: request
/// deadlines and budgeted retries with backoff. All default to the
/// historical behavior (no deadline, retry exactly once; the broker's
/// client-side breaker stays off). The in-process and the remote X-Search
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
  /// receiver; also used to diversify siblings).
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
  /// Crash-recovery configuration (checkpointing + fleet supervision).
  RecoveryConfig recovery;
  /// Deadlines and retries (X-Search client broker).
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
};

using SearchResults = std::vector<engine::SearchResult>;

class PrivateSearchClient {
 public:
  virtual ~PrivateSearchClient() = default;

  PrivateSearchClient(const PrivateSearchClient&) = delete;
  PrivateSearchClient& operator=(const PrivateSearchClient&) = delete;

  // --- session lifecycle ----------------------------------------------------

  /// Establishes the mechanism's session: attestation + secure channel for
  /// X-Search, key agreement for PEAS, circuit setup for Tor, nothing for
  /// Direct/TrackMeNot. Idempotent; `search` calls it lazily.
  [[nodiscard]] Status connect();

  /// Tears down the session. The client may be `connect`ed again
  /// afterwards.
  void close();

  [[nodiscard]] virtual bool connected() const = 0;

  // --- synchronous path -----------------------------------------------------

  /// One private search for `config().top_k` results. Thread-safe
  /// (serialized on this client; use siblings for parallelism).
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

  /// A new client of the same deployment (same proxy, relays, issuer) —
  /// another user, with its own session and `seed` — so several users can
  /// search in parallel, one sibling per thread. Siblings keep their own
  /// metrics. The caller connects them; mechanisms whose session setup
  /// mutates shared backend state (Tor circuit extension) need that done
  /// serially, before siblings search concurrently.
  [[nodiscard]] virtual std::unique_ptr<PrivateSearchClient> spawn_sibling(
      std::uint64_t seed) = 0;

  // --- introspection --------------------------------------------------------

  [[nodiscard]] virtual PrivacyProperties privacy_properties() const = 0;
  /// `client.*`: connects, searches (a batch counts each query), failures.
  /// The in-process X-Search client adds its proxy's `enclave.*`.
  [[nodiscard]] virtual metrics::Snapshot metrics() const {
    return metrics_.snapshot();
  }
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

 private:
  [[nodiscard]] std::size_t resolve_top_k(std::size_t top_k) const {
    return top_k == 0 ? config_.top_k : top_k;
  }

  ClientConfig config_;

  mutable Mutex sync_mutex_;  // serializes do_connect/do_search

  metrics::Registry metrics_{"client"};
  metrics::Counter& connects_ = metrics_.counter("connects");
  metrics::Counter& searches_ = metrics_.counter("searches");
  metrics::Counter& failures_ = metrics_.counter("failures");
};

using ClientPtr = std::unique_ptr<PrivateSearchClient>;

}  // namespace xsearch::api
