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

#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "engine/document.hpp"
#include "net/remote_broker.hpp"

namespace xsearch::api {

/// Crash-recovery settings of checkpointing deployments (X-Search only;
/// other mechanisms hold no server-side state worth restoring). With
/// `checkpoint_dir` set, the proxy (or each fleet worker, under its own
/// subdirectory) restores its sealed query history on restart — a warm
/// restart instead of the cold-start obfuscation window a crash otherwise
/// opens. The seals come from a net::FleetSupervisor's sweeps (and a
/// drain's final seal); the deployment builds its own supervisor.
struct RecoveryConfig {
  /// Directory for sealed history checkpoints (empty = checkpointing off).
  std::string checkpoint_dir;
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
  /// Sliding-window size of the X-Search in-enclave history table.
  std::size_t history_capacity = 100'000;
  /// Bound on live X-Search client sessions held in enclave memory; the
  /// least recently used session beyond it is evicted and its client must
  /// re-handshake (the client broker does so transparently).
  std::size_t session_capacity = 4096;
  /// Crash-recovery configuration (sealed history checkpoints).
  RecoveryConfig recovery;
  /// Deadlines, budgeted retries and the optional client-side breaker of
  /// the X-Search client broker, handed to every broker as is (defaults:
  /// no deadline, two attempts, 1 ms → 50 ms backoff, no breaker). The
  /// in-process and the remote X-Search clients honour all of it; the
  /// other mechanisms ignore it.
  net::RemoteBrokerOptions broker;
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
