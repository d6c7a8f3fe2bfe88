// The X-Search proxy node.
//
// Runs the paper's trusted logic inside a (simulated) SGX enclave on an
// untrusted cloud host. The enclave interface is the narrowed one of
// §5.3.3 — ecalls `init` and `request`; ocalls `sock_connect`, `send`,
// `recv`, `close` — typed as sgx::EcallId/OcallId, so every piece of
// sensitive data crosses the boundary encrypted, and transition counts are
// observable for the ablation bench. A query costs exactly one `request`
// ecall plus the four socket ocalls of its engine round trip.
//
// Data flow per query (paper Figure 2):
//   1. client broker sends an encrypted record into the enclave (ecall);
//   2. the enclave decrypts the query, draws k fakes from the in-enclave
//      history, builds the OR query (Algorithm 1) and stores the original;
//   3. the enclave reaches the search engine through the host's socket
//      ocalls — the engine sees only the proxy's identity and the OR query;
//   4. results come back through `recv`, are filtered (Algorithm 2) and
//      scrubbed of analytics redirects inside the enclave;
//   5. the enclave seals the surviving results back to the client.
#pragma once

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/circuit_breaker.hpp"
#include "common/deadline.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "crypto/random.hpp"
#include "crypto/secure_channel.hpp"
#include "engine/search_engine.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "xsearch/engine_gateway.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/history.hpp"
#include "xsearch/obfuscator.hpp"
#include "xsearch/session_table.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {

/// What the host returns to a connecting client (its wire form lives in
/// xsearch/wire.hpp).
using HandshakeResponse = wire::HandshakeResponse;

/// The narrow host surface a frontend needs from "something that terminates
/// the proxy protocol" — one enclave proxy, or a whole fleet of them behind
/// a router (net::ProxyFleet). Session ids are *untrusted routing metadata*:
/// all confidentiality and integrity comes from the SecureChannel records
/// keyed during the attested handshake, so a router may propose the session
/// id (it picks ids that consistent-hash to the worker it routed the
/// handshake to) without weakening anything — a host lying about ids only
/// produces AEAD failures.
class ProxyHandler {
 public:
  virtual ~ProxyHandler() = default;

  /// Establishes a client session. `proposed_session_id` of 0 lets the
  /// proxy assign the id; a nonzero proposal is honored or refused with
  /// FAILED_PRECONDITION when already in use (the caller proposes another).
  [[nodiscard]] virtual Result<HandshakeResponse> handshake(
      const crypto::X25519Key& client_ephemeral_pub,
      std::uint64_t proposed_session_id) = 0;

  [[nodiscard]] Result<HandshakeResponse> handshake(
      const crypto::X25519Key& client_ephemeral_pub) {
    return handshake(client_ephemeral_pub, 0);
  }

  /// Processes one encrypted query-batch record; returns the encrypted
  /// results-batch record. The request must finish before `deadline` or
  /// fail DEADLINE_EXCEEDED. A refusal *before* any trusted work is
  /// exactly-once safe — the record was never opened.
  [[nodiscard]] virtual Result<Bytes> handle_query_record(
      std::uint64_t session_id, ByteSpan record, const Deadline& deadline) = 0;

  /// The same without a deadline (an infinite one).
  [[nodiscard]] virtual Result<Bytes> handle_query_record(
      std::uint64_t session_id, ByteSpan record) {
    return handle_query_record(session_id, record, Deadline());
  }

  /// The enclave code identity clients pin during attestation. By value:
  /// a fleet's workers can be respawned concurrently, so a reference into
  /// a worker's enclave could dangle.
  [[nodiscard]] virtual sgx::Measurement measurement() const = 0;
};

class XSearchProxy : public ProxyHandler {
 public:
  struct Options {
    /// Number of fake queries per user query (the paper's k).
    std::size_t k = 3;
    /// Sliding-window size x of the past-query table.
    std::size_t history_capacity = 1'000'000;
    /// Results fetched per sub-query from the engine.
    std::uint32_t results_per_subquery = 20;
    /// Non-secret seed. A standalone proxy reads none of it; a ProxyFleet
    /// seeds its router's session-id draws (routing metadata) from it. No
    /// enclave key, session stream or seal nonce derives from it: those
    /// come from the enclave runtime's own entropy.
    std::uint64_t seed = 0x5eed;
    /// Maximum live client sessions the enclave keeps; the least recently
    /// used session is evicted beyond it (its client must re-handshake).
    /// Bounds the EPC held by per-session channel state.
    std::size_t session_capacity = 4096;
    /// When non-empty, the proxy keeps a sealed checkpoint of its history
    /// (format v4, see checkpoint.hpp) at `<checkpoint_dir>/history.ckpt`:
    /// it restores the file at construction (falling back to a cold start
    /// when the file is missing, truncated, or tampered with) and re-seals
    /// on `checkpoint_now` only — a net::FleetSupervisor's sweep, never a
    /// query. The host only ever handles the sealed blob.
    std::filesystem::path checkpoint_dir;
    /// Host-side circuit breaker on the proxy→engine path. The breaker
    /// lives in the `send` ocall *body* — untrusted host code — so trusted
    /// logic never reads a clock: after a rolling window of engine failures
    /// (including deadline expiries) it fast-fails the round trip with
    /// UPSTREAM_DOWN instead of hammering a dead engine. Its `breaker.*`
    /// series are part of metrics(). Absent = no breaker.
    std::optional<CircuitBreaker::Options> engine_breaker;
    /// Host-side fault injection on the engine path, called in the `send`
    /// ocall body before the engine is contacted; a non-OK status fails the
    /// round trip. Used by the chaos harness and the fig5 degraded bench.
    std::function<Status()> engine_fault_hook;
  };

  /// Validating factory: surfaces a bad configuration as a Status instead of
  /// constructing a proxy that silently misbehaves — `k == 0` (no
  /// obfuscation), an empty history window, a zero per-sub-query fetch
  /// size or a zero session capacity. Prefer this over the raw
  /// constructors. A null `engine` is the saturation configuration of
  /// Figure 5 (§6.3): the proxy replies right after obfuscation, without
  /// contacting any engine.
  [[nodiscard]] static Result<std::unique_ptr<XSearchProxy>> create(
      const engine::SearchEngine* engine,
      const sgx::AttestationAuthority& authority, Options options);

  /// Encrypted-engine-link variant of the factory (footnote 2): requests
  /// leave the enclave sealed to `gateway`'s public key.
  [[nodiscard]] static Result<std::unique_ptr<XSearchProxy>> create(
      const SecureEngineGateway& gateway,
      const sgx::AttestationAuthority& authority, Options options);

  /// Unvalidated construction; a null `engine` means saturation mode, as
  /// for `create`. Tests use this to build deliberately degenerate
  /// proxies — production callers use `create`.
  XSearchProxy(const engine::SearchEngine* engine,
               const sgx::AttestationAuthority& authority, Options options);

  /// Unvalidated encrypted engine link variant (footnote 2).
  XSearchProxy(const SecureEngineGateway& gateway,
               const sgx::AttestationAuthority& authority, Options options);

  XSearchProxy(const XSearchProxy&) = delete;
  XSearchProxy& operator=(const XSearchProxy&) = delete;

  // --- untrusted host API -------------------------------------------------

  using ProxyHandler::handshake;

  /// Establishes a client session (routed through the `request` ecall).
  /// A nonzero `proposed_session_id` is used as the session id if free,
  /// refused with FAILED_PRECONDITION otherwise (see ProxyHandler).
  [[nodiscard]] Result<HandshakeResponse> handshake(
      const crypto::X25519Key& client_ephemeral_pub,
      std::uint64_t proposed_session_id) override;

  using ProxyHandler::handle_query_record;

  /// Processes one encrypted query-batch record (one AEAD open/seal per
  /// batch, a single search being a batch of one) through the `request`
  /// ecall and returns the encrypted results-batch record. Refuses with
  /// DEADLINE_EXCEEDED *before* the ecall when the budget is spent
  /// (exactly-once safe — the record was never opened), and exposes the
  /// deadline to the host-side engine path (checked again before the
  /// engine call in the `send` ocall body).
  [[nodiscard]] Result<Bytes> handle_query_record(
      std::uint64_t session_id, ByteSpan record,
      const Deadline& deadline) override;

  // --- recovery -------------------------------------------------------------

  /// Liveness probe: one cheap `request` ecall into the enclave. Fails
  /// (UNAVAILABLE) once the enclave has crashed — what a fleet supervisor's
  /// health probe keys its respawn decision on.
  [[nodiscard]] Status heartbeat();

  /// Seals the history inside the enclave and persists the blob
  /// crash-atomically: the one writer of checkpoints. Safe beside queries;
  /// concurrent calls serialize. Requires Options::checkpoint_dir.
  [[nodiscard]] Status checkpoint_now();

  /// Host-side fault injection: destroys the enclave under the proxy (see
  /// sgx::EnclaveRuntime::crash). Every later ecall — handshakes, queries,
  /// heartbeats, checkpoint seals — fails; only previously sealed
  /// checkpoints survive. Used by the recovery tests and the fig5
  /// kill-and-recover bench.
  void crash_enclave() { enclave_->crash(); }

  /// Host-side handle to the enclave runtime. The ocall table is *host*
  /// state — the untrusted side owns its stubs and may legitimately replace
  /// them (which is exactly what the fault-injection tests do to model host
  /// failures). Trusted state behind the boundary is reachable only via
  /// `ecall`, so handing out a mutable runtime does not widen the TCB.
  [[nodiscard]] sgx::EnclaveRuntime& host_enclave() { return *enclave_; }

  /// Where this proxy persists its sealed history (empty when disabled).
  [[nodiscard]] std::filesystem::path checkpoint_path() const;

  // --- introspection -------------------------------------------------------

  [[nodiscard]] sgx::Measurement measurement() const override {
    return enclave_->measurement();
  }
  [[nodiscard]] const sgx::EnclaveRuntime& enclave() const { return *enclave_; }
  [[nodiscard]] std::size_t history_size() const { return history_->size(); }
  [[nodiscard]] std::size_t history_memory_bytes() const {
    return history_->memory_bytes();
  }
  [[nodiscard]] const Options& options() const { return options_; }

  /// `checkpoint.*` (restore_attempts: a checkpoint file was read;
  /// restore_hits, written, write_failures; gauge restored_entries) merged
  /// with the enclave's, the session table's and, when enabled, the engine
  /// breaker's series.
  [[nodiscard]] metrics::Snapshot metrics() const;

  /// The eviction count the end-to-end benchmark reads (`sessions.evicted_lru`).
  struct SessionStats { std::uint64_t evicted_lru = 0; };
  [[nodiscard]] SessionStats session_stats() const {
    return {sessions_->metrics().value("sessions.evicted_lru")};
  }

  /// Outcome of the `init` ecall performed at construction. The raw
  /// constructors record a failure here instead of aborting; `create`
  /// surfaces it as its returned Status.
  [[nodiscard]] const Status& init_status() const { return init_status_; }

  /// Simulation warm-up: preloads the in-enclave history as if `queries`
  /// had arrived as earlier users' traffic (the §5.1 bench methodology).
  /// Not part of the deployed protocol surface.
  void warm_history(const std::vector<std::string>& queries);

  /// The byte string measured as this proxy's enclave code identity. All
  /// X-Search proxies built from this library share it, so clients pin one
  /// expected measurement.
  [[nodiscard]] static Bytes code_identity();

 private:
  /// The one constructor body: at most one of `engine` (plain link) and
  /// `gateway` (encrypted link) is non-null; with neither, the proxy has no
  /// engine link and runs in saturation mode.
  XSearchProxy(const engine::SearchEngine* engine,
               const SecureEngineGateway* gateway,
               const sgx::AttestationAuthority& authority, Options options);

  /// What both `create` overloads run: validates, constructs, and surfaces
  /// the `init` ecall's outcome.
  [[nodiscard]] static Result<std::unique_ptr<XSearchProxy>> create_checked(
      const engine::SearchEngine* engine, const SecureEngineGateway* gateway,
      const sgx::AttestationAuthority& authority, Options options);

  // Trusted-side implementations of the two ecalls.
  [[nodiscard]] Result<Bytes> ecall_init(ByteSpan payload);
  [[nodiscard]] Result<Bytes> ecall_request(ByteSpan payload);

  [[nodiscard]] Result<Bytes> trusted_handshake(ByteSpan payload);
  [[nodiscard]] Result<Bytes> trusted_query(ByteSpan payload);
  [[nodiscard]] Result<Bytes> trusted_heartbeat();
  [[nodiscard]] Result<Bytes> trusted_checkpoint();

  /// Restores the sealed checkpoint (if any) into the fresh history during
  /// construction. A bad blob falls back to a cold start, never a partial
  /// window.
  void restore_checkpoint();

  /// One batch item's trusted work — obfuscate, engine round trip,
  /// filter — appended to the results-batch frame `reply` as a results
  /// item. On failure nothing is appended. The caller holds the session
  /// lock (the RNG streams and channel ordering depend on it).
  [[nodiscard]] Status run_trusted_query(const std::string& query,
                                         SessionTable::LockedSession& session,
                                         Bytes& reply);

  /// Performs the engine round trip through the four socket ocalls and
  /// returns the engine's encoded result list, in plaintext.
  /// `session_rng` is the calling session's private DRBG (used for the
  /// encrypted engine link's envelope seal); the caller holds the session
  /// lock for the duration.
  [[nodiscard]] Result<Bytes> query_engine(const ObfuscatedQuery& obfuscated,
                                           crypto::SecureRandom& session_rng);

  [[nodiscard]] Status install_boundary();

  const engine::SearchEngine* engine_;
  const SecureEngineGateway* gateway_ = nullptr;
  const sgx::AttestationAuthority* authority_;
  Options options_;

  std::unique_ptr<sgx::EnclaveRuntime> enclave_;

  // ---- enclave-private state (conceptually inside the TEE) ----
  // The engine link's key, copied in once at construction (paper
  // footnote 2): query_engine seals every request to it and never reads
  // the host's gateway object. Absent = plain link.
  const std::optional<crypto::X25519Key> engine_link_key_;
  // Whether the proxy was built with an engine link (an engine or a
  // gateway), fixed at construction. Without one, each query is answered
  // right after obfuscation: the saturation mode of Figure 5 (§6.3).
  const bool has_engine_link_;
  // The static channel key and each handshake's ephemeral are drawn from
  // the enclave runtime's DRBG. The steady-state query path never touches
  // it: each session draws from its own RNG streams held in the session
  // table, so concurrent sessions obfuscate and seal without a shared lock.
  crypto::X25519KeyPair static_keys_{};
  sgx::Quote channel_quote_;  // over static_keys_.public_key
  std::unique_ptr<QueryHistory> history_;
  std::unique_ptr<Obfuscator> obfuscator_;
  ResultFilter filter_;

  // Bounded session subsystem: per-session channel locking + RNG streams,
  // LRU eviction, EPC accounting (see session_table.hpp for the locking
  // order).
  std::unique_ptr<SessionTable> sessions_;
  Status init_status_;

  // ---- recovery state ----
  // Serializes checkpoint writes (a supervisor's seal and a drain's final
  // seal can meet), so the newer blob is never overwritten by an older one.
  Mutex checkpoint_mutex_;
  metrics::Registry metrics_{"checkpoint"};
  metrics::Counter& checkpoints_written_ = metrics_.counter("written");
  metrics::Counter& checkpoint_write_failures_ = metrics_.counter("write_failures");
  metrics::Counter& restore_attempts_ = metrics_.counter("restore_attempts");
  metrics::Counter& restore_hits_ = metrics_.counter("restore_hits");
  metrics::Gauge& restored_entries_ = metrics_.gauge("restored_entries");

  // ---- untrusted host state: engine-path circuit breaker ----
  // Owned by the host half of the proxy and touched only from the `send`
  // ocall body and metrics(); null when disabled.
  std::unique_ptr<CircuitBreaker> engine_breaker_;

  // ---- untrusted host state: the ids of the "sockets" behind the ocalls ----
  // Each thread's open socket lives in a thread-local slot (proxy.cpp).
  std::atomic<std::uint64_t> next_socket_id_{1};
};

}  // namespace xsearch::core
