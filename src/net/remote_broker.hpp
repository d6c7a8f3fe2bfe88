// Client-side query broker (paper §4.2).
//
// "This broker runs within the client's domain, such as a local daemon
// process executing alongside the client's Web browser. The broker is in
// charge of the SGX attestation step." On first use it performs the
// attested handshake — verifying the enclave quote against the expected
// measurement before trusting the channel key — then exchanges sealed
// records with the enclave in the frames of net/frame.hpp.
//
// The broker reaches the proxy through a `Connector`: over TCP
// (`tcp_connector`, what the host/port constructors use) or in-process
// (`in_process_connector` in net/frame_protocol.hpp), which runs the
// server's own frame protocol without sockets. Either way, every request
// goes through the same framing, typed errors and deadline handling.
//
// Every request is a query batch; `search` is a batch of one.
//
// Robustness model (one request = one `search`/`search_batch` call):
//
//  * Every call runs under an end-to-end deadline derived from
//    `Options::request_budget` (0 = none). The deadline bounds every socket
//    operation, rides the wire as the frame budget so the server can
//    refuse work it cannot finish in time, and caps the retry loop.
//  * The proxy's session table is bounded (LRU), so an established
//    session can legitimately disappear between two queries; the
//    connection can also die (server restart, shed connection). The broker
//    recovers by discarding the channel, re-attesting through a
//    fresh handshake, and retrying under `Options::retry` — capped
//    attempts with decorrelated-jitter backoff — as long as the
//    per-connection `RetryBudget` has tokens and the deadline has time.
//    Failures during the initial attestation itself (wrong measurement,
//    rogue authority, refused connection) are never retried.
//  * A client-side `CircuitBreaker` (optional) watches each attempt's
//    outcome; while it is open, calls fail fast with UPSTREAM_DOWN and
//    never touch the wire, then half-open probes restore service.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/circuit_breaker.hpp"
#include "common/deadline.hpp"
#include "common/metrics.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "crypto/random.hpp"
#include "crypto/secure_channel.hpp"
#include "engine/document.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::net {

/// Client-side outcome of one query inside a batch round trip. The batch
/// travels as ONE sealed record each way; failures of individual queries
/// (engine refusing one of them) surface here per item.
struct BatchOutcome {
  Status status;
  std::vector<engine::SearchResult> results;
};

/// Robustness knobs of a RemoteBroker (see the file comment).
struct RemoteBrokerOptions {
  /// End-to-end budget for one `search`/`search_batch` call, covering
  /// every attempt, backoff pause, and socket operation. 0 = unbounded
  /// (the historical behavior). Also carried on the wire so the server
  /// sheds work whose budget already expired.
  Nanos request_budget = 0;
  /// Budget for connect + attested handshake (0 = unbounded). Always
  /// additionally capped by the remaining request budget.
  Nanos connect_budget = 0;
  /// Attempt cap + backoff curve for session-recovery retries. The
  /// default (two attempts) preserves the historical retry-exactly-once.
  RetryPolicy retry;
  /// Token bucket damping retry storms across the connection's lifetime.
  RetryBudget::Options retry_budget;
  /// Client-side breaker over transport-level outcomes. Absent (the
  /// default) = no breaker; when set, open-state calls fail fast without
  /// wire I/O.
  std::optional<CircuitBreaker::Options> breaker;
};

class RemoteBroker {
 public:
  using Options = RemoteBrokerOptions;

  /// The broker opens every connection (initial and after each failure)
  /// through `connect`. Fault-injection tests wrap the stream it returns,
  /// e.g. in a ChaosSocket.
  RemoteBroker(Connector connect, const sgx::AttestationAuthority& authority,
               const sgx::Measurement& expected_measurement, std::uint64_t seed,
               Options options = {});
  /// Over TCP to host:port.
  RemoteBroker(std::string host, std::uint16_t port,
               const sgx::AttestationAuthority& authority,
               const sgx::Measurement& expected_measurement, std::uint64_t seed,
               Options options = {});

  /// Connects, attests, establishes the channel. Idempotent.
  [[nodiscard]] Status connect();

  /// One private search: a batch of one through `search_batch`. A failed
  /// item surfaces as the returned status.
  [[nodiscard]] Result<std::vector<engine::SearchResult>> search(
      std::string_view query);

  /// Many private searches in one kQuery frame: ONE sealed record each way
  /// and one round trip, so AEAD and syscall cost amortize over the batch
  /// (1..core::wire::kMaxBatchQueries queries; other sizes are refused
  /// with INVALID_ARGUMENT before any wire or breaker work). Whole-batch
  /// transport failures are the returned status; per-query failures are
  /// per-item. Runs within the request budget and transparently
  /// re-handshakes and retries (policy- and budget-capped) when the proxy
  /// evicted the session or the connection broke mid-request.
  ///
  /// Retry semantics are *at-least-once*, and only where unavoidable. The
  /// batch travels as one frame, so per-item delivery states do not exist:
  ///  * per-item failures in a received reply are final (deterministic
  ///    engine/proxy verdicts) — they are NOT blindly retried;
  ///  * a failure before the frame reached the wire — and a frame-level
  ///    error reply, which means the proxy refused the record without
  ///    opening it — retries with exactly-once semantics;
  ///  * a frame that was sent but whose reply was lost (dead connection,
  ///    garbled reply) is the ambiguous case: the proxy may have executed
  ///    the whole batch, and the retry may execute it again (duplicate
  ///    history entries and engine traffic, no channel-safety impact).
  ///    These retries are counted in `broker.at_least_once_retries` so
  ///    deployments can observe the duplication risk they actually took.
  ///
  /// With the breaker enabled, each attempt records one outcome: a failure
  /// when the transport failed, or every item failed, with a health code
  /// (UNAVAILABLE, DEADLINE_EXCEEDED, DATA_LOSS, OVERLOADED,
  /// UPSTREAM_DOWN); a success otherwise, since the proxy answered.
  [[nodiscard]] Result<std::vector<BatchOutcome>> search_batch(
      const std::vector<std::string>& queries);

  [[nodiscard]] bool connected() const { return channel_.has_value(); }

  /// Current session id (0 before connect). Routing metadata only.
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }

  /// `broker.*`: reconnects, at_least_once_retries (frames re-sent after
  /// their reply was LOST, so the proxy may have run them twice; see
  /// search_batch), retries_budget_denied, frames_sent, queries_sent —
  /// plus the client breaker's `breaker.*` when it is enabled.
  [[nodiscard]] metrics::Snapshot metrics() const;

 private:
  /// One attempt: seals `request` (a framed batch of `count` queries),
  /// sends it as a kQuery frame and decodes the reply. Sets `retryable`
  /// when the failure left the session unusable (channel nonce desync or
  /// dead transport) and a fresh handshake may succeed, and `delivered`
  /// once the frame was handed to the transport (after which a retry is
  /// at-least-once).
  [[nodiscard]] Result<std::vector<BatchOutcome>> round_trip(
      ByteSpan request, std::size_t count, const Deadline& deadline,
      bool& retryable, bool& delivered);
  [[nodiscard]] Status connect_within(const Deadline& deadline);
  void reset_session();
  /// Overall deadline for one client call.
  [[nodiscard]] Deadline request_deadline() const {
    return options_.request_budget > 0 ? Deadline::after(options_.request_budget)
                                       : Deadline();
  }
  /// Breaker bookkeeping for one attempt's outcome.
  void record_breaker_outcome(const Result<std::vector<BatchOutcome>>& attempt);
  /// Decides whether to go around the retry loop again; on yes, resets the
  /// session, sleeps out the backoff (deadline-capped) and returns true.
  [[nodiscard]] bool prepare_retry(RetryState& retry, const Deadline& deadline,
                                   bool retryable, bool delivered);

  Connector connect_;
  const sgx::AttestationAuthority* authority_;
  sgx::Measurement expected_measurement_;
  crypto::SecureRandom rng_;
  Options options_;
  RetryBudget retry_budget_;
  std::unique_ptr<CircuitBreaker> breaker_;
  Rng jitter_rng_;

  std::unique_ptr<ByteStream> stream_;
  std::optional<crypto::SecureChannel> channel_;
  std::uint64_t session_id_ = 0;

  metrics::Registry metrics_{"broker"};
  metrics::Counter& reconnects_ = metrics_.counter("reconnects");
  metrics::Counter& at_least_once_retries_ = metrics_.counter("at_least_once_retries");
  metrics::Counter& retries_budget_denied_ = metrics_.counter("retries_budget_denied");
  metrics::Counter& frames_sent_ = metrics_.counter("frames_sent");
  metrics::Counter& queries_sent_ = metrics_.counter("queries_sent");
};

}  // namespace xsearch::net
