#include "net/remote_broker.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "xsearch/wire.hpp"

namespace xsearch::net {

namespace {

/// Validates a client-visible batch size against the wire bound.
Status check_batch_request_size(std::size_t count) {
  if (count == 0 || count > core::wire::kMaxBatchQueries) {
    return invalid_argument("broker: batch size must be 1.." +
                            std::to_string(core::wire::kMaxBatchQueries));
  }
  return Status::ok();
}

/// Decodes the proxy's reply to a batch of `expected` queries into
/// per-item outcomes.
Result<std::vector<BatchOutcome>> decode_batch_reply(
    core::wire::ClientMessage message, std::size_t expected) {
  if (message.type != core::wire::ClientMessageType::kResultsBatch) {
    return data_loss("broker: expected a results batch from the proxy");
  }
  if (message.batch.size() != expected) {
    return data_loss("broker: batch reply size mismatch");
  }
  std::vector<BatchOutcome> outcomes;
  outcomes.reserve(expected);
  for (auto& item : message.batch) {
    BatchOutcome outcome;
    if (item.ok) {
      outcome.results = std::move(item.results);
    } else {
      outcome.status = unavailable("proxy error: " + item.error);
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

/// Health signals: the proxy (or its engine) is unreachable, shedding, or
/// too slow. Everything else is a deterministic verdict (bad argument,
/// auth failure, unknown session) that says nothing about proxy health.
bool is_health_failure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kDataLoss:
    case StatusCode::kOverloaded:
    case StatusCode::kUpstreamDown:
      return true;
    default:
      return false;
  }
}

}  // namespace

RemoteBroker::RemoteBroker(std::string host, std::uint16_t port,
                           const sgx::AttestationAuthority& authority,
                           const sgx::Measurement& expected_measurement,
                           std::uint64_t seed)
    : RemoteBroker(std::move(host), port, authority, expected_measurement, seed,
                   Options{}) {}

RemoteBroker::RemoteBroker(std::string host, std::uint16_t port,
                           const sgx::AttestationAuthority& authority,
                           const sgx::Measurement& expected_measurement,
                           std::uint64_t seed, Options options)
    : RemoteBroker(tcp_connector(std::move(host), port), authority,
                   expected_measurement, seed, std::move(options)) {}

RemoteBroker::RemoteBroker(Connector connect,
                           const sgx::AttestationAuthority& authority,
                           const sgx::Measurement& expected_measurement,
                           std::uint64_t seed, Options options)
    : connect_(std::move(connect)),
      authority_(&authority),
      expected_measurement_(expected_measurement),
      rng_(crypto::domain_seed(seed, /*tag=*/0xb0)),  // remote-broker domain separation
      options_(std::move(options)),
      retry_budget_(options_.retry_budget),
      jitter_rng_(seed) {  // backoff jitter needs no crypto strength
  if (options_.breaker_enabled) {
    breaker_ = std::make_unique<CircuitBreaker>(options_.breaker);
  }
}

Status RemoteBroker::connect() { return connect_within(request_deadline()); }

metrics::Snapshot RemoteBroker::metrics() const {
  metrics::Snapshot out = metrics_.snapshot();
  if (breaker_ != nullptr) out.merge(breaker_->metrics());
  return out;
}

Status RemoteBroker::connect_within(const Deadline& deadline) {
  if (channel_.has_value()) return Status::ok();

  // The handshake gets its own (tighter) budget on top of the request's:
  // a stalled attestation should fail fast, not eat the whole deadline.
  Deadline effective = deadline;
  if (options_.connect_budget > 0) {
    effective = effective.min(Deadline::after(options_.connect_budget));
  }

  auto stream = connect_();
  if (!stream) return stream.status();
  stream_ = std::move(stream).value();

  const auto ephemeral = crypto::x25519_keypair_from_seed(rng_.key());

  FrameWriteOptions write_options;
  write_options.io_deadline = effective;
  XS_RETURN_IF_ERROR(write_frame(*stream_, FrameType::kHello,
                                 ephemeral.public_key, write_options));
  FrameReadOptions read_options;
  read_options.io_deadline = effective;
  auto reply = read_frame(*stream_, read_options);
  if (!reply) return reply.status();
  if (reply.value().type == FrameType::kErrorStatus) {
    return decode_error_status(reply.value().payload);
  }
  if (reply.value().type != FrameType::kHelloReply) {
    return data_loss("unexpected frame type in handshake");
  }

  const ByteSpan payload(reply.value().payload);
  std::size_t offset = 0;
  auto session = core::wire::get_u64(payload, offset);
  if (!session) return session.status();
  auto quote_len = core::wire::get_u32(payload, offset);
  if (!quote_len) return quote_len.status();
  if (offset + quote_len.value() + crypto::kX25519KeySize != payload.size()) {
    return data_loss("malformed hello reply");
  }
  auto quote = sgx::Quote::deserialize(payload.subspan(offset, quote_len.value()));
  if (!quote) return quote.status();
  offset += quote_len.value();
  crypto::X25519Key server_eph;
  std::memcpy(server_eph.data(), payload.data() + offset, server_eph.size());

  // Attestation gate: refuse to key the channel unless the quote is genuine
  // and names the expected enclave code.
  auto static_pub = sgx::verify_and_extract_channel_key(*authority_, quote.value(),
                                                        expected_measurement_);
  if (!static_pub) return static_pub.status();

  channel_.emplace(
      crypto::SecureChannel::initiator(ephemeral, static_pub.value(), server_eph));
  session_id_ = session.value();
  return Status::ok();
}

void RemoteBroker::reset_session() {
  stream_.reset();
  channel_.reset();
  session_id_ = 0;
}

void RemoteBroker::record_breaker_outcome(
    const Result<std::vector<BatchOutcome>>& attempt) {
  if (breaker_ == nullptr) return;
  // Exactly one outcome per allowed attempt, or a half-open probe is never
  // returned. The attempt failed if the transport did, or if every item
  // did, with a health code; a deterministic verdict is a proxy that
  // answered.
  const bool failed =
      attempt.is_ok()
          ? std::all_of(attempt.value().begin(), attempt.value().end(),
                        [](const BatchOutcome& outcome) {
                          return is_health_failure(outcome.status);
                        })
          : is_health_failure(attempt.status());
  if (failed) {
    breaker_->record_failure();
  } else {
    breaker_->record_success();
  }
}

bool RemoteBroker::prepare_retry(RetryState& retry, const Deadline& deadline,
                                 bool retryable, bool delivered) {
  if (!retryable || !retry.should_retry() || deadline.expired()) return false;
  if (!retry_budget_.try_spend()) {
    // Bucket empty: a persistently failing proxy degrades this connection
    // to one attempt per request instead of multiplying load.
    retries_budget_denied_.inc();
    return false;
  }
  if (delivered) at_least_once_retries_.inc();
  reset_session();
  reconnects_.inc();
  Nanos pause = retry.next_backoff(jitter_rng_);
  if (!deadline.is_infinite() && pause > deadline.remaining()) {
    pause = deadline.remaining();
  }
  if (pause > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(pause));
  }
  return true;
}

Result<std::vector<engine::SearchResult>> RemoteBroker::search(std::string_view query) {
  auto batch = search_batch({std::string(query)});
  if (!batch) return batch.status();
  BatchOutcome& outcome = batch.value().front();
  if (!outcome.status.is_ok()) return outcome.status;
  return std::move(outcome.results);
}

Result<std::vector<BatchOutcome>> RemoteBroker::search_batch(
    const std::vector<std::string>& queries) {
  // Validated before the breaker is consulted: a refused call must not
  // take a half-open probe it will never return.
  XS_RETURN_IF_ERROR(check_batch_request_size(queries.size()));
  const Bytes request = core::wire::frame_query_batch(queries);
  const Deadline deadline = request_deadline();
  retry_budget_.record_request();
  RetryState retry(options_.retry);
  for (;;) {
    if (breaker_ != nullptr && !breaker_->allow()) {
      // Fast fail: no connect, no frame, no wire bytes while open.
      return upstream_down("broker: circuit breaker open");
    }
    bool retryable = false;
    bool delivered = false;
    auto attempt =
        round_trip(request, queries.size(), deadline, retryable, delivered);
    retry.note_attempt();
    record_breaker_outcome(attempt);
    if (attempt.is_ok()) return attempt;
    // Only transport/session-level failures reach here: per-item failures
    // in a parsed reply are final verdicts, and a blind re-send would
    // duplicate the successful items. The session died under us
    // (bounded-table eviction, idle expiry, broken or shed connection) or
    // the channel desynced: fresh attested handshake, bounded retries with
    // jittered backoff. A frame that never hit the wire retries
    // exactly-once; one that did is the counted at-least-once case — the
    // reply was lost, so the whole frame (the smallest unit the proxy can
    // execute) must be re-sent.
    if (!prepare_retry(retry, deadline, retryable, delivered)) return attempt;
  }
}

Result<std::vector<BatchOutcome>> RemoteBroker::round_trip(
    ByteSpan request, std::size_t count, const Deadline& deadline,
    bool& retryable, bool& delivered) {
  XS_RETURN_IF_ERROR(connect_within(deadline));

  Bytes payload;
  core::wire::put_u64(payload, session_id_);
  append(payload, channel_->seal(request));
  FrameWriteOptions write_options;
  write_options.io_deadline = deadline;
  // Carry the REMAINING budget (not the original) so every hop downstream
  // sees how much time the request really has left (0 = no deadline).
  write_options.budget_millis = deadline.budget_millis();
  if (auto written =
          write_frame(*stream_, FrameType::kQuery, payload, write_options);
      !written.is_ok()) {
    // The frame never reached the transport: retrying cannot duplicate
    // work on the proxy.
    retryable = true;
    return written;
  }
  delivered = true;
  frames_sent_.inc();

  FrameReadOptions read_options;
  read_options.io_deadline = deadline;
  auto reply = read_frame(*stream_, read_options);
  if (!reply) {
    retryable = true;
    return reply.status();
  }
  if (reply.value().type == FrameType::kErrorStatus) {
    // A frame-level error means the proxy never opened our record (unknown
    // session, auth failure, deadline or overload shed, breaker open): our
    // send counter advanced but the proxy's receive counter did not, so the
    // channel is unusable — and since nothing was executed, a retry cannot
    // duplicate work. The typed code lets the caller (and its breaker)
    // tell the cases apart.
    retryable = true;
    delivered = false;
    return decode_error_status(reply.value().payload);
  }
  if (reply.value().type != FrameType::kQueryReply) {
    retryable = true;
    return data_loss("unexpected frame type in query reply");
  }

  // Opened where it lies: the reply frame's payload buffer becomes the
  // plaintext, with no copy.
  auto plaintext = channel_->open_in_place(reply.value().payload);
  if (!plaintext) {
    retryable = true;
    return plaintext.status();
  }
  auto message = core::wire::parse_client_message(plaintext.value());
  if (!message) return message.status();
  queries_sent_.inc(count);
  return decode_batch_reply(std::move(message).value(), count);
}

}  // namespace xsearch::net
