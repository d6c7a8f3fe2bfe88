#include "xsearch/proxy.hpp"

#include <cassert>
#include <cstring>

#include "crypto/envelope.hpp"
#include "xsearch/checkpoint.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {

namespace {

// Request-ecall framing: one tag byte selects the trusted entry point.
// kTagHeartbeat and kTagCheckpoint are host-invoked (like kTagHandshake):
// the supervisor's liveness probe and the sealed-history export.
constexpr std::uint8_t kTagHandshake = 1;
constexpr std::uint8_t kTagQuery = 2;
constexpr std::uint8_t kTagHeartbeat = 3;
constexpr std::uint8_t kTagCheckpoint = 4;

constexpr char kCheckpointFileName[] = "history.ckpt";

constexpr char kCodeIdentity[] =
    "xsearch-enclave v1.1: history+obfuscation+filtering, "
    "ecalls{init,request} ocalls{sock_connect,send,recv,close}";

// The deadline of the query whose `request` ecall is running on this
// thread. The ecall executes on the caller's thread, so the `send` ocall
// body (host code) reads the budget here without it ever crossing into
// the enclave. Trusted code never reads it (or any clock); the deadline is
// host input, enforced host-side only: before the ecall
// (handle_query_record) and before the engine call (`send` ocall).
thread_local Deadline t_host_request_deadline;  // default: infinite

/// Publishes a request's deadline for the duration of its ecall and
/// restores the previous value on exit, so it never leaks into the next
/// request served by the same thread.
class HostDeadlineScope {
 public:
  explicit HostDeadlineScope(Deadline deadline)
      : previous_(t_host_request_deadline) {
    t_host_request_deadline = deadline;
  }
  ~HostDeadlineScope() { t_host_request_deadline = previous_; }

  HostDeadlineScope(const HostDeadlineScope&) = delete;
  HostDeadlineScope& operator=(const HostDeadlineScope&) = delete;

 private:
  Deadline previous_;
};

}  // namespace

Bytes XSearchProxy::code_identity() { return to_bytes(kCodeIdentity); }

Status XSearchProxy::Options::validate() const {
  if (k == 0) {
    return invalid_argument("options.k must be >= 1: k = 0 sends the user's "
                            "query without any obfuscation");
  }
  if (history_capacity == 0) {
    return invalid_argument("options.history_capacity must be >= 1: the "
                            "obfuscator draws fakes from the history window");
  }
  if (results_per_subquery == 0) {
    return invalid_argument("options.results_per_subquery must be >= 1: the "
                            "engine would return nothing to filter");
  }
  if (session_capacity == 0) {
    return invalid_argument("options.session_capacity must be >= 1: the "
                            "proxy could never hold a client session");
  }
  return Status::ok();
}

Result<std::unique_ptr<XSearchProxy>> XSearchProxy::create(
    const engine::SearchEngine* engine, const sgx::AttestationAuthority& authority,
    Options options) {
  XS_RETURN_IF_ERROR(options.validate());
  if (options.engine_tls_public_key.has_value()) {
    return invalid_argument(
        "engine_tls_public_key requires the SecureEngineGateway overload");
  }
  if (engine == nullptr && options.contact_engine) {
    return failed_precondition(
        "an engine is required unless contact_engine is disabled");
  }
  auto proxy = std::unique_ptr<XSearchProxy>(
      new XSearchProxy(engine, authority, options));
  XS_RETURN_IF_ERROR(proxy->init_status_);
  return proxy;
}

Result<std::unique_ptr<XSearchProxy>> XSearchProxy::create(
    const SecureEngineGateway& gateway, const sgx::AttestationAuthority& authority,
    Options options) {
  XS_RETURN_IF_ERROR(options.validate());
  if (options.engine_tls_public_key.has_value() &&
      !(options.engine_tls_public_key == gateway.public_key())) {
    return invalid_argument(
        "engine_tls_public_key must match the gateway's public key");
  }
  auto proxy = std::unique_ptr<XSearchProxy>(
      new XSearchProxy(gateway, authority, options));
  XS_RETURN_IF_ERROR(proxy->init_status_);
  return proxy;
}

void XSearchProxy::warm_history(const std::vector<std::string>& queries) {
  for (const auto& query : queries) history_->add(query);
}

XSearchProxy::XSearchProxy(const engine::SearchEngine* engine,
                           const sgx::AttestationAuthority& authority, Options options)
    : engine_(engine),
      authority_(&authority),
      options_(options),
      filter_(options.filter_scoring),
      secure_rng_(crypto::domain_seed(options.seed, /*tag=*/0x42)) {
  assert((engine_ != nullptr || !options_.contact_engine) &&
         "engine required unless contact_engine is disabled");
  assert(!options_.engine_tls_public_key.has_value() &&
         "encrypted engine link requires the gateway constructor");
  init_status_ = install_boundary();
}

XSearchProxy::XSearchProxy(const SecureEngineGateway& gateway,
                           const sgx::AttestationAuthority& authority, Options options)
    : engine_(nullptr),
      gateway_(&gateway),
      authority_(&authority),
      options_(options),
      filter_(options.filter_scoring),
      secure_rng_(crypto::domain_seed(options.seed, /*tag=*/0x42)) {
  if (!options_.engine_tls_public_key.has_value()) {
    options_.engine_tls_public_key = gateway.public_key();
  }
  assert(options_.engine_tls_public_key == gateway.public_key() &&
         "pinned engine key must match the gateway");
  init_status_ = install_boundary();
}

Status XSearchProxy::install_boundary() {
  if (options_.engine_breaker_enabled) {
    engine_breaker_ = std::make_unique<CircuitBreaker>(options_.engine_breaker);
  }
  sgx::EnclaveRuntime::Config config;
  config.code_identity = code_identity();
  config.usable_epc_bytes = options_.usable_epc_bytes;
  enclave_ = std::make_unique<sgx::EnclaveRuntime>(std::move(config));

  // Enclave-private key material and query table. Construction is
  // single-threaded, but the DRBG is guarded uniformly so the analysis has
  // one rule to check (the lock is free of contention here). The seed stays
  // secret-typed from DRBG to key pair — no raw staging buffer.
  crypto::X25519Secret seed;
  {
    MutexLock lock(handshake_mutex_);
    seed = secure_rng_.key();
  }
  static_keys_ = crypto::x25519_keypair_from_seed(seed);
  history_ = std::make_unique<QueryHistory>(options_.history_capacity, &enclave_->epc());
  obfuscator_ = std::make_unique<Obfuscator>(*history_, options_.k);
  sessions_ = std::make_unique<SessionTable>(
      SessionTable::Options{.capacity = options_.session_capacity,
                            .idle_ttl = options_.session_idle_ttl,
                            .shards = options_.session_shards,
                            .rng_seed = options_.seed},
      &enclave_->epc());

  // The paper's narrowed enclave interface, keyed by the typed boundary
  // table (sgx/boundary.hpp) — no string dispatch anywhere on the path.
  enclave_->register_ecall(sgx::EcallId::kInit,
                           [this](ByteSpan p) { return ecall_init(p); });
  enclave_->register_ecall(sgx::EcallId::kRequest,
                           [this](ByteSpan p) { return ecall_request(p); });

  enclave_->register_ocall(sgx::OcallId::kSockConnect, [this](ByteSpan) -> Result<Bytes> {
    const std::uint64_t id =
        next_socket_id_.fetch_add(1, std::memory_order_relaxed);
    {
      SocketShard& shard = socket_shard(id);
      MutexLock lock(shard.mutex);
      shard.buffers[id] = {};
    }
    Bytes out;
    wire::put_u64(out, id);
    return out;
  });

  enclave_->register_ocall(sgx::OcallId::kSend, [this](ByteSpan payload) -> Result<Bytes> {
    std::size_t offset = 0;
    auto sock = wire::get_u64(payload, offset);
    if (!sock) return sock.status();
    const ByteSpan body = payload.subspan(offset);

    // Failure-domain checks, all host-side (this lambda is the untrusted
    // half of the boundary): a request whose budget is already spent, or
    // whose engine dependency the breaker has declared down, fails here
    // without touching the engine.
    if (engine_breaker_ != nullptr && !engine_breaker_->allow()) {
      return upstream_down("engine: circuit breaker open");
    }
    if (options_.engine_fault_hook) {
      // Injected chaos (latency and/or failure) stands in for a degraded
      // engine; its failures feed the breaker like real ones.
      const Status injected = options_.engine_fault_hook();
      if (!injected.is_ok()) {
        if (engine_breaker_ != nullptr) engine_breaker_->record_failure();
        return injected;
      }
    }
    if (t_host_request_deadline.expired()) {
      // The engine (real or injected-slow) would answer too late anyway;
      // an engine path that burns whole budgets counts against the breaker.
      if (engine_breaker_ != nullptr) engine_breaker_->record_failure();
      return deadline_exceeded("engine: request budget exhausted");
    }

    // The untrusted host relays the request and parks the response in the
    // socket buffer until the enclave recv()s it. With the encrypted engine
    // link the host only ever sees envelope ciphertext here.
    Bytes response;
    if (gateway_ != nullptr) {
      auto sealed = gateway_->handle(body);
      if (!sealed) {
        if (engine_breaker_ != nullptr) engine_breaker_->record_failure();
        return sealed.status();
      }
      response = std::move(sealed).value();
    } else {
      auto request = wire::parse_engine_request(body);
      if (!request) return request.status();
      if (engine_ == nullptr) {
        if (engine_breaker_ != nullptr) engine_breaker_->record_failure();
        return unavailable("no engine connected");
      }
      response = wire::serialize_results(engine_->search_or(
          request.value().sub_queries, request.value().top_k_each));
    }
    if (engine_breaker_ != nullptr) engine_breaker_->record_success();
    SocketShard& shard = socket_shard(sock.value());
    MutexLock lock(shard.mutex);
    const auto it = shard.buffers.find(sock.value());
    if (it == shard.buffers.end()) return not_found("send: bad socket");
    it->second = std::move(response);
    return Bytes{};
  });

  enclave_->register_ocall(sgx::OcallId::kRecv, [this](ByteSpan payload) -> Result<Bytes> {
    std::size_t offset = 0;
    auto sock = wire::get_u64(payload, offset);
    if (!sock) return sock.status();
    SocketShard& shard = socket_shard(sock.value());
    MutexLock lock(shard.mutex);
    const auto it = shard.buffers.find(sock.value());
    if (it == shard.buffers.end()) return not_found("recv: bad socket");
    // Moved out, not copied: the response crosses the boundary exactly once
    // and the subsequent `close` erases the (now empty) slot anyway.
    return std::move(it->second);
  });

  enclave_->register_ocall(sgx::OcallId::kClose, [this](ByteSpan payload) -> Result<Bytes> {
    std::size_t offset = 0;
    auto sock = wire::get_u64(payload, offset);
    if (!sock) return sock.status();
    SocketShard& shard = socket_shard(sock.value());
    MutexLock lock(shard.mutex);
    shard.buffers.erase(sock.value());
    return Bytes{};
  });

  // Warm restart: replay the sealed checkpoint (if one exists) into the
  // fresh history before serving. Runs at construction, conceptually part
  // of enclave init — the host supplies only the opaque blob.
  restore_checkpoint();

  // Configure the trusted side through the init ecall, as the SDK would.
  // A failure here (the enclave refusing the host's configuration) is
  // recorded and surfaced by `create`, not swallowed.
  Bytes init_payload;
  wire::put_u32(init_payload, static_cast<std::uint32_t>(options_.k));
  wire::put_u32(init_payload, options_.results_per_subquery);
  return enclave_->ecall(sgx::EcallId::kInit, init_payload).status();
}

std::filesystem::path XSearchProxy::checkpoint_path() const {
  if (options_.checkpoint_dir.empty()) return {};
  return options_.checkpoint_dir / kCheckpointFileName;
}

void XSearchProxy::restore_checkpoint() {
  if (options_.checkpoint_dir.empty()) return;
  auto blob = read_checkpoint_file(checkpoint_path());
  if (!blob) return;  // no checkpoint yet: plain cold start
  restore_attempted_ = true;

  SessionObfuscationCounts sessions;
  const Status restored =
      restore_history(*enclave_, blob.value(), *history_, &sessions);
  if (!restored.is_ok()) {
    // Tampered or truncated blob: discard the (possibly partial) replay
    // and fall back to a clean cold start rather than a corrupt window.
    history_ =
        std::make_unique<QueryHistory>(options_.history_capacity, &enclave_->epc());
    obfuscator_ = std::make_unique<Obfuscator>(*history_, options_.k);
    return;
  }
  restore_hit_ = true;
  restored_entries_ = history_->size();
  restored_sessions_ = sessions.size();
  sessions_->set_resume_generations(std::move(sessions));
}

Status XSearchProxy::checkpoint_now() {
  if (options_.checkpoint_dir.empty()) {
    return failed_precondition("checkpointing disabled: no checkpoint_dir");
  }
  MutexLock lock(checkpoint_mutex_);
  return checkpoint_locked();
}

void XSearchProxy::maybe_checkpoint() {
  if (options_.checkpoint_dir.empty() ||
      options_.checkpoint_interval_queries == 0) {
    return;
  }
  if (queries_since_checkpoint_.load(std::memory_order_relaxed) <
      options_.checkpoint_interval_queries) {
    return;
  }
  // Contended means a checkpoint is being written right now — skip instead
  // of queueing a redundant one behind it.
  if (!checkpoint_mutex_.try_lock()) return;
  MutexLock lock(checkpoint_mutex_, std::adopt_lock);
  (void)checkpoint_locked();
}

Status XSearchProxy::checkpoint_locked() {
  queries_since_checkpoint_.store(0, std::memory_order_relaxed);
  // The sealing runs inside the enclave (the checkpoint tag of the
  // `request` ecall); the host persists the opaque blob it gets back.
  Bytes payload;
  payload.push_back(kTagCheckpoint);
  auto sealed = enclave_->ecall(sgx::EcallId::kRequest, payload);
  if (!sealed) {
    checkpoint_write_failures_.fetch_add(1, std::memory_order_relaxed);
    return sealed.status();
  }
  const Status written = write_checkpoint_file(checkpoint_path(), sealed.value());
  if (written.is_ok()) {
    checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  } else {
    checkpoint_write_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return written;
}

Status XSearchProxy::heartbeat() {
  Bytes payload;
  payload.push_back(kTagHeartbeat);
  return enclave_->ecall(sgx::EcallId::kRequest, payload).status();
}

XSearchProxy::CheckpointStats XSearchProxy::checkpoint_stats() const {
  CheckpointStats out;
  out.enabled = !options_.checkpoint_dir.empty();
  out.restore_attempted = restore_attempted_;
  out.restore_hit = restore_hit_;
  out.restored_entries = restored_entries_;
  out.restored_sessions = restored_sessions_;
  out.written = checkpoints_written_.load(std::memory_order_relaxed);
  out.write_failures = checkpoint_write_failures_.load(std::memory_order_relaxed);
  return out;
}

Result<Bytes> XSearchProxy::ecall_init(ByteSpan payload) {
  std::size_t offset = 0;
  auto k = wire::get_u32(payload, offset);
  if (!k) return k.status();
  auto per_subquery = wire::get_u32(payload, offset);
  if (!per_subquery) return per_subquery.status();
  // k and results_per_subquery already live in options_; the ecall verifies
  // the host passed a configuration consistent with the measured one.
  if (k.value() != options_.k || per_subquery.value() != options_.results_per_subquery) {
    return invalid_argument("init: configuration mismatch");
  }
  return Bytes{};
}

Result<Bytes> XSearchProxy::ecall_request(ByteSpan payload) {
  if (payload.empty()) return invalid_argument("request: empty payload");
  const std::uint8_t tag = payload[0];
  const ByteSpan body = payload.subspan(1);
  switch (tag) {
    case kTagHandshake:
      return trusted_handshake(body);
    case kTagQuery:
      return trusted_query(body);
    case kTagHeartbeat:
      return trusted_heartbeat();
    case kTagCheckpoint:
      return trusted_checkpoint();
    default:
      return invalid_argument("request: unknown tag");
  }
}

Result<Bytes> XSearchProxy::trusted_handshake(ByteSpan payload) {
  // Either a bare client key, or key || u64 host-proposed session id (the
  // fleet router's consistent-hash ids — untrusted routing metadata).
  std::uint64_t proposed_id = 0;
  if (payload.size() == crypto::kX25519KeySize + 8) {
    std::size_t offset = crypto::kX25519KeySize;
    auto proposed = wire::get_u64(payload, offset);
    if (!proposed) return proposed.status();
    proposed_id = proposed.value();
  } else if (payload.size() != crypto::kX25519KeySize) {
    return invalid_argument("handshake: bad client key size");
  }
  crypto::X25519Key client_pub;
  std::memcpy(client_pub.data(), payload.data(), client_pub.size());

  crypto::X25519Secret eph_seed;
  {
    MutexLock lock(handshake_mutex_);
    eph_seed = secure_rng_.key();
  }
  const crypto::X25519KeyPair ephemeral = crypto::x25519_keypair_from_seed(eph_seed);

  // The table is bounded: this may evict the least-recently-used session
  // (whose client will be told "unknown session" and must re-handshake).
  const std::uint64_t session_id = sessions_->insert(
      crypto::SecureChannel::responder(static_keys_, ephemeral, client_pub),
      proposed_id);
  if (session_id == 0) {
    return failed_precondition("handshake: proposed session id already in use");
  }

  const sgx::Quote quote =
      quote_channel_key(*authority_, *enclave_, static_keys_.public_key);

  Bytes out;
  wire::put_u64(out, session_id);
  const Bytes quote_bytes = quote.serialize();
  wire::put_u32(out, static_cast<std::uint32_t>(quote_bytes.size()));
  append(out, quote_bytes);
  append(out, ephemeral.public_key);
  return out;
}

Result<Bytes> XSearchProxy::trusted_query(ByteSpan payload) {
  std::size_t offset = 0;
  auto session_id = wire::get_u64(payload, offset);
  if (!session_id) return session_id.status();

  // The locked handle serializes this session's channel (its nonce counters
  // require records to be processed in seal order) and keeps the session
  // alive even if the table evicts it mid-request. It is held through the
  // engine round trip so the sealed response order matches too; queries on
  // other sessions are untouched by this lock.
  auto session = sessions_->acquire(session_id.value());
  if (!session) {
    return not_found("query: unknown session (never opened, idle-expired, "
                     "or evicted by the bounded session table)");
  }
  crypto::SecureChannel& channel = session.channel();

  auto plaintext = channel.open(payload.subspan(offset));
  if (!plaintext) return plaintext.status();
  auto message = wire::parse_client_message(plaintext.value());
  if (!message) return message.status();

  if (message.value().type == wire::ClientMessageType::kQuery) {
    auto filtered = run_trusted_query(message.value().query, session);
    if (!filtered) {
      return Bytes(channel.seal(wire::frame_error(filtered.status().to_string())));
    }
    return Bytes(channel.seal(wire::frame_results(filtered.value())));
  }

  if (message.value().type == wire::ClientMessageType::kQueryBatch) {
    // The whole batch was opened with ONE AEAD operation and is answered
    // with one sealed reply — the per-query channel-crypto and boundary
    // cost amortizes over the batch. Item failures (engine refusing one
    // query) stay per-item so they cannot poison their neighbours.
    std::vector<wire::BatchItem> items;
    items.reserve(message.value().queries.size());
    for (const auto& query : message.value().queries) {
      wire::BatchItem item;
      auto filtered = run_trusted_query(query, session);
      if (filtered) {
        item.ok = true;
        item.results = std::move(filtered).value();
      } else {
        item.error = filtered.status().to_string();
      }
      items.push_back(std::move(item));
    }
    return Bytes(channel.seal(wire::frame_results_batch(items)));
  }

  return invalid_argument("query: expected a query or query-batch message");
}

Result<Bytes> XSearchProxy::trusted_heartbeat() {
  // Proof of life from inside the TEE: the probe answers with the history
  // depth, so a supervisor can watch decoy quality recover after a warm
  // restart without any extra ecall surface.
  Bytes out;
  wire::put_u64(out, history_->size());
  return out;
}

Result<Bytes> XSearchProxy::trusted_checkpoint() {
  // Seal the history plus each session's cumulative stream generation
  // (format v2). Runs inside the enclave; only the sealed blob crosses out.
  return Bytes(
      seal_history(*enclave_, *history_, sessions_->checkpoint_generations()));
}

Result<std::vector<engine::SearchResult>> XSearchProxy::run_trusted_query(
    const std::string& query, SessionTable::LockedSession& session) {
  // Algorithm 1 inside the enclave. Randomness comes from this session's
  // private stream (guarded by the held session lock), so concurrent
  // sessions obfuscate in parallel: no global RNG lock exists on this path.
  ObfuscatedQuery obfuscated = obfuscator_->obfuscate(query, session.rng());
  session.note_obfuscation();
  queries_since_checkpoint_.fetch_add(1, std::memory_order_relaxed);

  std::vector<engine::SearchResult> filtered;
  if (options_.contact_engine) {
    auto results = query_engine(obfuscated, session.secure_rng());
    if (!results) return results.status();
    // Algorithm 2 inside the enclave, plus analytics scrubbing.
    filtered = filter_.filter(obfuscated.original, obfuscated.fakes,
                              std::move(results).value());
  }
  return filtered;
}

Result<std::vector<engine::SearchResult>> XSearchProxy::query_engine(
    const ObfuscatedQuery& obfuscated, crypto::SecureRandom& session_rng) {
  // sock_connect
  auto sock_raw =
      enclave_->ocall(sgx::OcallId::kSockConnect, to_bytes("search.example:443"));
  if (!sock_raw) return sock_raw.status();
  std::size_t offset = 0;
  auto sock = wire::get_u64(sock_raw.value(), offset);
  if (!sock) return sock.status();

  // send: the OR query leaves the enclave; only the obfuscated form is
  // visible to the host and the engine — and with the encrypted engine link
  // (footnote 2) the host sees only envelope ciphertext.
  wire::EngineRequest request;
  request.sub_queries = obfuscated.sub_queries;
  request.top_k_each = options_.results_per_subquery;
  const Bytes request_bytes = wire::serialize_engine_request(request);

  crypto::AeadKey response_key{};
  Bytes send_payload;
  wire::put_u64(send_payload, sock.value());
  if (options_.engine_tls_public_key.has_value()) {
    append(send_payload,
           crypto::envelope_seal(*options_.engine_tls_public_key, session_rng,
                                 to_bytes("xsearch-engine-link-v1"), request_bytes,
                                 &response_key));
  } else {
    append(send_payload, request_bytes);
  }
  // send, then recv; close runs on every exit once the socket exists, so a
  // failed round trip (open breaker, injected fault, spent budget, missing
  // engine) never strands the host's socket buffer.
  Bytes sock_payload;
  wire::put_u64(sock_payload, sock.value());
  auto response = [&]() -> Result<Bytes> {
    XS_RETURN_IF_ERROR(
        enclave_->ocall(sgx::OcallId::kSend, send_payload).status());
    return enclave_->ocall(sgx::OcallId::kRecv, sock_payload);
  }();
  (void)enclave_->ocall(sgx::OcallId::kClose, sock_payload);
  if (!response) return response.status();

  if (options_.engine_tls_public_key.has_value()) {
    auto plain = crypto::envelope_reply_open(
        response_key, to_bytes("xsearch-engine-link-v1"), response.value());
    if (!plain) return plain.status();
    return wire::parse_results(plain.value());
  }
  return wire::parse_results(response.value());
}

Result<XSearchProxy::HandshakeResponse> XSearchProxy::handshake(
    const crypto::X25519Key& client_ephemeral_pub,
    std::uint64_t proposed_session_id) {
  Bytes payload;
  payload.push_back(kTagHandshake);
  append(payload, client_ephemeral_pub);
  if (proposed_session_id != 0) wire::put_u64(payload, proposed_session_id);
  auto raw = enclave_->ecall(sgx::EcallId::kRequest, payload);
  if (!raw) return raw.status();

  std::size_t offset = 0;
  HandshakeResponse out;
  auto session_id = wire::get_u64(raw.value(), offset);
  if (!session_id) return session_id.status();
  out.session_id = session_id.value();
  auto quote_len = wire::get_u32(raw.value(), offset);
  if (!quote_len) return quote_len.status();
  if (offset + quote_len.value() + crypto::kX25519KeySize != raw.value().size()) {
    return data_loss("handshake: malformed enclave response");
  }
  auto quote = sgx::Quote::deserialize(
      ByteSpan(raw.value().data() + offset, quote_len.value()));
  if (!quote) return quote.status();
  out.quote = std::move(quote).value();
  offset += quote_len.value();
  std::memcpy(out.server_ephemeral_pub.data(), raw.value().data() + offset,
              out.server_ephemeral_pub.size());
  return out;
}

Result<Bytes> XSearchProxy::handle_query_record(std::uint64_t session_id,
                                                ByteSpan record) {
  return handle_query_record(session_id, record, Deadline());
}

Result<Bytes> XSearchProxy::handle_query_record(std::uint64_t session_id,
                                                ByteSpan record,
                                                const Deadline& deadline) {
  if (deadline.expired()) {
    // Refused before the ecall: the record was never opened, so the channel
    // stays consistent from the proxy's view and a client retry (after its
    // session reset) is exactly-once safe.
    return deadline_exceeded("proxy: request budget exhausted before the ecall");
  }
  Bytes payload;
  payload.push_back(kTagQuery);
  wire::put_u64(payload, session_id);
  append(payload, record);
  auto response = [&] {
    HostDeadlineScope scope(deadline);
    return enclave_->ecall(sgx::EcallId::kRequest, payload);
  }();
  // Periodic checkpoint poll, host side: the trusted counter says how many
  // queries (including batch items, which the host cannot see inside the
  // sealed record) ran since the last seal.
  if (response.is_ok()) maybe_checkpoint();
  return response;
}

}  // namespace xsearch::core
