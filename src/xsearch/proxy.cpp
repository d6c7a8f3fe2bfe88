#include "xsearch/proxy.hpp"

#include <cstring>

#include "crypto/envelope.hpp"
#include "engine/analytics.hpp"
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

// The host's side of the engine "socket". A query's sock_connect, send,
// recv and close ocalls all run inside its request ecall, on the calling
// thread, so the socket table is one slot per thread: connect opens it,
// send parks the engine's answer in it, recv moves the answer out and
// close empties it. An id that is not this thread's open socket of this
// proxy gets NOT_FOUND from send and recv, and close ignores it.
struct EngineSocket {
  const XSearchProxy* owner = nullptr;
  std::uint64_t id = 0;  // ids start at 1: 0 is "none open"
  Bytes answer;

  [[nodiscard]] bool is_open(const XSearchProxy* proxy, std::uint64_t sock) const {
    return id != 0 && id == sock && owner == proxy;
  }
};
thread_local EngineSocket t_engine_socket;

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

Result<std::unique_ptr<XSearchProxy>> XSearchProxy::create(
    const engine::SearchEngine* engine, const sgx::AttestationAuthority& authority,
    Options options) {
  return create_checked(engine, nullptr, authority, std::move(options));
}

Result<std::unique_ptr<XSearchProxy>> XSearchProxy::create(
    const SecureEngineGateway& gateway, const sgx::AttestationAuthority& authority,
    Options options) {
  return create_checked(nullptr, &gateway, authority, std::move(options));
}

Result<std::unique_ptr<XSearchProxy>> XSearchProxy::create_checked(
    const engine::SearchEngine* engine, const SecureEngineGateway* gateway,
    const sgx::AttestationAuthority& authority, Options options) {
  if (options.k == 0) {
    return invalid_argument("options.k must be >= 1: k = 0 sends the user's "
                            "query without any obfuscation");
  }
  if (options.history_capacity == 0) {
    return invalid_argument("options.history_capacity must be >= 1: the "
                            "obfuscator draws fakes from the history window");
  }
  if (options.results_per_subquery == 0) {
    return invalid_argument("options.results_per_subquery must be >= 1: the "
                            "engine would return nothing to filter");
  }
  if (options.session_capacity == 0) {
    return invalid_argument("options.session_capacity must be >= 1: the "
                            "proxy could never hold a client session");
  }
  auto proxy = std::unique_ptr<XSearchProxy>(
      new XSearchProxy(engine, gateway, authority, std::move(options)));
  XS_RETURN_IF_ERROR(proxy->init_status_);
  return proxy;
}

void XSearchProxy::warm_history(const std::vector<std::string>& queries) {
  history_->add_all(queries);
}

XSearchProxy::XSearchProxy(const engine::SearchEngine* engine,
                           const sgx::AttestationAuthority& authority, Options options)
    : XSearchProxy(engine, nullptr, authority, std::move(options)) {}

XSearchProxy::XSearchProxy(const SecureEngineGateway& gateway,
                           const sgx::AttestationAuthority& authority, Options options)
    : XSearchProxy(nullptr, &gateway, authority, std::move(options)) {}

XSearchProxy::XSearchProxy(const engine::SearchEngine* engine,
                           const SecureEngineGateway* gateway,
                           const sgx::AttestationAuthority& authority, Options options)
    : engine_(engine),
      gateway_(gateway),
      authority_(&authority),
      options_(std::move(options)),
      enclave_(std::make_unique<sgx::EnclaveRuntime>(
          sgx::EnclaveRuntime::Config{.code_identity = code_identity()})),
      engine_link_key_(gateway != nullptr
                           ? std::optional(gateway->public_key())
                           : std::nullopt),
      has_engine_link_(engine != nullptr || gateway != nullptr) {
  init_status_ = install_boundary();
}

Status XSearchProxy::install_boundary() {
  if (options_.engine_breaker.has_value()) {
    engine_breaker_ = std::make_unique<CircuitBreaker>(*options_.engine_breaker);
  }
  // Enclave-private key material and query table. Every secret comes from
  // the enclave's own entropy, never from an option the host set; the seed
  // stays secret-typed from DRBG to key pair — no raw staging buffer.
  static_keys_ = crypto::x25519_keypair_from_seed(enclave_->random_key());
  // The quote covers only the measurement and the static channel key,
  // which never change for a running enclave: issued once, sent with every
  // handshake.
  channel_quote_ = quote_channel_key(*authority_, *enclave_, static_keys_.public_key);
  history_ = std::make_unique<QueryHistory>(options_.history_capacity, &enclave_->epc());
  obfuscator_ = std::make_unique<Obfuscator>(*history_, options_.k);
  // Warm restart: replay the sealed checkpoint (if one exists) into the
  // fresh history before serving. Runs at construction, conceptually part
  // of enclave init — the host supplies only the opaque blob.
  restore_checkpoint();
  sessions_ = std::make_unique<SessionTable>(
      SessionTable::Options{.capacity = options_.session_capacity},
      enclave_->random_key(), &enclave_->epc());

  // The paper's narrowed enclave interface, keyed by the typed boundary
  // table (sgx/boundary.hpp) — no string dispatch anywhere on the path.
  enclave_->register_ecall(sgx::EcallId::kInit,
                           [this](ByteSpan p) { return ecall_init(p); });
  enclave_->register_ecall(sgx::EcallId::kRequest,
                           [this](ByteSpan p) { return ecall_request(p); });

  enclave_->register_ocall(sgx::OcallId::kSockConnect, [this](ByteSpan) -> Result<Bytes> {
    const std::uint64_t id =
        next_socket_id_.fetch_add(1, std::memory_order_relaxed);
    t_engine_socket = {.owner = this, .id = id, .answer = {}};
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
      response = engine_->search_or_encoded(request.value().sub_queries,
                                            request.value().top_k_each);
    }
    if (engine_breaker_ != nullptr) engine_breaker_->record_success();
    if (!t_engine_socket.is_open(this, sock.value())) return not_found("send: bad socket");
    t_engine_socket.answer = std::move(response);
    return Bytes{};
  });

  enclave_->register_ocall(sgx::OcallId::kRecv, [this](ByteSpan payload) -> Result<Bytes> {
    std::size_t offset = 0;
    auto sock = wire::get_u64(payload, offset);
    if (!sock) return sock.status();
    if (!t_engine_socket.is_open(this, sock.value())) return not_found("recv: bad socket");
    // Moved out, not copied: the response crosses the boundary exactly once
    // and the subsequent `close` empties the slot anyway.
    return std::move(t_engine_socket.answer);
  });

  enclave_->register_ocall(sgx::OcallId::kClose, [this](ByteSpan payload) -> Result<Bytes> {
    std::size_t offset = 0;
    auto sock = wire::get_u64(payload, offset);
    if (!sock) return sock.status();
    if (t_engine_socket.is_open(this, sock.value())) t_engine_socket = {};
    return Bytes{};
  });

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
  restore_attempts_.inc();
  // A tampered or truncated blob leaves the fresh history untouched: a
  // clean cold start, never a partial window.
  if (!restore_history(*enclave_, std::move(blob).value(), *history_).is_ok()) return;
  restore_hits_.inc();
  restored_entries_.set(history_->size());
}

Status XSearchProxy::checkpoint_now() {
  if (options_.checkpoint_dir.empty()) {
    return failed_precondition("checkpointing disabled: no checkpoint_dir");
  }
  MutexLock lock(checkpoint_mutex_);
  // The sealing runs inside the enclave (the checkpoint tag of the
  // `request` ecall); the host persists the opaque blob it gets back.
  Bytes payload;
  payload.push_back(kTagCheckpoint);
  auto sealed = enclave_->ecall(sgx::EcallId::kRequest, payload);
  if (!sealed) {
    checkpoint_write_failures_.inc();
    return sealed.status();
  }
  const Status written = write_checkpoint_file(checkpoint_path(), sealed.value());
  if (written.is_ok()) {
    checkpoints_written_.inc();
  } else {
    checkpoint_write_failures_.inc();
  }
  return written;
}

Status XSearchProxy::heartbeat() {
  Bytes payload;
  payload.push_back(kTagHeartbeat);
  return enclave_->ecall(sgx::EcallId::kRequest, payload).status();
}

metrics::Snapshot XSearchProxy::metrics() const {
  metrics::Snapshot out = metrics_.snapshot();
  out.merge(enclave_->metrics());
  out.merge(sessions_->metrics());
  if (engine_breaker_ != nullptr) out.merge(engine_breaker_->metrics());
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

  const crypto::X25519KeyPair ephemeral =
      crypto::x25519_keypair_from_seed(enclave_->random_key());

  // The table is bounded: this may evict the least-recently-used session
  // (whose client will be told "unknown session" and must re-handshake).
  const std::uint64_t session_id = sessions_->insert(
      crypto::SecureChannel::responder(static_keys_, ephemeral, client_pub),
      proposed_id);
  if (session_id == 0) {
    return failed_precondition("handshake: proposed session id already in use");
  }

  return wire::serialize_handshake_response(
      {.session_id = session_id,
       .quote = channel_quote_,
       .server_ephemeral_pub = ephemeral.public_key});
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
    return not_found("query: unknown session (never opened, or evicted by "
                     "the bounded session table)");
  }
  crypto::SecureChannel& channel = session.channel();

  auto plaintext = channel.open(payload.subspan(offset));
  if (!plaintext) return plaintext.status();
  auto message = wire::parse_client_message(plaintext.value());
  if (!message) return message.status();

  if (message.value().type != wire::ClientMessageType::kQueryBatch) {
    return invalid_argument("query: expected a query-batch message");
  }
  // The whole batch was opened with ONE AEAD operation and is answered with
  // one sealed reply — the per-query channel-crypto and boundary cost
  // amortizes over the batch. Item failures (engine refusing one query)
  // stay per-item so they cannot poison their neighbours. The items are
  // written into the reply frame as they finish, and the frame is sealed
  // where it lies.
  const std::vector<std::string>& queries = message.value().queries;
  Bytes reply;
  wire::begin_results_batch(reply, queries.size());
  for (const auto& query : queries) {
    const Status status = run_trusted_query(query, session, reply);
    if (!status.is_ok()) wire::put_error_item(reply, status.to_string());
  }
  channel.seal_in_place(reply);
  return reply;
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
  // Runs inside the enclave; only the sealed blob crosses out.
  return seal_history(*enclave_, *history_);
}

Status XSearchProxy::run_trusted_query(const std::string& query,
                                      SessionTable::LockedSession& session,
                                      Bytes& reply) {
  // Algorithm 1 inside the enclave. Randomness comes from this session's
  // private stream (guarded by the held session lock), so concurrent
  // sessions obfuscate in parallel: no global RNG lock exists on this path.
  ObfuscatedQuery obfuscated = obfuscator_->obfuscate(query, session.rng());

  if (!has_engine_link_) {
    wire::put_results_item(reply, {}, {}, crypto::kAeadTagSize);
    return Status::ok();
  }
  auto answer = query_engine(obfuscated, session.secure_rng());
  if (!answer) return answer.status();
  // Algorithm 2 inside the enclave, over views of the engine's answer where
  // it lies: nothing is copied until the kept results, analytics
  // redirection stripped, are written once into the reply.
  auto parsed = wire::parse_result_views(answer.value());
  if (!parsed) return parsed.status();
  std::vector<engine::ResultView> results = std::move(parsed).value();
  const std::vector<std::size_t> kept =
      filter_.keep(obfuscated.original, obfuscated.fakes, results);
  for (const std::size_t i : kept) {
    results[i].url = engine::extract_target_url(results[i].url).value_or(results[i].url);
  }
  // Room for the tag too, so sealing the reply in place does not reallocate.
  wire::put_results_item(reply, results, kept, crypto::kAeadTagSize);
  return Status::ok();
}

Result<Bytes> XSearchProxy::query_engine(const ObfuscatedQuery& obfuscated,
                                         crypto::SecureRandom& session_rng) {
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
  if (engine_link_key_.has_value()) {
    append(send_payload,
           crypto::envelope_seal(*engine_link_key_, session_rng,
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

  if (engine_link_key_.has_value()) {
    return crypto::envelope_reply_open(
        response_key, to_bytes("xsearch-engine-link-v1"), response.value());
  }
  return response;
}

Result<HandshakeResponse> XSearchProxy::handshake(
    const crypto::X25519Key& client_ephemeral_pub,
    std::uint64_t proposed_session_id) {
  // Sized once, then filled: a push_back followed by an append here draws
  // a spurious GCC -Warray-bounds from the inlined reallocation.
  Bytes payload(1 + client_ephemeral_pub.size());
  payload[0] = kTagHandshake;
  std::memcpy(payload.data() + 1, client_ephemeral_pub.data(),
              client_ephemeral_pub.size());
  if (proposed_session_id != 0) wire::put_u64(payload, proposed_session_id);
  auto raw = enclave_->ecall(sgx::EcallId::kRequest, payload);
  if (!raw) return raw.status();
  return wire::parse_handshake_response(raw.value());
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
  HostDeadlineScope scope(deadline);
  return enclave_->ecall(sgx::EcallId::kRequest, payload);
}

}  // namespace xsearch::core
