#include "sgx/enclave.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

namespace xsearch::sgx {

namespace {
constexpr char kSealingInfo[] = "sgx-sealing-key-mrenclave-v1";
constexpr std::uint32_t kSealNoncePrefix = 0x5345414c;  // "SEAL"
}  // namespace

EnclaveRuntime::EnclaveRuntime(Config config)
    : measurement_(crypto::Sha256::hash(config.code_identity)),
      epc_(config.usable_epc_bytes) {
  // Sealing key: HKDF(measurement) — the simulation analogue of the
  // MRENCLAVE-policy EGETKEY derivation. slice() keeps the key secret-typed
  // end to end (no raw staging buffer exists).
  sealing_key_ = crypto::hkdf(/*salt=*/{}, measurement_, to_bytes(kSealingInfo),
                              crypto::kAeadKeySize)
                     .slice<crypto::kAeadKeySize>();
}

void EnclaveRuntime::register_ecall(EcallId id, Handler handler) {
  WriterLock lock(mutex_);
  ecalls_[index_of(id)] = std::move(handler);
}

void EnclaveRuntime::register_ocall(OcallId id, Handler handler) {
  WriterLock lock(mutex_);
  ocalls_[index_of(id)] = std::move(handler);
}

void EnclaveRuntime::crash() {
  crashed_.store(true, std::memory_order_release);
}

Result<Bytes> EnclaveRuntime::ecall(EcallId id, ByteSpan input) {
  if (crashed_.load(std::memory_order_acquire)) {
    return unavailable("enclave crashed: no trusted code is running");
  }
  Handler handler;
  {
    ReaderLock lock(mutex_);
    handler = ecalls_[index_of(id)];
  }
  if (!handler) {
    return not_found("unregistered ecall: " + std::string(ecall_name(id)));
  }
  ecall_count_.fetch_add(1, std::memory_order_relaxed);
  // Parameters are copied into enclave memory at the boundary; the copy is
  // implicit in the ByteSpan-to-Bytes conversions done by handlers.
  return handler(input);
}

Result<Bytes> EnclaveRuntime::ocall(OcallId id, ByteSpan input) {
  Handler handler;
  {
    ReaderLock lock(mutex_);
    handler = ocalls_[index_of(id)];
  }
  if (!handler) {
    return not_found("unregistered ocall: " + std::string(ocall_name(id)));
  }
  ocall_count_.fetch_add(1, std::memory_order_relaxed);
  return handler(input);
}

TransitionStats EnclaveRuntime::transition_stats() const {
  return TransitionStats{ecall_count_.load(std::memory_order_relaxed),
                         ocall_count_.load(std::memory_order_relaxed)};
}

// --- Sealing -----------------------------------------------------------------

Bytes EnclaveRuntime::seal(ByteSpan plaintext) {
  const std::uint64_t counter = seal_counter_.fetch_add(1, std::memory_order_relaxed);
  const crypto::AeadNonce nonce = crypto::make_nonce(kSealNoncePrefix, counter);
  Bytes out(nonce.begin(), nonce.end());
  const Bytes sealed = crypto::aead_seal(sealing_key_, nonce, measurement_, plaintext);
  append(out, sealed);
  return out;
}

Result<Bytes> EnclaveRuntime::unseal(ByteSpan sealed) const {
  if (sealed.size() < crypto::kAeadNonceSize + crypto::kAeadTagSize) {
    return invalid_argument("sealed blob too short");
  }
  crypto::AeadNonce nonce;
  std::memcpy(nonce.data(), sealed.data(), nonce.size());
  auto plain = crypto::aead_open(sealing_key_, nonce, measurement_,
                                 sealed.subspan(nonce.size()));
  if (!plain) {
    return permission_denied("unseal failed: wrong enclave measurement or tampering");
  }
  return *std::move(plain);
}

}  // namespace xsearch::sgx
