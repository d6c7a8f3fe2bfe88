#include "sgx/enclave.hpp"

#include <cstring>

#include "common/check.hpp"
#include "crypto/hmac.hpp"

namespace xsearch::sgx {

namespace {
constexpr char kSealingInfo[] = "sgx-sealing-key-mrenclave-v1";

// The simulated CPU's fused sealing secret: drawn once per process through
// SecureRandom's entropy ingress, as a package's root key is fused once, and
// never handed to host code. Every enclave in the process shares it, so an
// in-process restart unseals what its predecessor sealed; a blob carried to
// another process meets another secret and does not open, as one moved to
// another CPU would not.
const crypto::ChaChaKey& platform_secret() {
  static const crypto::ChaChaKey secret = crypto::SecureRandom{}.key();
  return secret;
}
}  // namespace

EnclaveRuntime::EnclaveRuntime(Config config)
    : measurement_(crypto::Sha256::hash(config.code_identity)),
      epc_(kDefaultUsableEpcBytes) {
  // Sealing key: HKDF(salt = platform secret, ikm = measurement) — the
  // simulation analogue of the MRENCLAVE-policy EGETKEY derivation. The
  // measurement is public; the salt is what keeps the host out. slice()
  // keeps the key secret-typed end to end (no raw staging buffer exists).
  sealing_key_ = crypto::hkdf(platform_secret().expose(SecretSink::kKdf),
                              measurement_, to_bytes(kSealingInfo),
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
  ecall_count_.inc();
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
  ocall_count_.inc();
  return handler(input);
}

crypto::ChaChaKey EnclaveRuntime::random_key() {
  MutexLock lock(entropy_mutex_);
  return entropy_.key();
}

// --- Sealing -----------------------------------------------------------------

Bytes EnclaveRuntime::seal(ByteSpan plaintext) {
  Bytes out;
  out.reserve(kSealHeaderBytes + plaintext.size() + kSealTrailerBytes);
  out.resize(kSealHeaderBytes);
  append(out, plaintext);
  seal_in_place(out);
  return out;
}

void EnclaveRuntime::seal_in_place(Bytes& record) {
  XS_CHECK(record.size() >= kSealHeaderBytes,
           "record shorter than the seal header");
  crypto::AeadNonce nonce;
  {
    MutexLock lock(entropy_mutex_);
    entropy_.fill(nonce);
  }
  std::memcpy(record.data(), nonce.data(), nonce.size());
  crypto::aead_seal_in_place(sealing_key_, nonce, measurement_, record, kSealHeaderBytes);
}

Result<Bytes> EnclaveRuntime::unseal(ByteSpan sealed) const {
  Bytes plain(sealed.begin(), sealed.end());
  auto opened = unseal_in_place(plain);
  if (!opened) return opened.status();
  // The plaintext sits behind the nonce: slide it to the front.
  const std::size_t size = opened.value().size();
  plain.erase(plain.begin(), plain.begin() + kSealHeaderBytes);
  plain.resize(size);
  return plain;
}

Result<std::span<std::uint8_t>> EnclaveRuntime::unseal_in_place(
    std::span<std::uint8_t> sealed) const {
  if (sealed.size() < kSealHeaderBytes + kSealTrailerBytes) {
    return invalid_argument("sealed blob too short");
  }
  crypto::AeadNonce nonce;
  std::memcpy(nonce.data(), sealed.data(), nonce.size());
  auto plain = crypto::aead_open_in_place(sealing_key_, nonce, measurement_,
                                          sealed.subspan(kSealHeaderBytes));
  if (!plain) {
    return permission_denied("unseal failed: wrong enclave measurement or tampering");
  }
  return *plain;
}

}  // namespace xsearch::sgx
