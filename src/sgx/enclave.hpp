// Simulated SGX enclave runtime.
//
// Models the pieces of the SGX programming model that X-Search's design and
// evaluation depend on (paper §2.3, §5.3.3):
//
//  * a *measurement* (hash of the enclave code) fixed at initialization —
//    the quantity remote attestation vouches for;
//  * an explicit *ecall/ocall boundary*: all data enters and leaves through
//    registered handlers, and every crossing is counted (transitions are the
//    paper's primary SGX overhead, hence its deliberately narrow interface
//    of 2 ecalls / 4 ocalls) — the surface is *typed*: handlers key on the
//    EcallId/OcallId enums pinned in sgx/boundary.hpp, and dispatch is an
//    array index, never a string lookup;
//  * *EPC metering* of all enclave-resident state via EpcAccountant;
//  * *sealed storage*: AEAD encryption under a key derived from the
//    measurement and a per-process platform secret (the CPU's fused key),
//    so only the same enclave code on the same "CPU" can unseal;
//  * *trusted entropy*, like `sgx_read_rand`: one DRBG seeded at
//    construction, the source of every enclave secret and seal nonce.
//    Nothing the host passes in seeds it.
//
// What hardware SGX adds beyond this model — actual memory encryption and
// isolation enforcement — does not change control flow or capacity limits,
// which is what the reproduced figures measure. The one hardware cost it
// leaves out, the price of each crossing, is discussed in ARCHITECTURE.md
// ("Boundary crossings").
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "crypto/aead.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "sgx/boundary.hpp"
#include "sgx/epc.hpp"

namespace xsearch::sgx {

using Measurement = crypto::Sha256Digest;

/// Enclave boundary crossings — the number the paper prices at ~8us each.
/// A view of the `enclave.ecalls`/`enclave.ocalls` series, kept for the
/// end-to-end benchmark's per-query counts.
struct TransitionStats {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
};

class EnclaveRuntime {
 public:
  struct Config {
    /// Bytes measured as the enclave's code identity (MRENCLAVE input).
    Bytes code_identity;
  };

  explicit EnclaveRuntime(Config config);

  EnclaveRuntime(const EnclaveRuntime&) = delete;
  EnclaveRuntime& operator=(const EnclaveRuntime&) = delete;

  /// The enclave's measurement hash (computed once at initialization).
  [[nodiscard]] const Measurement& measurement() const { return measurement_; }

  // --- Boundary ---------------------------------------------------------

  using Handler = std::function<Result<Bytes>(ByteSpan)>;

  /// Registers trusted code reachable from outside (an ecall entry point).
  void register_ecall(EcallId id, Handler handler);

  /// Registers untrusted host functionality the enclave may call out to.
  void register_ocall(OcallId id, Handler handler);

  /// Invokes an ecall; input/output are copied across the boundary and the
  /// transition counter advances. Unregistered slots yield NOT_FOUND.
  /// Dispatch indexes a fixed array under a shared lock only (the tables
  /// are written solely by register_*), so concurrent transitions never
  /// serialize on lookup — the boundary itself is not a contention point.
  [[nodiscard]] Result<Bytes> ecall(EcallId id, ByteSpan input);

  /// Invoked by trusted code to reach host services; counted separately.
  [[nodiscard]] Result<Bytes> ocall(OcallId id, ByteSpan input);

  /// Host-side destruction of the enclave (power event, EREMOVE, the host
  /// process dying under it). The enclave's volatile state is conceptually
  /// gone: every subsequent ecall fails with UNAVAILABLE — which is exactly
  /// what a fleet supervisor's heartbeat probe observes on a crashed worker.
  /// Only *sealed* state survives a crash; the recovery tests and the fig5
  /// kill-and-recover bench crash enclaves through this.
  void crash();
  [[nodiscard]] bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] TransitionStats transition_stats() const {
    return {ecall_count_.value(), ocall_count_.value()};
  }
  /// `enclave.ecalls` and `enclave.ocalls`.
  [[nodiscard]] metrics::Snapshot metrics() const { return metrics_.snapshot(); }

  // --- Memory ------------------------------------------------------------

  [[nodiscard]] EpcAccountant& epc() { return epc_; }
  [[nodiscard]] const EpcAccountant& epc() const { return epc_; }

  // --- Entropy -----------------------------------------------------------

  /// A fresh 32-byte key from the enclave's DRBG: the seed of every
  /// enclave key pair and session-stream key. Thread-safe.
  [[nodiscard]] crypto::ChaChaKey random_key();

  // --- Sealing -----------------------------------------------------------

  /// A sealed blob is a nonce, the ciphertext, then the AEAD tag.
  static constexpr std::size_t kSealHeaderBytes = crypto::kAeadNonceSize;
  static constexpr std::size_t kSealTrailerBytes = crypto::kAeadTagSize;

  /// Encrypts `plaintext` under the enclave's sealing key (derived from the
  /// measurement and the platform secret, like SGX's MRENCLAVE key policy).
  /// Output embeds a fresh 96-bit nonce from the enclave's DRBG, as
  /// `sgx_seal_data` draws its IV, so enclaves of one measurement never
  /// reuse a (key, nonce) pair.
  [[nodiscard]] Bytes seal(ByteSpan plaintext);

  /// `seal` where the plaintext lies: `record` holds kSealHeaderBytes of
  /// room for the nonce, then the plaintext, and becomes the sealed blob.
  /// No copy is made, and no allocation given kSealTrailerBytes of spare
  /// capacity.
  void seal_in_place(Bytes& record);

  /// Decrypts data sealed by an enclave with the same measurement.
  [[nodiscard]] Result<Bytes> unseal(ByteSpan sealed) const;

  /// `unseal` where the blob lies: decrypts it in place and returns the
  /// plaintext, a subspan of `sealed`. On failure `sealed` is unchanged.
  [[nodiscard]] Result<std::span<std::uint8_t>> unseal_in_place(
      std::span<std::uint8_t> sealed) const;

 private:
  Measurement measurement_;
  crypto::AeadKey sealing_key_;
  EpcAccountant epc_;

  // Written only by register_* (exclusive); dispatch reads take a shared
  // lock and copy the handler out before invoking it outside the lock.
  mutable SharedMutex mutex_;
  std::array<Handler, kEcallCount> ecalls_ XS_GUARDED_BY(mutex_);
  std::array<Handler, kOcallCount> ocalls_ XS_GUARDED_BY(mutex_);

  std::atomic<bool> crashed_{false};
  metrics::Registry metrics_{"enclave"};
  metrics::Counter& ecall_count_ = metrics_.counter("ecalls");
  metrics::Counter& ocall_count_ = metrics_.counter("ocalls");

  // Seeded once, through SecureRandom's entropy ingress.
  Mutex entropy_mutex_;
  crypto::SecureRandom entropy_ XS_GUARDED_BY(entropy_mutex_);
};

}  // namespace xsearch::sgx
