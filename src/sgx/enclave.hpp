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
//    measurement, so only the same enclave code can unseal.
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
#include <string>

#include "common/bytes.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "sgx/boundary.hpp"
#include "sgx/epc.hpp"

namespace xsearch::sgx {

using Measurement = crypto::Sha256Digest;

/// Counters for enclave boundary crossings — the number the paper prices
/// at ~8us each.
struct TransitionStats {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
};

class EnclaveRuntime {
 public:
  struct Config {
    /// Bytes measured as the enclave's code identity (MRENCLAVE input).
    Bytes code_identity;
    std::size_t usable_epc_bytes = kDefaultUsableEpcBytes;
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

  [[nodiscard]] TransitionStats transition_stats() const;

  // --- Memory ------------------------------------------------------------

  [[nodiscard]] EpcAccountant& epc() { return epc_; }
  [[nodiscard]] const EpcAccountant& epc() const { return epc_; }

  // --- Sealing -----------------------------------------------------------

  /// Encrypts `plaintext` under the enclave's sealing key (derived from the
  /// measurement, like SGX's MRENCLAVE key policy). Output embeds a nonce.
  [[nodiscard]] Bytes seal(ByteSpan plaintext);

  /// Decrypts data sealed by an enclave with the same measurement.
  [[nodiscard]] Result<Bytes> unseal(ByteSpan sealed) const;

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
  std::atomic<std::uint64_t> ecall_count_{0};
  std::atomic<std::uint64_t> ocall_count_{0};
  std::atomic<std::uint64_t> seal_counter_{0};
};

/// STL-compatible allocator charging an EpcAccountant, so containers owned
/// by enclave code are metered automatically.
template <typename T>
class EnclaveAllocator {
 public:
  using value_type = T;

  explicit EnclaveAllocator(EpcAccountant* epc) noexcept : epc_(epc) {}
  template <typename U>
  EnclaveAllocator(const EnclaveAllocator<U>& other) noexcept : epc_(other.epc()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    epc_->charge(n * sizeof(T));
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    epc_->release(n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }

  [[nodiscard]] EpcAccountant* epc() const noexcept { return epc_; }

  friend bool operator==(const EnclaveAllocator& a, const EnclaveAllocator& b) {
    return a.epc_ == b.epc_;
  }

 private:
  EpcAccountant* epc_;
};

}  // namespace xsearch::sgx
