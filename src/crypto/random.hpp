// Cryptographic random byte generation.
//
// A ChaCha20-based deterministic random bit generator. The default
// constructor is the tree's one entropy ingress (std::random_device), and
// sgx::EnclaveRuntime is its one trusted caller: every enclave secret comes
// from the runtime's DRBG. Host-side components and tests seed it
// explicitly, so their draws are reproducible.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/chacha20.hpp"

namespace xsearch::crypto {

/// ChaCha20-backed DRBG. Not thread-safe; create one per thread.
class SecureRandom {
 public:
  /// Seeds from std::random_device entropy (the enclave runtime's source).
  SecureRandom();

  /// Deterministic seeding (tests / reproducible simulations).
  explicit SecureRandom(const ChaChaKey& seed);

  /// Fills `out` with pseudo-random bytes.
  void fill(std::span<std::uint8_t> out);

  /// Returns `n` pseudo-random bytes.
  [[nodiscard]] Bytes bytes(std::size_t n);

  /// Returns a random 32-byte key/seed, already secret-typed.
  [[nodiscard]] ChaChaKey key();

 private:
  ChaChaKey key_;
  std::uint64_t counter_ = 0;
};

/// Deterministic, domain-separated 32-byte seed: the 64-bit configuration
/// seed in bytes 0-7 (LE) and a per-component tag in byte 31, so every
/// component seeded from one simulation seed draws a disjoint ChaCha
/// stream. The staging buffer is absorbed (wiped) before returning.
[[nodiscard]] inline ChaChaKey domain_seed(std::uint64_t seed, std::uint8_t tag) {
  ChaChaKey::Raw raw{};
  store_le64(raw.data(), seed);
  raw[31] = tag;
  return ChaChaKey::absorb(raw);
}

}  // namespace xsearch::crypto
