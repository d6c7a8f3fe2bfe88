// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// The single authenticated-encryption primitive of the project: it protects
// the client↔enclave secure channel, sealed enclave storage, PEAS group
// encryption, and each onion layer of the Tor baseline.
#pragma once

#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"

namespace xsearch::crypto {

inline constexpr std::size_t kAeadKeySize = kChaChaKeySize;     // 32
inline constexpr std::size_t kAeadNonceSize = kChaChaNonceSize; // 12
inline constexpr std::size_t kAeadTagSize = kPoly1305TagSize;   // 16

using AeadKey = ChaChaKey;
using AeadNonce = ChaChaNonce;

/// Encrypts and authenticates `plaintext` with additional data `aad`.
/// Returns ciphertext || 16-byte tag.
[[nodiscard]] Bytes aead_seal(const AeadKey& key, const AeadNonce& nonce, ByteSpan aad,
                              ByteSpan plaintext);

/// Verifies and decrypts; returns nullopt on any authentication failure.
[[nodiscard]] std::optional<Bytes> aead_open(const AeadKey& key, const AeadNonce& nonce,
                                             ByteSpan aad, ByteSpan sealed);

/// `aead_seal` where the plaintext lies: encrypts `record` from byte
/// `offset` on and appends the tag; the first `offset` bytes (a header the
/// caller frames the record with) are left as they are. A buffer with
/// kAeadTagSize bytes of spare capacity is sealed with no copy and no
/// allocation.
void aead_seal_in_place(const AeadKey& key, const AeadNonce& nonce, ByteSpan aad,
                        Bytes& record, std::size_t offset = 0);

/// `aead_open` where the record lies: verifies ciphertext || tag, then
/// decrypts the ciphertext in place and returns it (a prefix of `sealed`).
/// On failure returns nullopt and leaves `sealed` as it was.
[[nodiscard]] std::optional<std::span<std::uint8_t>> aead_open_in_place(
    const AeadKey& key, const AeadNonce& nonce, ByteSpan aad,
    std::span<std::uint8_t> sealed);

/// Builds a 12-byte nonce from a 64-bit counter (low 8 bytes, LE) and a
/// 4-byte channel/direction prefix, the standard record-layer construction.
[[nodiscard]] AeadNonce make_nonce(std::uint32_t prefix, std::uint64_t counter);

}  // namespace xsearch::crypto
