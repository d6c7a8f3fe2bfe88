// Authenticated secure channel between a client broker and an enclave.
//
// A Noise-NK-flavoured handshake: the initiator (client) knows the
// responder's static X25519 key in advance — in X-Search it learns and
// *verifies* that key through SGX remote attestation (see sgx/attestation).
// Two Diffie–Hellman results (ephemeral-ephemeral and ephemeral-static) are
// mixed through HKDF into one AEAD key per direction; records carry a
// per-direction monotonically increasing nonce counter, so replayed or
// reordered records fail authentication.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"

namespace xsearch::crypto {

/// Role disambiguates the two key/nonce directions.
enum class ChannelRole { kInitiator, kResponder };

/// Symmetric state of an established channel.
class SecureChannel {
 public:
  /// Initiator side: combine our ephemeral keys with the responder's static
  /// and ephemeral public keys.
  [[nodiscard]] static SecureChannel initiator(const X25519KeyPair& local_ephemeral,
                                               const X25519Key& responder_static_pub,
                                               const X25519Key& responder_ephemeral_pub);

  /// Responder side: mirror of `initiator`.
  [[nodiscard]] static SecureChannel responder(const X25519KeyPair& local_static,
                                               const X25519KeyPair& local_ephemeral,
                                               const X25519Key& initiator_ephemeral_pub);

  /// Encrypts one record for the peer. Thread-compatible (single writer).
  [[nodiscard]] Bytes seal(ByteSpan plaintext);

  /// `seal` where the plaintext lies: `record` becomes the sealed record
  /// (ciphertext || tag). Reserve kAeadTagSize spare bytes to avoid a copy.
  void seal_in_place(Bytes& record);

  /// Decrypts the next record from the peer; fails on tampering, replay,
  /// truncation or reordering.
  [[nodiscard]] Result<Bytes> open(ByteSpan record);

  /// `open` where the record lies: decrypts `record` in place and returns
  /// the plaintext, a prefix of `record`.
  [[nodiscard]] Result<std::span<std::uint8_t>> open_in_place(
      std::span<std::uint8_t> record);

  /// Session identifier (hash of the handshake transcript); both ends agree.
  [[nodiscard]] const Bytes& session_id() const { return session_id_; }

 private:
  SecureChannel(ChannelRole role, ByteSpan ss_ee, ByteSpan ss_es,
                ByteSpan transcript);

  AeadKey send_key_;
  AeadKey recv_key_;
  std::uint64_t send_counter_ = 0;
  std::uint64_t recv_counter_ = 0;
  Bytes session_id_;
};

}  // namespace xsearch::crypto
