#include "crypto/secure_channel.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace xsearch::crypto {

namespace {
constexpr std::uint32_t kDirInitiatorToResponder = 0x49325200;  // "I2R"
constexpr char kHkdfSalt[] = "xsearch-secure-channel-v1";
}  // namespace

SecureChannel::SecureChannel(ChannelRole role, ByteSpan ss_ee, ByteSpan ss_es,
                             ByteSpan transcript) {
  Bytes ikm;
  ikm.reserve(ss_ee.size() + ss_es.size());
  append(ikm, ss_ee);
  append(ikm, ss_es);

  const Bytes salt = to_bytes(kHkdfSalt);
  const SecretBytes okm = hkdf(salt, ikm, transcript, 2 * kAeadKeySize);
  // secret-flow rule: KDF input keying material (the concatenated DH
  // results) must be wiped as soon as the keys are derived.
  secure_wipe(ikm);

  const AeadKey initiator_key = okm.slice<kAeadKeySize>(0);
  const AeadKey responder_key = okm.slice<kAeadKeySize>(kAeadKeySize);

  if (role == ChannelRole::kInitiator) {
    send_key_ = initiator_key;
    recv_key_ = responder_key;
  } else {
    send_key_ = responder_key;
    recv_key_ = initiator_key;
  }

  const Sha256Digest sid = Sha256::hash(transcript);
  session_id_.assign(sid.begin(), sid.end());
}

SecureChannel SecureChannel::initiator(const X25519KeyPair& local_ephemeral,
                                       const X25519Key& responder_static_pub,
                                       const X25519Key& responder_ephemeral_pub) {
  X25519Key ss_ee = x25519(local_ephemeral.private_key, responder_ephemeral_pub);
  X25519Key ss_es = x25519(local_ephemeral.private_key, responder_static_pub);
  Bytes transcript;
  append(transcript, local_ephemeral.public_key);
  append(transcript, responder_ephemeral_pub);
  append(transcript, responder_static_pub);
  SecureChannel channel(ChannelRole::kInitiator, ss_ee, ss_es, transcript);
  // secret-flow rule: DH shared-secret temporaries must not linger on the
  // stack once mixed into the session keys (a known pre-Secret leak here).
  secure_wipe(ss_ee);
  secure_wipe(ss_es);
  return channel;
}

SecureChannel SecureChannel::responder(const X25519KeyPair& local_static,
                                       const X25519KeyPair& local_ephemeral,
                                       const X25519Key& initiator_ephemeral_pub) {
  X25519Key ss_ee = x25519(local_ephemeral.private_key, initiator_ephemeral_pub);
  X25519Key ss_es = x25519(local_static.private_key, initiator_ephemeral_pub);
  Bytes transcript;
  append(transcript, initiator_ephemeral_pub);
  append(transcript, local_ephemeral.public_key);
  append(transcript, local_static.public_key);
  SecureChannel channel(ChannelRole::kResponder, ss_ee, ss_es, transcript);
  // secret-flow rule: DH shared-secret temporaries must not linger on the
  // stack once mixed into the session keys (a known pre-Secret leak here).
  secure_wipe(ss_ee);
  secure_wipe(ss_es);
  return channel;
}

Bytes SecureChannel::seal(ByteSpan plaintext) {
  Bytes record;
  record.reserve(plaintext.size() + kAeadTagSize);
  record.assign(plaintext.begin(), plaintext.end());
  seal_in_place(record);
  return record;
}

void SecureChannel::seal_in_place(Bytes& record) {
  // Directions use distinct keys, so a shared nonce prefix is safe.
  const AeadNonce nonce = make_nonce(kDirInitiatorToResponder, send_counter_++);
  aead_seal_in_place(send_key_, nonce, session_id_, record);
}

Result<Bytes> SecureChannel::open(ByteSpan record) {
  Bytes buffer(record.begin(), record.end());
  auto plain = open_in_place(buffer);
  if (!plain) return plain.status();
  buffer.resize(plain.value().size());
  return buffer;
}

Result<std::span<std::uint8_t>> SecureChannel::open_in_place(
    std::span<std::uint8_t> record) {
  const AeadNonce nonce = make_nonce(kDirInitiatorToResponder, recv_counter_);
  const auto plain = aead_open_in_place(recv_key_, nonce, session_id_, record);
  if (!plain) {
    return permission_denied("secure channel: record authentication failed");
  }
  ++recv_counter_;
  return *plain;
}

}  // namespace xsearch::crypto
