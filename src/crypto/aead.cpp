#include "crypto/aead.hpp"

#include <cstring>

namespace xsearch::crypto {

namespace {

/// Poly1305 key = first 32 bytes of the ChaCha20 keystream at counter 0.
[[nodiscard]] Poly1305Key derive_mac_key(const AeadKey& key, const AeadNonce& nonce) {
  auto block = chacha20_block(key, nonce, 0);
  Poly1305Key::Raw raw;
  std::memcpy(raw.data(), block.data(), raw.size());
  const Poly1305Key mac_key = Poly1305Key::absorb(raw);
  // The whole keystream block is MAC-key material; wipe the staging copy.
  secure_wipe(block);
  return mac_key;
}

/// The zero bytes that pad `size` bytes to a 16-byte boundary.
[[nodiscard]] ByteSpan pad16(std::size_t size) {
  static constexpr std::array<std::uint8_t, 16> kZeros{};
  return ByteSpan(kZeros).first((16 - size % 16) % 16);
}

/// MAC input = aad || pad16 || ciphertext || pad16 || le64(|aad|) || le64(|ct|),
/// streamed from where each part lies.
[[nodiscard]] Poly1305Tag compute_tag(const Poly1305Key& mac_key, ByteSpan aad,
                                      ByteSpan ciphertext) {
  Poly1305 mac(mac_key);
  mac.update(aad);
  mac.update(pad16(aad.size()));
  mac.update(ciphertext);
  mac.update(pad16(ciphertext.size()));
  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  mac.update(ByteSpan(lengths, 16));
  return mac.finish();
}

}  // namespace

void aead_seal_in_place(const AeadKey& key, const AeadNonce& nonce, ByteSpan aad,
                        Bytes& record, std::size_t offset) {
  const std::span<std::uint8_t> plaintext = std::span(record).subspan(offset);
  chacha20_xor_inplace(key, nonce, 1, plaintext);
  const Poly1305Tag tag = compute_tag(derive_mac_key(key, nonce), aad, plaintext);
  append(record, tag);
}

std::optional<std::span<std::uint8_t>> aead_open_in_place(
    const AeadKey& key, const AeadNonce& nonce, ByteSpan aad,
    std::span<std::uint8_t> sealed) {
  if (sealed.size() < kAeadTagSize) return std::nullopt;
  const std::span<std::uint8_t> ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  const Poly1305Tag expected = compute_tag(derive_mac_key(key, nonce), aad, ciphertext);
  if (!constant_time_equal(expected, sealed.last(kAeadTagSize))) return std::nullopt;
  chacha20_xor_inplace(key, nonce, 1, ciphertext);
  return ciphertext;
}

Bytes aead_seal(const AeadKey& key, const AeadNonce& nonce, ByteSpan aad,
                ByteSpan plaintext) {
  // One allocation for the whole record, reserved with room for the tag.
  Bytes out;
  out.reserve(plaintext.size() + kAeadTagSize);
  out.assign(plaintext.begin(), plaintext.end());
  aead_seal_in_place(key, nonce, aad, out);
  return out;
}

std::optional<Bytes> aead_open(const AeadKey& key, const AeadNonce& nonce, ByteSpan aad,
                               ByteSpan sealed) {
  Bytes out(sealed.begin(), sealed.end());
  const auto plaintext = aead_open_in_place(key, nonce, aad, out);
  if (!plaintext) return std::nullopt;
  out.resize(plaintext->size());
  return out;
}

AeadNonce make_nonce(std::uint32_t prefix, std::uint64_t counter) {
  AeadNonce nonce;
  store_le32(nonce.data(), prefix);
  store_le64(nonce.data() + 4, counter);
  return nonce;
}

}  // namespace xsearch::crypto
