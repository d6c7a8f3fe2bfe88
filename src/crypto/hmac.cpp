#include "crypto/hmac.hpp"

#include <cstring>

#include "common/check.hpp"

namespace xsearch::crypto {

Sha256Digest hmac_sha256(ByteSpan key, ByteSpan data) {
  std::array<std::uint8_t, kSha256BlockSize> block_key{};
  if (key.size() > kSha256BlockSize) {
    const Sha256Digest hashed = Sha256::hash(key);
    std::memcpy(block_key.data(), hashed.data(), hashed.size());
  } else if (!key.empty()) {
    // Guard: memcpy from a null source is UB even for zero bytes, and an
    // empty span's data() may be null (HKDF uses empty salts).
    std::memcpy(block_key.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kSha256BlockSize> ipad;
  std::array<std::uint8_t, kSha256BlockSize> opad;
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(data);
  const Sha256Digest inner_digest = inner.finalize();

  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  const Sha256Digest mac = outer.finalize();

  // secret-flow rule: key-derived scratch (block_key and the ipad/opad
  // schedules, each an XOR of the key) must not outlive the computation.
  secure_wipe(block_key);
  secure_wipe(ipad);
  secure_wipe(opad);
  return mac;
}

Sha256Digest hkdf_extract(ByteSpan salt, ByteSpan ikm) { return hmac_sha256(salt, ikm); }

SecretBytes hkdf_expand(ByteSpan prk, ByteSpan info, std::size_t length) {
  // RFC 5869's bound: past 255 blocks the one-byte counter wraps to 0 and
  // the output is no longer HKDF.
  XS_CHECK(length <= 255 * kSha256DigestSize,
           "HKDF-Expand length exceeds 255 * HashLen");
  Bytes okm;
  // Reserved up front so the SecretBytes adoption below owns the only
  // allocation the key material ever touched (no realloc leaves a copy).
  okm.reserve(length);
  Sha256Digest t{};
  std::size_t t_len = 0;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    Bytes block;
    block.reserve(t_len + info.size() + 1);
    block.insert(block.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(t_len));
    append(block, info);
    block.push_back(counter++);
    t = hmac_sha256(prk, block);
    // The block embeds the previous chaining value T(i-1).
    secure_wipe(block);
    t_len = t.size();
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  secure_wipe(t);
  return SecretBytes(std::move(okm));
}

SecretBytes hkdf(ByteSpan salt, ByteSpan ikm, ByteSpan info, std::size_t length) {
  Sha256Digest prk = hkdf_extract(salt, ikm);
  SecretBytes okm = hkdf_expand(prk, info, length);
  // The PRK alone reconstructs every derived key; wipe it on the way out.
  secure_wipe(prk);
  return okm;
}

}  // namespace xsearch::crypto
