// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// HKDF derives the per-session record keys of the client↔enclave secure
// channel from the X25519 shared secret; HMAC also signs simulated
// attestation reports.
#pragma once

#include "common/bytes.hpp"
#include "common/secret.hpp"
#include "crypto/sha256.hpp"

namespace xsearch::crypto {

/// HMAC-SHA256 of `data` under `key` (any key length).
[[nodiscard]] Sha256Digest hmac_sha256(ByteSpan key, ByteSpan data);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
[[nodiscard]] Sha256Digest hkdf_extract(ByteSpan salt, ByteSpan ikm);

/// HKDF-Expand: derives `length` bytes from a PRK and context string
/// `info`. `length` must be at most 255*32 (RFC 5869), checked in every
/// build. The output is keying material by definition, so it comes
/// back as SecretBytes (zeroized, sliceable into fixed-size keys).
[[nodiscard]] SecretBytes hkdf_expand(ByteSpan prk, ByteSpan info, std::size_t length);

/// One-shot HKDF (extract + expand).
[[nodiscard]] SecretBytes hkdf(ByteSpan salt, ByteSpan ikm, ByteSpan info,
                               std::size_t length);

}  // namespace xsearch::crypto
