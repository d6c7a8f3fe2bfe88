// Secret-flow typing: wrappers that make key material a distinct type.
//
// Every long-lived secret in the tree (ChaCha/AEAD keys, Poly1305 one-time
// keys, X25519 private scalars and seeds, attestation root keys, HKDF
// output) lives inside Secret<N> or SecretBytes instead of a bare
// std::array/std::vector. The wrapper enforces, at compile time, the rules
// the privacy argument needs:
//
//   * construction is explicit — bytes never silently become secrets;
//   * operator== and operator<< are deleted — equality exists only through
//     constant_time_equal, and secrets cannot be logged or formatted;
//   * destruction and move-from wipe the buffer via secure_wipe(), so key
//     material does not linger in freed stack frames or heap blocks;
//   * the raw bytes are reachable only through expose(<sink>) — every read
//     of secret material is a named, greppable site, and tools/secret_lint.py
//     checks each sink tag against the registry in tools/secret_policy.toml.
//
// What deliberately stays plain (itself documentation): X25519 public keys
// and points, nonces, MAC tags, measurements, and sealed ciphertext.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "common/check.hpp"

namespace xsearch {

/// Registered exposure sinks. Each `expose()` call names the one purpose
/// the raw bytes are read for; tools/secret_policy.toml holds the registry
/// (tag -> why that sink is sound) and tools/secret_lint.py rejects any
/// expose() whose tag is not listed there.
enum class SecretSink {
  kCipherCore,  // keying a cipher/MAC primitive (ChaCha20, Poly1305, HMAC)
  kCtCompare,   // feeding a constant-time comparison
  kSealPayload, // becoming part of an AEAD-sealed payload (e.g. checkpoints)
  kKdf,         // input keying material for a KDF (HKDF extract/expand)
  kTestVector,  // tests only: checking against published known-answer vectors
};

/// Fixed-size secret. N is the key size in bytes.
template <std::size_t N>
class Secret {
 public:
  /// The staging type: fill one of these (e.g. from a DRBG or a wire
  /// buffer), then absorb() it so the staging copy is wiped.
  using Raw = std::array<std::uint8_t, N>;

  /// A default-constructed secret is all zeroes (an obviously-unusable key).
  Secret() = default;

  /// Explicit lift from raw bytes. The caller still owns (and should wipe
  /// or absorb) the source; prefer absorb() for freshly derived material.
  explicit Secret(const Raw& raw) : bytes_(raw) {}

  /// Takes ownership of staged bytes and wipes the staging buffer, so the
  /// only live copy of the material is inside the wrapper.
  [[nodiscard]] static Secret absorb(Raw& raw) {
    Secret secret(raw);
    secure_wipe(raw.data(), raw.size());
    return secret;
  }

  Secret(const Secret&) = default;
  Secret& operator=(const Secret&) = default;
  Secret(Secret&& other) noexcept : bytes_(other.bytes_) { other.wipe(); }
  Secret& operator=(Secret&& other) noexcept {
    if (this != &other) {
      bytes_ = other.bytes_;
      other.wipe();
    }
    return *this;
  }
  ~Secret() { wipe(); }

  /// Secrets have no public identity. Compare with constant_time_equal.
  bool operator==(const Secret&) const = delete;

  [[nodiscard]] static constexpr std::size_t size() { return N; }

  /// The only door to the raw bytes. The sink tag names what the bytes are
  /// about to be used for; tools/secret_lint.py audits every call site.
  [[nodiscard]] std::span<const std::uint8_t, N> expose(SecretSink /*sink*/) const {
    return std::span<const std::uint8_t, N>(bytes_);
  }

  /// Constant-time equality of two secrets. Not an exposure: no raw
  /// pointer escapes, and the comparison never branches on contents.
  friend bool constant_time_equal(const Secret& a, const Secret& b) {
    return xsearch::constant_time_equal(ByteSpan(a.bytes_), ByteSpan(b.bytes_));
  }

  /// Constant-time equality against plain bytes (known-answer tests, tag
  /// checks against wire data).
  friend bool constant_time_equal(const Secret& a, ByteSpan b) {
    return xsearch::constant_time_equal(ByteSpan(a.bytes_), b);
  }

 private:
  void wipe() { secure_wipe(bytes_.data(), bytes_.size()); }

  Raw bytes_{};
};

/// Variable-length secret (HKDF output, attestation root keys). Same
/// discipline as Secret<N>: explicit construction, no ==/<<, wiped on
/// destroy and move-from, raw bytes only via expose(<sink>).
class SecretBytes {
 public:
  SecretBytes() = default;

  /// Adopts the buffer. Taking by && means no second plaintext copy is
  /// created; the moved-from vector holds nothing worth wiping.
  explicit SecretBytes(Bytes&& bytes) noexcept : bytes_(std::move(bytes)) {}

  SecretBytes(const SecretBytes& other) = default;
  SecretBytes& operator=(const SecretBytes& other) {
    if (this != &other) {
      wipe();
      bytes_ = other.bytes_;
    }
    return *this;
  }
  SecretBytes(SecretBytes&& other) noexcept : bytes_(std::move(other.bytes_)) {
    other.bytes_.clear();
  }
  SecretBytes& operator=(SecretBytes&& other) noexcept {
    if (this != &other) {
      wipe();
      bytes_ = std::move(other.bytes_);
      other.bytes_.clear();
    }
    return *this;
  }
  ~SecretBytes() { wipe(); }

  bool operator==(const SecretBytes&) const = delete;

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }

  [[nodiscard]] ByteSpan expose(SecretSink /*sink*/) const { return bytes_; }

  /// Secret-to-secret transfer: cuts a fixed-size key out of derived
  /// material (e.g. HKDF okm) without any expose() site in between.
  template <std::size_t N>
  [[nodiscard]] Secret<N> slice(std::size_t offset = 0) const {
    XS_CHECK(N <= bytes_.size() && offset <= bytes_.size() - N,
             "slice past the end of the secret");
    typename Secret<N>::Raw raw{};
    std::memcpy(raw.data(), bytes_.data() + offset, N);
    return Secret<N>::absorb(raw);
  }

  friend bool constant_time_equal(const SecretBytes& a, const SecretBytes& b) {
    return xsearch::constant_time_equal(ByteSpan(a.bytes_), ByteSpan(b.bytes_));
  }
  friend bool constant_time_equal(const SecretBytes& a, ByteSpan b) {
    return xsearch::constant_time_equal(ByteSpan(a.bytes_), b);
  }

 private:
  void wipe() { secure_wipe(bytes_.data(), bytes_.size()); }

  Bytes bytes_;
};

/// Secrets are not printable, period. Deleting the stream inserters turns a
/// `log << key` or ostringstream interpolation into a compile error instead
/// of a leak.
template <std::size_t N>
std::ostream& operator<<(std::ostream&, const Secret<N>&) = delete;
std::ostream& operator<<(std::ostream&, const SecretBytes&) = delete;

}  // namespace xsearch
