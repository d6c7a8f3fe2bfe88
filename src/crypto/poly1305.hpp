// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/secret.hpp"

namespace xsearch::crypto {

inline constexpr std::size_t kPoly1305KeySize = 32;
inline constexpr std::size_t kPoly1305TagSize = 16;

// The one-time key is Secret (it is keystream under the AEAD key); the tag
// is public wire data and stays plain.
using Poly1305Key = Secret<kPoly1305KeySize>;
using Poly1305Tag = std::array<std::uint8_t, kPoly1305TagSize>;

/// Streaming Poly1305: `update` takes the message in pieces of any size and
/// `finish` gives the tag of their concatenation, so a caller MACs data
/// where it lies instead of gathering it into one buffer. Holds key-derived
/// state, wiped on destruction.
class Poly1305 {
 public:
  explicit Poly1305(const Poly1305Key& key);
  ~Poly1305();

  Poly1305(const Poly1305&) = delete;
  Poly1305& operator=(const Poly1305&) = delete;

  void update(ByteSpan data);

  /// The tag of everything absorbed. Call once, after the last update.
  [[nodiscard]] Poly1305Tag finish();

 private:
  void blocks(const std::uint8_t* data, std::size_t size, std::uint64_t high_bit);

  // 44/44/42-bit limbs (after poly1305-donna-64): r and r^2, each with
  // 20 * limbs 1..2 for the reduction, the pad s, and the accumulator h.
  std::uint64_t r_[3] = {};
  std::uint64_t s_[2] = {};
  std::uint64_t rr_[3] = {};
  std::uint64_t ss_[2] = {};
  std::uint64_t pad_[2] = {};
  std::uint64_t h_[3] = {};
  std::array<std::uint8_t, 16> buffer_ = {};
  std::size_t buffered_ = 0;
};

/// Computes the Poly1305 tag of `data` under a (one-time!) 32-byte key.
[[nodiscard]] Poly1305Tag poly1305(const Poly1305Key& key, ByteSpan data);

}  // namespace xsearch::crypto
