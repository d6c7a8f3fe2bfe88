#include "crypto/poly1305.hpp"

#include <algorithm>
#include <cstring>

namespace xsearch::crypto {

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = 0xfffffffffff;
constexpr std::uint64_t kMask42 = 0x3ffffffffff;
constexpr std::uint64_t kHighBit = std::uint64_t{1} << 40;  // 2^128 in limb 2

// The carry chain after a multiply: the 130-bit product d0..d2 back to
// 44/44/42-bit limbs, folding the bits above 2^130 in as 5 * (bits).
inline void carry(u128 d0, u128 d1, u128 d2, std::uint64_t& h0, std::uint64_t& h1,
                  std::uint64_t& h2) {
  std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
  h0 = static_cast<std::uint64_t>(d0) & kMask44;
  d1 += c;
  c = static_cast<std::uint64_t>(d1 >> 44);
  h1 = static_cast<std::uint64_t>(d1) & kMask44;
  d2 += c;
  c = static_cast<std::uint64_t>(d2 >> 42);
  h2 = static_cast<std::uint64_t>(d2) & kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
}

// Adds the 16-byte block at `p` (plus its 2^128 bit, `high_bit`) to h.
inline void add_block(const std::uint8_t* p, std::uint64_t high_bit, std::uint64_t& h0,
                      std::uint64_t& h1, std::uint64_t& h2) {
  const std::uint64_t t0 = load_le64(p);
  const std::uint64_t t1 = load_le64(p + 8);
  h0 += t0 & kMask44;
  h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
  h2 += ((t1 >> 24) & kMask42) | high_bit;
}

}  // namespace

Poly1305::Poly1305(const Poly1305Key& key) {
  const auto key_bytes = key.expose(SecretSink::kCipherCore);
  const std::uint64_t t0 = load_le64(key_bytes.data());
  const std::uint64_t t1 = load_le64(key_bytes.data() + 8);
  // r is clamped per the RFC while it is split into limbs.
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  // 2^130 = 5 (mod p), and limb 1 and 2 products land 2 bits short of a
  // limb boundary: fold them back multiplied by 5 * 4.
  s_[0] = r_[1] * 20;
  s_[1] = r_[2] * 20;
  carry(u128{r_[0]} * r_[0] + u128{r_[1]} * s_[1] + u128{r_[2]} * s_[0],
        u128{r_[0]} * r_[1] + u128{r_[1]} * r_[0] + u128{r_[2]} * s_[1],
        u128{r_[0]} * r_[2] + u128{r_[1]} * r_[1] + u128{r_[2]} * r_[0], rr_[0], rr_[1],
        rr_[2]);
  ss_[0] = rr_[1] * 20;
  ss_[1] = rr_[2] * 20;
  pad_[0] = load_le64(key_bytes.data() + 16);
  pad_[1] = load_le64(key_bytes.data() + 24);
}

Poly1305::~Poly1305() {
  secure_wipe(r_, sizeof(r_));
  secure_wipe(s_, sizeof(s_));
  secure_wipe(rr_, sizeof(rr_));
  secure_wipe(ss_, sizeof(ss_));
  secure_wipe(pad_, sizeof(pad_));
  secure_wipe(h_, sizeof(h_));
  secure_wipe(buffer_);
}

void Poly1305::blocks(const std::uint8_t* data, std::size_t size,
                      std::uint64_t high_bit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  const std::uint64_t s1 = s_[0], s2 = s_[1];
  const std::uint64_t q0 = rr_[0], q1 = rr_[1], q2 = rr_[2];
  const std::uint64_t z1 = ss_[0], z2 = ss_[1];
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  // Two blocks per step: h = (h + m1) * r^2 + m2 * r. The two products do
  // not depend on each other, so they overlap instead of chaining.
  for (; size >= 32; data += 32, size -= 32) {
    add_block(data, high_bit, h0, h1, h2);
    std::uint64_t g0 = 0, g1 = 0, g2 = 0;
    add_block(data + 16, high_bit, g0, g1, g2);
    carry(u128{h0} * q0 + u128{h1} * z2 + u128{h2} * z1 + u128{g0} * r0 + u128{g1} * s2 +
              u128{g2} * s1,
          u128{h0} * q1 + u128{h1} * q0 + u128{h2} * z2 + u128{g0} * r1 + u128{g1} * r0 +
              u128{g2} * s2,
          u128{h0} * q2 + u128{h1} * q1 + u128{h2} * q0 + u128{g0} * r2 + u128{g1} * r1 +
              u128{g2} * r0,
          h0, h1, h2);
  }
  for (; size >= 16; data += 16, size -= 16) {
    // h = (h + m) * r (mod 2^130 - 5)
    add_block(data, high_bit, h0, h1, h2);
    carry(u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1,
          u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2,
          u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0, h0, h1, h2);
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(ByteSpan data) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(buffer_.size() - buffered_, left);
    if (take > 0) std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    left -= take;
    if (buffered_ < buffer_.size()) return;
    blocks(buffer_.data(), buffer_.size(), kHighBit);
    buffered_ = 0;
  }
  const std::size_t whole = left & ~std::size_t{15};
  blocks(p, whole, kHighBit);
  if (left > whole) {
    buffered_ = left - whole;
    std::memcpy(buffer_.data(), p + whole, buffered_);
  }
}

Poly1305Tag Poly1305::finish() {
  if (buffered_ > 0) {
    // The final partial block carries its 2^(8n) bit inside the block.
    buffer_[buffered_] = 1;
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_) + 1,
              buffer_.end(), std::uint8_t{0});
    blocks(buffer_.data(), buffer_.size(), 0);
    buffered_ = 0;
  }

  // Full carry, then h mod p by a constant-time conditional subtraction.
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  std::uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c; c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c;

  std::uint64_t g0 = h0 + 5;
  c = g0 >> 44; g0 &= kMask44;
  std::uint64_t g1 = h1 + c;
  c = g1 >> 44; g1 &= kMask44;
  const std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);

  // Select h if h < p else g = h - p.
  const std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if g2 did not borrow
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // tag = (h + s) mod 2^128, serialized little-endian.
  const std::uint64_t s0 = pad_[0], s1 = pad_[1];
  h0 += s0 & kMask44;
  c = h0 >> 44; h0 &= kMask44;
  h1 += (((s0 >> 44) | (s1 << 20)) & kMask44) + c;
  c = h1 >> 44; h1 &= kMask44;
  h2 += ((s1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  Poly1305Tag tag;
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Poly1305Tag poly1305(const Poly1305Key& key, ByteSpan data) {
  Poly1305 mac(key);
  mac.update(data);
  return mac.finish();
}

}  // namespace xsearch::crypto
