#include "crypto/chacha20.hpp"

#include <bit>
#include <cstring>

namespace xsearch::crypto {

namespace {

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

using State = std::array<std::uint32_t, 16>;

[[nodiscard]] State make_state(const ChaChaKey& key, const ChaChaNonce& nonce,
                               std::uint32_t counter) {
  const auto key_bytes = key.expose(SecretSink::kCipherCore);
  State s;
  s[0] = 0x61707865;  // "expa"
  s[1] = 0x3320646e;  // "nd 3"
  s[2] = 0x79622d32;  // "2-by"
  s[3] = 0x6b206574;  // "te k"
  for (int i = 0; i < 8; ++i) s[static_cast<std::size_t>(4 + i)] = xsearch::load_le32(key_bytes.data() + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[static_cast<std::size_t>(13 + i)] = xsearch::load_le32(nonce.data() + 4 * i);
  return s;
}

void core(const State& input, std::array<std::uint8_t, 64>& out) {
  State x = input;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    xsearch::store_le32(out.data() + 4 * i, x[i] + input[i]);
  }
}

// Four blocks at once in GCC/Clang vector extensions: vector i holds state
// word i of blocks n..n+3, so one quarter round on vectors is four quarter
// rounds. 16-byte vectors compile to the x86-64 baseline (SSE2) with no
// -march flag and no intrinsics; every operation is data-independent.
using U32x4 = std::uint32_t __attribute__((vector_size(16)));
using U16x8 = std::uint16_t __attribute__((vector_size(16)));

constexpr std::size_t kWideBytes = 4 * 64;

inline U32x4 splat(std::uint32_t v) { return U32x4{v, v, v, v}; }

inline U32x4 rotl(U32x4 v, int n) { return (v << n) | (v >> (32 - n)); }

// Rotating by 16 swaps the 16-bit halves: one shuffle, not two shifts.
inline U32x4 rotl16(U32x4 v) {
  const auto halves = std::bit_cast<U16x8>(v);
  return std::bit_cast<U32x4>(
      __builtin_shufflevector(halves, halves, 1, 0, 3, 2, 5, 4, 7, 6));
}

inline void quarter_round(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b; d ^= a; d = rotl16(d);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

// Writes the keystream of blocks input[12]..input[12]+3 to `out` in stream
// order (out[4 * b + g] = bytes 16g..16g+15 of block b).
void core4(const State& input, U32x4 (&out)[16]) {
  U32x4 x[16];
  for (std::size_t i = 0; i < 16; ++i) x[i] = splat(input[i]);
  const U32x4 lanes = {0, 1, 2, 3};
  x[12] += lanes;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (std::size_t i = 0; i < 16; ++i) x[i] += splat(input[i]);
  x[12] += lanes;
  // Transpose each group of four word-vectors into four block rows.
  for (std::size_t g = 0; g < 4; ++g) {
    const U32x4 a = x[4 * g], b = x[4 * g + 1], c = x[4 * g + 2], d = x[4 * g + 3];
    const U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    const U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    const U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    const U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    out[g] = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5);
    out[4 + g] = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7);
    out[8 + g] = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5);
    out[12 + g] = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7);
  }
}

}  // namespace

std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key, const ChaChaNonce& nonce,
                                            std::uint32_t counter) {
  std::array<std::uint8_t, 64> out;
  State state = make_state(key, nonce, counter);
  core(state, out);
  // The state words embed the key; don't leave them on the stack.
  secure_wipe(state.data(), sizeof(state));
  return out;
}

void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::span<std::uint8_t> data) {
  State state = make_state(key, nonce, counter);
  std::uint8_t* p = data.data();
  std::size_t left = data.size();

  U32x4 wide[16];
  for (; left >= kWideBytes; p += kWideBytes, left -= kWideBytes) {
    core4(state, wide);
    state[12] += 4;
    for (std::size_t i = 0; i < 16; ++i) {
      U32x4 chunk;
      std::memcpy(&chunk, p + 16 * i, sizeof chunk);
      chunk ^= wide[i];
      std::memcpy(p + 16 * i, &chunk, sizeof chunk);
    }
  }

  // The last 0..255 bytes, one block at a time.
  std::array<std::uint8_t, 64> keystream;
  while (left > 0) {
    core(state, keystream);
    ++state[12];
    const std::size_t n = std::min<std::size_t>(64, left);
    for (std::size_t i = 0; i < n; ++i) p[i] ^= keystream[i];
    p += n;
    left -= n;
  }

  // Key schedule and keystream blocks are key-equivalent material.
  secure_wipe(state.data(), sizeof(state));
  secure_wipe(wide, sizeof(wide));
  secure_wipe(keystream);
}

Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce, std::uint32_t counter,
                   ByteSpan data) {
  Bytes out(data.begin(), data.end());
  chacha20_xor_inplace(key, nonce, counter, out);
  return out;
}

}  // namespace xsearch::crypto
