#include "crypto/chacha20.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/bytes.hpp"

namespace xsearch::crypto {
namespace {

ChaChaKey key_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  ChaChaKey::Raw raw{};
  std::memcpy(raw.data(), b.data(), raw.size());
  return ChaChaKey::absorb(raw);
}

ChaChaNonce nonce_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  ChaChaNonce n{};
  std::memcpy(n.data(), b.data(), n.size());
  return n;
}

// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20, BlockFunctionRfc8439) {
  const auto key =
      key_from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = nonce_from_hex("000000090000004a00000000");
  const auto block = chacha20_block(key, nonce, 1);
  EXPECT_EQ(hex_encode(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 §2.4.2 encryption test vector.
TEST(ChaCha20, EncryptionRfc8439) {
  const auto key =
      key_from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = nonce_from_hex("000000000000004a00000000");
  const Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.");
  const Bytes ciphertext = chacha20_xor(key, nonce, 1, plaintext);
  EXPECT_EQ(hex_encode(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, DecryptIsInverse) {
  const auto key = key_from_hex(
      "1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b");
  const auto nonce = nonce_from_hex("0102030405060708090a0b0c");
  const Bytes msg = to_bytes("round trip me please");
  const Bytes ct = chacha20_xor(key, nonce, 7, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(chacha20_xor(key, nonce, 7, ct), msg);
}

TEST(ChaCha20, EmptyInput) {
  const auto key = key_from_hex(
      "0000000000000000000000000000000000000000000000000000000000000000");
  const auto nonce = nonce_from_hex("000000000000000000000000");
  EXPECT_TRUE(chacha20_xor(key, nonce, 0, {}).empty());
}

TEST(ChaCha20, NonBlockAlignedLengths) {
  const auto key = key_from_hex(
      "2222222222222222222222222222222222222222222222222222222222222222");
  const auto nonce = nonce_from_hex("000000000000000000000001");
  for (std::size_t len : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    const Bytes msg(len, 0x5a);
    const Bytes ct = chacha20_xor(key, nonce, 0, msg);
    ASSERT_EQ(ct.size(), len);
    EXPECT_EQ(chacha20_xor(key, nonce, 0, ct), msg) << "len=" << len;
  }
}

TEST(ChaCha20, CounterOffsetsKeystream) {
  const auto key = key_from_hex(
      "3333333333333333333333333333333333333333333333333333333333333333");
  const auto nonce = nonce_from_hex("000000000000000000000002");
  // Encrypting 128 bytes at counter 0 should equal two 64-byte encryptions
  // at counters 0 and 1.
  const Bytes msg(128, 0);
  const Bytes full = chacha20_xor(key, nonce, 0, msg);
  const Bytes first = chacha20_xor(key, nonce, 0, Bytes(64, 0));
  const Bytes second = chacha20_xor(key, nonce, 1, Bytes(64, 0));
  Bytes combined = first;
  append(combined, second);
  EXPECT_EQ(full, combined);
}

// The XOR runs four blocks at a time in vector code and finishes the last
// 0..255 bytes one block at a time. Around each of those boundaries, and
// across a wrap of the 32-bit block counter, it must give exactly the
// keystream of the one-block function.
TEST(ChaCha20, FourBlockPathMatchesOneBlockReference) {
  const auto key = key_from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = nonce_from_hex("000000090000004a00000000");
  for (const std::uint32_t counter : {0u, 1u, 0xfffffffeu}) {
    for (const std::size_t len : {0u, 1u, 63u, 64u, 65u, 255u, 256u, 257u, 4095u,
                                  4096u, 4097u}) {
      Bytes msg(len);
      for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(i * 7 + 3);
      Bytes expected = msg;
      for (std::size_t block = 0; block * 64 < len; ++block) {
        const auto keystream =
            chacha20_block(key, nonce, counter + static_cast<std::uint32_t>(block));
        for (std::size_t i = block * 64; i < std::min(len, block * 64 + 64); ++i) {
          expected[i] ^= keystream[i - block * 64];
        }
      }
      EXPECT_EQ(chacha20_xor(key, nonce, counter, msg), expected)
          << "counter=" << counter << " len=" << len;
      Bytes in_place = msg;
      chacha20_xor_inplace(key, nonce, counter, in_place);
      EXPECT_EQ(in_place, expected) << "counter=" << counter << " len=" << len;
    }
  }
}

TEST(ChaCha20, DifferentNoncesDifferentStreams) {
  const auto key = key_from_hex(
      "4444444444444444444444444444444444444444444444444444444444444444");
  const Bytes msg(64, 0);
  const Bytes a = chacha20_xor(key, nonce_from_hex("000000000000000000000000"), 0, msg);
  const Bytes b = chacha20_xor(key, nonce_from_hex("000000000000000000000001"), 0, msg);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace xsearch::crypto
