#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace xsearch::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = to_bytes("Jefe");
  const Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4) {
  const Bytes key = hex_decode("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const Bytes data(50, 0xcd);
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// Key longer than the block size is hashed first.
TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes data = to_bytes("message");
  EXPECT_NE(hmac_sha256(to_bytes("key1"), data), hmac_sha256(to_bytes("key2"), data));
}

// RFC 5869 test vectors for HKDF-SHA256.
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  const SecretBytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm.expose(SecretSink::kTestVector)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case2LongInputs) {
  Bytes ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) ikm.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0x60; i <= 0xaf; ++i) salt.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0xb0; i <= 0xff; ++i) info.push_back(static_cast<std::uint8_t>(i));
  const SecretBytes okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(hex_encode(okm.expose(SecretSink::kTestVector)),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(Hkdf, Rfc5869Case3ZeroSaltInfo) {
  const Bytes ikm(22, 0x0b);
  const SecretBytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(hex_encode(okm.expose(SecretSink::kTestVector)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandLengthExact) {
  for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 255u}) {
    EXPECT_EQ(hkdf(to_bytes("salt"), to_bytes("ikm"), to_bytes("info"), len).size(), len);
  }
}

TEST(HkdfDeathTest, ExpandPastTheRfcBoundAbortsInEveryBuild) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Sha256Digest prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
  EXPECT_EQ(hkdf_expand(prk, {}, 255 * kSha256DigestSize).size(),
            255 * kSha256DigestSize);
  EXPECT_DEATH((void)hkdf_expand(prk, {}, 255 * kSha256DigestSize + 1),
               "HKDF-Expand length exceeds");
}

TEST(Hkdf, InfoSeparatesKeys) {
  const SecretBytes a = hkdf(to_bytes("s"), to_bytes("ikm"), to_bytes("client"), 32);
  const SecretBytes b = hkdf(to_bytes("s"), to_bytes("ikm"), to_bytes("server"), 32);
  EXPECT_FALSE(constant_time_equal(a, b.expose(SecretSink::kTestVector)));
}

}  // namespace
}  // namespace xsearch::crypto
