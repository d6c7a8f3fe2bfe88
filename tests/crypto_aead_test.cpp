#include "crypto/aead.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.hpp"

namespace xsearch::crypto {
namespace {

AeadKey key_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  AeadKey::Raw raw{};
  std::memcpy(raw.data(), b.data(), raw.size());
  return AeadKey::absorb(raw);
}

AeadNonce nonce_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  AeadNonce n{};
  std::memcpy(n.data(), b.data(), n.size());
  return n;
}

// RFC 8439 §2.8.2 AEAD test vector.
TEST(Aead, Rfc8439SealVector) {
  const auto key = key_from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const auto nonce = nonce_from_hex("070000004041424344454647");
  const Bytes aad = hex_decode("50515253c0c1c2c3c4c5c6c7");
  const Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.");

  const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);

  const std::string expected_ct =
      "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
      "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
      "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
      "3ff4def08e4b7a9de576d26586cec64b6116";
  const std::string expected_tag = "1ae10b594f09e26a7e902ecbd0600691";
  EXPECT_EQ(hex_encode(ByteSpan(sealed.data(), plaintext.size())), expected_ct);
  EXPECT_EQ(hex_encode(ByteSpan(sealed.data() + plaintext.size(), kAeadTagSize)),
            expected_tag);
}

TEST(Aead, OpenRecoversPlaintext) {
  const auto key = key_from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const auto nonce = nonce_from_hex("070000004041424344454647");
  const Bytes aad = to_bytes("header");
  const Bytes plaintext = to_bytes("secret query: sensitive medical terms");
  const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
  const auto opened = aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aead, TamperedCiphertextRejected) {
  const auto key = key_from_hex(
      "0101010101010101010101010101010101010101010101010101010101010101");
  const auto nonce = make_nonce(1, 1);
  const Bytes plaintext = to_bytes("payload");
  Bytes sealed = aead_seal(key, nonce, {}, plaintext);
  sealed[0] ^= 0x01;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, TamperedTagRejected) {
  const auto key = key_from_hex(
      "0101010101010101010101010101010101010101010101010101010101010101");
  const auto nonce = make_nonce(1, 2);
  Bytes sealed = aead_seal(key, nonce, {}, to_bytes("payload"));
  sealed.back() ^= 0x80;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, WrongAadRejected) {
  const auto key = key_from_hex(
      "0202020202020202020202020202020202020202020202020202020202020202");
  const auto nonce = make_nonce(0, 0);
  const Bytes sealed = aead_seal(key, nonce, to_bytes("aad-A"), to_bytes("data"));
  EXPECT_FALSE(aead_open(key, nonce, to_bytes("aad-B"), sealed).has_value());
  EXPECT_TRUE(aead_open(key, nonce, to_bytes("aad-A"), sealed).has_value());
}

TEST(Aead, WrongNonceRejected) {
  const auto key = key_from_hex(
      "0303030303030303030303030303030303030303030303030303030303030303");
  const Bytes sealed = aead_seal(key, make_nonce(0, 1), {}, to_bytes("data"));
  EXPECT_FALSE(aead_open(key, make_nonce(0, 2), {}, sealed).has_value());
}

TEST(Aead, WrongKeyRejected) {
  const auto key_a = key_from_hex(
      "0404040404040404040404040404040404040404040404040404040404040404");
  const auto key_b = key_from_hex(
      "0505050505050505050505050505050505050505050505050505050505050505");
  const Bytes sealed = aead_seal(key_a, make_nonce(0, 0), {}, to_bytes("data"));
  EXPECT_FALSE(aead_open(key_b, make_nonce(0, 0), {}, sealed).has_value());
}

TEST(Aead, TruncatedRecordRejected) {
  const auto key = key_from_hex(
      "0606060606060606060606060606060606060606060606060606060606060606");
  const Bytes sealed = aead_seal(key, make_nonce(0, 0), {}, to_bytes("data"));
  EXPECT_FALSE(
      aead_open(key, make_nonce(0, 0), {}, ByteSpan(sealed.data(), 5)).has_value());
  EXPECT_FALSE(aead_open(key, make_nonce(0, 0), {}, {}).has_value());
}

TEST(Aead, EmptyPlaintextRoundTrip) {
  const auto key = key_from_hex(
      "0707070707070707070707070707070707070707070707070707070707070707");
  const Bytes sealed = aead_seal(key, make_nonce(9, 9), to_bytes("aad"), {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  const auto opened = aead_open(key, make_nonce(9, 9), to_bytes("aad"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, MakeNonceEncodesPrefixAndCounter) {
  const auto n1 = make_nonce(0xaabbccdd, 42);
  const auto n2 = make_nonce(0xaabbccdd, 43);
  const auto n3 = make_nonce(0xaabbccde, 42);
  EXPECT_NE(n1, n2);
  EXPECT_NE(n1, n3);
  EXPECT_EQ(load_le32(n1.data()), 0xaabbccddu);
  EXPECT_EQ(load_le64(n1.data() + 4), 42u);
}

TEST(Aead, LargePayloadRoundTrip) {
  const auto key = key_from_hex(
      "0808080808080808080808080808080808080808080808080808080808080808");
  Bytes big(1 << 18, 0xab);
  const Bytes sealed = aead_seal(key, make_nonce(1, 1), {}, big);
  const auto opened = aead_open(key, make_nonce(1, 1), {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, big);
}

// The in-place forms produce the same record as the copying ones, and a
// rejected record is left exactly as it was.
TEST(Aead, InPlaceSealAndOpenMatchCopyingForms) {
  const auto key = key_from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const auto nonce = nonce_from_hex("070000004041424344454647");
  const Bytes aad = hex_decode("50515253c0c1c2c3c4c5c6c7");
  for (const std::size_t len : {0u, 1u, 16u, 255u, 257u, 7000u}) {
    Bytes plaintext(len);
    for (std::size_t i = 0; i < len; ++i) plaintext[i] = static_cast<std::uint8_t>(i);

    Bytes record = plaintext;
    aead_seal_in_place(key, nonce, aad, record);
    EXPECT_EQ(record, aead_seal(key, nonce, aad, plaintext)) << "len=" << len;

    // Behind a header: the header stays as it is, the rest is the same record.
    Bytes framed = plaintext;
    framed.insert(framed.begin(), {0xaa, 0xbb, 0xcc});
    aead_seal_in_place(key, nonce, aad, framed, 3);
    EXPECT_EQ(Bytes(framed.begin(), framed.begin() + 3), (Bytes{0xaa, 0xbb, 0xcc}));
    EXPECT_EQ(Bytes(framed.begin() + 3, framed.end()), record) << "len=" << len;

    Bytes tampered = record;
    tampered[tampered.size() / 2] ^= 1;
    const Bytes before = tampered;
    EXPECT_FALSE(aead_open_in_place(key, nonce, aad, tampered).has_value());
    EXPECT_EQ(tampered, before);

    const auto opened = aead_open_in_place(key, nonce, aad, record);
    ASSERT_TRUE(opened.has_value()) << "len=" << len;
    EXPECT_EQ(opened->data(), record.data());
    EXPECT_EQ(Bytes(opened->begin(), opened->end()), plaintext);
  }
}

}  // namespace
}  // namespace xsearch::crypto
