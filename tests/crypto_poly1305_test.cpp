#include "crypto/poly1305.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.hpp"

namespace xsearch::crypto {
namespace {

Poly1305Key key_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  Poly1305Key::Raw raw{};
  std::memcpy(raw.data(), b.data(), raw.size());
  return Poly1305Key::absorb(raw);
}

// RFC 8439 §2.5.2 test vector.
TEST(Poly1305, Rfc8439Vector) {
  const auto key = key_from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const Bytes msg = to_bytes("Cryptographic Forum Research Group");
  EXPECT_EQ(hex_encode(poly1305(key, msg)), "a8061dc1305136c6c22b8baf0c0127a9");
}

// RFC 8439 Appendix A.3 vector #1: all-zero key and message.
TEST(Poly1305, ZeroKeyZeroMessage) {
  const Poly1305Key key{};
  const Bytes msg(64, 0);
  EXPECT_EQ(hex_encode(poly1305(key, msg)), "00000000000000000000000000000000");
}

// RFC 8439 Appendix A.3 vector #2: r = 0, s = text, message = text.
TEST(Poly1305, Rfc8439A3Vector2) {
  const auto key = key_from_hex(
      "0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e");
  const Bytes msg = to_bytes(
      "Any submission to the IETF intended by the Contributor for publication "
      "as all or part of an IETF Internet-Draft or RFC and any statement made "
      "within the context of an IETF activity is considered an \"IETF "
      "Contribution\". Such statements include oral statements in IETF "
      "sessions, as well as written and electronic communications made at any "
      "time or place, which are addressed to");
  EXPECT_EQ(hex_encode(poly1305(key, msg)), "36e5f6b5c5e06070f0efca96227a863e");
}

// RFC 8439 Appendix A.3 vector #3: r = text, s = 0.
TEST(Poly1305, Rfc8439A3Vector3) {
  const auto key = key_from_hex(
      "36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000");
  const Bytes msg = to_bytes(
      "Any submission to the IETF intended by the Contributor for publication "
      "as all or part of an IETF Internet-Draft or RFC and any statement made "
      "within the context of an IETF activity is considered an \"IETF "
      "Contribution\". Such statements include oral statements in IETF "
      "sessions, as well as written and electronic communications made at any "
      "time or place, which are addressed to");
  EXPECT_EQ(hex_encode(poly1305(key, msg)), "f3477e7cd95417af89a6b8794c310cf0");
}

// RFC 8439 A.3 vector #4 exercises the wraparound of 2^130-5.
TEST(Poly1305, Rfc8439A3Vector4) {
  const auto key = key_from_hex(
      "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  const Bytes msg = to_bytes(
      "'Twas brillig, and the slithy toves\nDid gyre and gimble in the "
      "wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.");
  EXPECT_EQ(hex_encode(poly1305(key, msg)), "4541669a7eaaee61e708dc7cbcc5eb62");
}

// A.3 vector #5: message 0xFF*16 with r = 2 forces maximal carries.
TEST(Poly1305, Rfc8439A3Vector5MaximalCarry) {
  const auto key = key_from_hex(
      "0200000000000000000000000000000000000000000000000000000000000000");
  const Bytes msg(16, 0xff);
  EXPECT_EQ(hex_encode(poly1305(key, msg)), "03000000000000000000000000000000");
}

TEST(Poly1305, EmptyMessage) {
  const auto key = key_from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  // Tag of empty message = s (the second key half) since h stays 0.
  EXPECT_EQ(hex_encode(poly1305(key, {})), "0103808afb0db2fd4abff6af4149f51b");
}

TEST(Poly1305, TagChangesWithMessage) {
  const auto key = key_from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  EXPECT_NE(poly1305(key, to_bytes("message A")), poly1305(key, to_bytes("message B")));
}

TEST(Poly1305, NonBlockAlignedLengths) {
  const auto key = key_from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Poly1305Tag prev{};
  for (std::size_t len : {1u, 15u, 16u, 17u, 31u, 32u, 33u}) {
    const Bytes msg(len, 0x42);
    const auto tag = poly1305(key, msg);
    EXPECT_NE(tag, prev) << "len=" << len;
    prev = tag;
  }
}

// Streaming: any split of the message into two updates, and a feed of one
// byte at a time, gives the one-shot tag. Lengths cover an empty message,
// whole blocks and partial final blocks.
TEST(Poly1305, StreamingMatchesOneShotAtEverySplit) {
  const auto key = key_from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  for (const std::size_t len : {0u, 1u, 15u, 16u, 17u, 47u, 64u, 100u}) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<std::uint8_t>(0xff - i * 13);
    const Poly1305Tag one_shot = poly1305(key, msg);
    for (std::size_t split = 0; split <= len; ++split) {
      Poly1305 mac(key);
      mac.update(ByteSpan(msg).first(split));
      mac.update(ByteSpan(msg).subspan(split));
      EXPECT_EQ(mac.finish(), one_shot) << "len=" << len << " split=" << split;
    }
    Poly1305 bytewise(key);
    for (std::size_t i = 0; i < len; ++i) bytewise.update(ByteSpan(msg).subspan(i, 1));
    EXPECT_EQ(bytewise.finish(), one_shot) << "len=" << len;
  }
}

}  // namespace
}  // namespace xsearch::crypto
