// Tests for the encrypted enclave→engine link (paper footnote 2) and the
// underlying envelope primitive.
#include <gtest/gtest.h>

#include "broker_util.hpp"
#include "crypto/envelope.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/engine_gateway.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

// ---- envelope primitive ---------------------------------------------------------

crypto::SecureRandom seeded_rng(std::uint8_t tag) {
  crypto::ChaChaKey::Raw raw{};
  raw.fill(tag);
  return crypto::SecureRandom(crypto::ChaChaKey::absorb(raw));
}

crypto::X25519KeyPair recipient_keys(std::uint8_t tag) {
  crypto::X25519Secret::Raw raw{};
  raw.fill(tag);
  return crypto::x25519_keypair_from_seed(crypto::X25519Secret::absorb(raw));
}

TEST(Envelope, SealOpenRoundTrip) {
  auto rng = seeded_rng(1);
  const auto recipient = recipient_keys(2);
  crypto::AeadKey response_key{};
  const Bytes envelope = crypto::envelope_seal(recipient.public_key, rng,
                                               to_bytes("aad"), to_bytes("payload"),
                                               &response_key);
  const auto opened = crypto::envelope_open(recipient, to_bytes("aad"), envelope);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(to_string(opened.value().plaintext), "payload");
  EXPECT_TRUE(constant_time_equal(opened.value().response_key, response_key));
}

TEST(Envelope, ReplyRoundTrip) {
  auto rng = seeded_rng(3);
  const auto recipient = recipient_keys(4);
  crypto::AeadKey response_key{};
  const Bytes envelope = crypto::envelope_seal(recipient.public_key, rng,
                                               to_bytes("aad"), to_bytes("request"),
                                               &response_key);
  const auto opened = crypto::envelope_open(recipient, to_bytes("aad"), envelope);
  ASSERT_TRUE(opened.is_ok());

  const Bytes reply = crypto::envelope_reply_seal(opened.value().response_key,
                                                  to_bytes("aad"), to_bytes("response"));
  const auto plain = crypto::envelope_reply_open(response_key, to_bytes("aad"), reply);
  ASSERT_TRUE(plain.is_ok());
  EXPECT_EQ(to_string(plain.value()), "response");
}

TEST(Envelope, WrongRecipientCannotOpen) {
  auto rng = seeded_rng(5);
  const auto intended = recipient_keys(6);
  const auto eavesdropper = recipient_keys(7);
  crypto::AeadKey response_key{};
  const Bytes envelope = crypto::envelope_seal(intended.public_key, rng, {},
                                               to_bytes("secret"), &response_key);
  EXPECT_FALSE(crypto::envelope_open(eavesdropper, {}, envelope).is_ok());
  EXPECT_TRUE(crypto::envelope_open(intended, {}, envelope).is_ok());
}

TEST(Envelope, TamperRejected) {
  auto rng = seeded_rng(8);
  const auto recipient = recipient_keys(9);
  crypto::AeadKey response_key{};
  Bytes envelope = crypto::envelope_seal(recipient.public_key, rng, {},
                                         to_bytes("secret"), &response_key);
  envelope.back() ^= 1;
  EXPECT_FALSE(crypto::envelope_open(recipient, {}, envelope).is_ok());
}

TEST(Envelope, AadMismatchRejected) {
  auto rng = seeded_rng(10);
  const auto recipient = recipient_keys(11);
  crypto::AeadKey response_key{};
  const Bytes envelope = crypto::envelope_seal(recipient.public_key, rng,
                                               to_bytes("context-A"), to_bytes("x"),
                                               &response_key);
  EXPECT_FALSE(crypto::envelope_open(recipient, to_bytes("context-B"), envelope).is_ok());
}

TEST(Envelope, TooShortRejected) {
  const auto recipient = recipient_keys(12);
  EXPECT_FALSE(crypto::envelope_open(recipient, {}, Bytes(10, 1)).is_ok());
}

// ---- encrypted engine link through the proxy --------------------------------------

class EngineLinkTest : public ::testing::Test {
 protected:
  EngineLinkTest()
      : log_([] {
          dataset::SyntheticLogConfig config;
          config.num_users = 20;
          config.total_queries = 1'500;
          config.vocab_size = 800;
          config.num_topics = 10;
          config.words_per_topic = 60;
          return dataset::generate_synthetic_log(config);
        }()),
        corpus_(log_, engine::CorpusConfig{.seed = 12, .num_documents = 800}),
        engine_(corpus_),
        gateway_(&engine_, 99),
        authority_(to_bytes("link-root")) {}

  dataset::QueryLog log_;
  engine::Corpus corpus_;
  engine::SearchEngine engine_;
  SecureEngineGateway gateway_;
  sgx::AttestationAuthority authority_;
};

TEST_F(EngineLinkTest, SearchWorksOverEncryptedLink) {
  XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 5'000;
  XSearchProxy proxy(gateway_, authority_, options);
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);

  const auto results = broker.search(log_.records()[5].text);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_FALSE(results.value().empty());
}

TEST_F(EngineLinkTest, EngineStillSeesObfuscatedQuery) {
  // Footnote 2 changes transport privacy, not obfuscation: the gateway
  // (engine side) still receives the OR query, not the raw one.
  std::vector<std::string> observed;
  engine_.set_observer([&observed](std::string_view q) { observed.emplace_back(q); });

  XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 5'000;
  XSearchProxy proxy(gateway_, authority_, options);
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 2);
  for (std::size_t i = 0; i < 10; ++i) {
    (void)broker.search(log_.records()[i].text);
  }
  observed.clear();
  const std::string secret = log_.records()[100].text;
  ASSERT_TRUE(broker.search(secret).is_ok());
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_NE(observed[0], secret);
  EXPECT_NE(observed[0].find(" OR "), std::string::npos);
}

TEST_F(EngineLinkTest, ResultsMatchPlainLink) {
  // The encrypted link is transport-only: same results as the plain link
  // when no decoy is drawn.
  XSearchProxy::Options options;
  options.k = 0;  // no randomness in sub-query choice
  options.history_capacity = 100;
  XSearchProxy encrypted(gateway_, authority_, options);
  XSearchProxy plain(&engine_, authority_, options);

  auto b1 = testutil::in_process_broker(encrypted, authority_,
                                        encrypted.measurement(), 3);
  auto b2 =
      testutil::in_process_broker(plain, authority_, plain.measurement(), 4);
  const auto& query = log_.records()[7].text;
  const auto r1 = b1.search(query);
  const auto r2 = b2.search(query);
  ASSERT_TRUE(r1.is_ok());
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r1.value(), r2.value());
}

TEST_F(EngineLinkTest, GatewayRejectsGarbageEnvelopes) {
  EXPECT_FALSE(gateway_.handle(Bytes(3, 1)).is_ok());
  EXPECT_FALSE(gateway_.handle(Bytes(200, 0xab)).is_ok());
}

TEST_F(EngineLinkTest, GatewayWithoutEngineEchoesEmpty) {
  SecureEngineGateway lonely(nullptr, 5);
  auto rng = seeded_rng(20);
  crypto::AeadKey response_key{};
  wire::EngineRequest request;
  request.sub_queries = {"anything"};
  const Bytes envelope = crypto::envelope_seal(
      lonely.public_key(), rng, to_bytes("xsearch-engine-link-v1"),
      wire::serialize_engine_request(request), &response_key);
  const auto sealed = lonely.handle(envelope);
  ASSERT_TRUE(sealed.is_ok());
  const auto plain = crypto::envelope_reply_open(
      response_key, to_bytes("xsearch-engine-link-v1"), sealed.value());
  ASSERT_TRUE(plain.is_ok());
  const auto results = wire::parse_results(plain.value());
  ASSERT_TRUE(results.is_ok());
  EXPECT_TRUE(results.value().empty());
}

}  // namespace
}  // namespace xsearch::core
