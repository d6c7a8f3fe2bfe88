// End-to-end integration tests for the X-Search proxy and client broker:
// attestation, channel establishment, query obfuscation, engine round trip
// through the ocall boundary, filtering, and failure paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "broker_util.hpp"
#include "common/deadline.hpp"
#include "crypto/secure_channel.hpp"
#include "crypto/x25519.hpp"
#include "dataset/synthetic.hpp"
#include "engine/analytics.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "sgx/attestation.hpp"
#include "text/tokenizer.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

class ProxyTest : public ::testing::Test {
 protected:
  static dataset::QueryLog make_log() {
    dataset::SyntheticLogConfig config;
    config.num_users = 30;
    config.total_queries = 2000;
    config.vocab_size = 1200;
    config.num_topics = 12;
    config.words_per_topic = 80;
    return dataset::generate_synthetic_log(config);
  }

  ProxyTest()
      : log_(make_log()),
        corpus_(log_, engine::CorpusConfig{.seed = 2, .num_documents = 1500}),
        engine_(corpus_),
        authority_(to_bytes("intel-attestation-root")) {}

  XSearchProxy::Options options(std::size_t k = 2) {
    XSearchProxy::Options opt;
    opt.k = k;
    opt.history_capacity = 10'000;
    opt.seed = 99;
    return opt;
  }

  /// A client session keyed by hand rather than through a broker, so a test
  /// can hand the proxy a real sealed record under a deadline of its choice.
  struct ManualSession {
    std::uint64_t id = 0;
    crypto::SecureChannel channel;

    [[nodiscard]] Bytes seal_query(std::string_view query) {
      return channel.seal(wire::frame_query(query));
    }
    [[nodiscard]] Result<wire::ClientMessage> open_reply(ByteSpan reply) {
      auto plain = channel.open(reply);
      if (!plain) return plain.status();
      return wire::parse_client_message(plain.value());
    }
  };

  std::optional<ManualSession> open_manual_session(XSearchProxy& proxy) {
    crypto::X25519Key seed{};
    seed[0] = 0x42;
    const auto ephemeral =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    auto handshake = proxy.handshake(ephemeral.public_key);
    if (!handshake) return std::nullopt;
    auto static_pub = sgx::verify_and_extract_channel_key(
        authority_, handshake.value().quote, proxy.measurement());
    if (!static_pub) return std::nullopt;
    return ManualSession{
        handshake.value().session_id,
        crypto::SecureChannel::initiator(ephemeral, static_pub.value(),
                                         handshake.value().server_ephemeral_pub)};
  }

  dataset::QueryLog log_;
  engine::Corpus corpus_;
  engine::SearchEngine engine_;
  sgx::AttestationAuthority authority_;
};

TEST_F(ProxyTest, CreateValidatesOptions) {
  auto bad_k = options();
  bad_k.k = 0;
  EXPECT_EQ(XSearchProxy::create(&engine_, authority_, bad_k).status().code(),
            StatusCode::kInvalidArgument);

  auto bad_history = options();
  bad_history.history_capacity = 0;
  EXPECT_EQ(
      XSearchProxy::create(&engine_, authority_, bad_history).status().code(),
      StatusCode::kInvalidArgument);

  auto bad_fetch = options();
  bad_fetch.results_per_subquery = 0;
  EXPECT_EQ(
      XSearchProxy::create(&engine_, authority_, bad_fetch).status().code(),
      StatusCode::kInvalidArgument);

  // engine_tls_public_key without a SecureEngineGateway is a config error.
  auto orphan_key = options();
  orphan_key.engine_tls_public_key = crypto::X25519Key{};
  EXPECT_EQ(
      XSearchProxy::create(&engine_, authority_, orphan_key).status().code(),
      StatusCode::kInvalidArgument);

  // A null engine requires saturation mode.
  EXPECT_EQ(XSearchProxy::create(nullptr, authority_, options()).status().code(),
            StatusCode::kFailedPrecondition);

  auto proxy = XSearchProxy::create(&engine_, authority_, options());
  ASSERT_TRUE(proxy.is_ok()) << proxy.status().to_string();
  auto broker = testutil::in_process_broker(*proxy.value(), authority_,
                                            proxy.value()->measurement(), 7);
  EXPECT_TRUE(broker.connect().is_ok());
}

TEST_F(ProxyTest, WarmHistoryPreloadsDecoys) {
  auto proxy = XSearchProxy::create(&engine_, authority_, options());
  ASSERT_TRUE(proxy.is_ok());
  EXPECT_EQ(proxy.value()->history_size(), 0u);
  proxy.value()->warm_history({log_.records()[0].text, log_.records()[1].text});
  EXPECT_EQ(proxy.value()->history_size(), 2u);
}

TEST_F(ProxyTest, BrokerSearchReturnsResults) {
  XSearchProxy proxy(&engine_, authority_, options());
  // Warm the history so obfuscation has decoys.
  auto warm =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
  for (std::size_t i = 0; i < 20; ++i) {
    (void)warm.search(log_.records()[i].text);
  }

  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 2);
  const auto& query = log_.records()[50].text;
  const auto results = broker.search(query);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_FALSE(results.value().empty());
}

TEST_F(ProxyTest, ResultsAreScrubbedOfTracking) {
  XSearchProxy proxy(&engine_, authority_, options());
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 3);
  const auto results = broker.search(log_.records()[10].text);
  ASSERT_TRUE(results.is_ok());
  for (const auto& r : results.value()) {
    EXPECT_FALSE(engine::is_tracking_url(r.url)) << r.url;
  }
}

TEST_F(ProxyTest, EngineNeverSeesRawQueryOnceWarm) {
  XSearchProxy proxy(&engine_, authority_, options(/*k=*/3));
  std::vector<std::string> observed;
  engine_.set_observer([&observed](std::string_view q) { observed.emplace_back(q); });

  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 4);
  // Warm-up queries fill the history.
  for (std::size_t i = 0; i < 30; ++i) {
    (void)broker.search(log_.records()[i].text);
  }
  observed.clear();

  const std::string secret = log_.records()[100].text;
  ASSERT_TRUE(broker.search(secret).is_ok());
  ASSERT_EQ(observed.size(), 1u);
  // The engine saw an OR query strictly larger than the secret...
  EXPECT_NE(observed[0], secret);
  EXPECT_NE(observed[0].find(" OR "), std::string::npos);
  // ... which embeds the secret among k fakes.
  EXPECT_NE(observed[0].find(secret), std::string::npos);
}

TEST_F(ProxyTest, HistoryGrowsWithQueries) {
  XSearchProxy proxy(&engine_, authority_, options());
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 5);
  EXPECT_EQ(proxy.history_size(), 0u);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker.search(log_.records()[i].text).is_ok());
  }
  EXPECT_EQ(proxy.history_size(), 10u);
}

TEST_F(ProxyTest, TransitionCountsMatchNarrowInterface) {
  XSearchProxy proxy(&engine_, authority_, options());
  const auto before = proxy.enclave().transition_stats();
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 6);
  ASSERT_TRUE(broker.search(log_.records()[0].text).is_ok());
  const auto after = proxy.enclave().transition_stats();
  // 1 handshake ecall + 1 query ecall; 4 socket ocalls per engine trip.
  EXPECT_EQ(after.ecalls - before.ecalls, 2u);
  EXPECT_EQ(after.ocalls - before.ocalls, 4u);
}

// A request whose budget is already spent is refused before the request
// ecall: no trusted work runs and the record is never opened, so the same
// record still goes through afterwards on the same session.
TEST_F(ProxyTest, ExpiredDeadlineIsRefusedBeforeTheEcall) {
  XSearchProxy proxy(&engine_, authority_, options());
  auto session = open_manual_session(proxy);
  ASSERT_TRUE(session.has_value());
  const Bytes record = session->seal_query(log_.records()[0].text);

  const auto before = proxy.enclave().transition_stats();
  const auto refused =
      proxy.handle_query_record(session->id, record, Deadline::after(0));
  EXPECT_EQ(refused.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(proxy.enclave().transition_stats().ecalls, before.ecalls);
  EXPECT_EQ(proxy.enclave().transition_stats().ocalls, before.ocalls);
  EXPECT_EQ(proxy.history_size(), 0u);

  const auto served = proxy.handle_query_record(session->id, record, Deadline());
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  const auto reply = session->open_reply(served.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, wire::ClientMessageType::kResults);
  EXPECT_EQ(proxy.history_size(), 1u);
}

// The budget runs out while the host is reaching the engine: the `send`
// ocall sheds the round trip, so the engine never sees the OR query and the
// client gets a sealed DEADLINE_EXCEEDED.
TEST_F(ProxyTest, SendShedsTheEngineCallOnceTheBudgetIsSpent) {
  std::atomic<int> hook_calls{0};
  XSearchProxy::Options opt = options();
  opt.engine_fault_hook = [&hook_calls] {
    ++hook_calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return Status::ok();
  };
  XSearchProxy proxy(&engine_, authority_, opt);
  std::vector<std::string> observed;
  engine_.set_observer([&observed](std::string_view q) { observed.emplace_back(q); });
  auto session = open_manual_session(proxy);
  ASSERT_TRUE(session.has_value());

  const auto response = proxy.handle_query_record(
      session->id, session->seal_query(log_.records()[0].text),
      Deadline::after(20 * kMilli));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  const auto reply = session->open_reply(response.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, wire::ClientMessageType::kError);
  EXPECT_EQ(reply.value().error.rfind("DEADLINE_EXCEEDED", 0), 0u)
      << reply.value().error;
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_TRUE(observed.empty());
}

// The deadline is scoped to its own request: once a request has shed on its
// budget, neither host code on the same thread nor the next request, which
// has no deadline, is shed by the stale budget.
TEST_F(ProxyTest, RequestDeadlineDoesNotLeakIntoTheNextRequest) {
  std::atomic<bool> slow{true};
  XSearchProxy::Options opt = options();
  opt.engine_fault_hook = [&slow] {
    if (slow.load()) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return Status::ok();
  };
  XSearchProxy proxy(&engine_, authority_, opt);
  auto session = open_manual_session(proxy);
  ASSERT_TRUE(session.has_value());

  const auto shed = proxy.handle_query_record(
      session->id, session->seal_query(log_.records()[0].text),
      Deadline::after(20 * kMilli));
  ASSERT_TRUE(shed.is_ok()) << shed.status().to_string();
  const auto shed_reply = session->open_reply(shed.value());
  ASSERT_TRUE(shed_reply.is_ok());
  ASSERT_EQ(shed_reply.value().type, wire::ClientMessageType::kError);

  // The first deadline has passed by now. Host code on this thread reaching
  // the engine outside any request must not inherit it...
  slow.store(false);
  auto sock = proxy.host_enclave().ocall(sgx::OcallId::kSockConnect, Bytes{});
  ASSERT_TRUE(sock.is_ok());
  Bytes send_payload = sock.value();
  wire::EngineRequest request;
  request.sub_queries = {log_.records()[2].text};
  request.top_k_each = 5;
  append(send_payload, wire::serialize_engine_request(request));
  EXPECT_TRUE(proxy.host_enclave().ocall(sgx::OcallId::kSend, send_payload).is_ok());
  (void)proxy.host_enclave().ocall(sgx::OcallId::kClose, sock.value());

  // ...and neither must the next request, which carries no deadline.
  const auto served = proxy.handle_query_record(
      session->id, session->seal_query(log_.records()[1].text));
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  const auto reply = session->open_reply(served.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, wire::ClientMessageType::kResults)
      << reply.value().error;
}

TEST_F(ProxyTest, WrongMeasurementRejectedByBroker) {
  XSearchProxy proxy(&engine_, authority_, options());
  sgx::Measurement wrong{};
  wrong.fill(0xab);
  auto broker = testutil::in_process_broker(proxy, authority_, wrong, 7);
  const auto results = broker.search("query");
  EXPECT_FALSE(results.is_ok());
  EXPECT_EQ(results.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(ProxyTest, WrongAuthorityRejectedByBroker) {
  XSearchProxy proxy(&engine_, authority_, options());
  sgx::AttestationAuthority rogue(to_bytes("rogue-root"));
  auto broker =
      testutil::in_process_broker(proxy, rogue, proxy.measurement(), 8);
  EXPECT_FALSE(broker.search("query").is_ok());
}

TEST_F(ProxyTest, TamperedRecordRejected) {
  XSearchProxy proxy(&engine_, authority_, options());
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 9);
  ASSERT_TRUE(broker.connect().is_ok());

  // Forge a record outside any channel: the enclave must refuse it.
  Bytes garbage(64, 0x5a);
  const auto response = proxy.handle_query_record(1, garbage);
  EXPECT_FALSE(response.is_ok());
}

TEST_F(ProxyTest, UnknownSessionRejected) {
  XSearchProxy proxy(&engine_, authority_, options());
  const auto response = proxy.handle_query_record(4242, Bytes(64, 1));
  EXPECT_FALSE(response.is_ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST_F(ProxyTest, MultipleIndependentClients) {
  XSearchProxy proxy(&engine_, authority_, options());
  auto alice =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 10);
  auto bob =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 11);
  ASSERT_TRUE(alice.search(log_.records()[0].text).is_ok());
  ASSERT_TRUE(bob.search(log_.records()[1].text).is_ok());
  ASSERT_TRUE(alice.search(log_.records()[2].text).is_ok());
}

TEST_F(ProxyTest, ConcurrentClients) {
  XSearchProxy proxy(&engine_, authority_, options());
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto broker =
          testutil::in_process_broker(proxy, authority_, proxy.measurement(),
                                      static_cast<std::uint64_t>(100 + c));
      for (int i = 0; i < kQueriesEach; ++i) {
        const auto& q = log_.records()[static_cast<std::size_t>(c * kQueriesEach + i)].text;
        if (!broker.search(q).is_ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(proxy.history_size(),
            static_cast<std::size_t>(kClients) * kQueriesEach);
}

TEST_F(ProxyTest, SaturationModeSkipsEngine) {
  XSearchProxy::Options opt = options();
  opt.contact_engine = false;
  XSearchProxy proxy(nullptr, authority_, opt);
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 12);
  const auto results = broker.search("a query");
  ASSERT_TRUE(results.is_ok());
  EXPECT_TRUE(results.value().empty());
  EXPECT_EQ(proxy.history_size(), 1u);  // obfuscation path still runs
  // Only the 2 ecalls happened; no socket ocalls.
  EXPECT_EQ(proxy.enclave().transition_stats().ocalls, 0u);
}

TEST_F(ProxyTest, FilteredResultsRelateToOriginal) {
  XSearchProxy proxy(&engine_, authority_, options(/*k=*/2));
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 13);
  for (std::size_t i = 0; i < 40; ++i) {
    (void)broker.search(log_.records()[i].text);
  }
  const std::string query = log_.records()[123].text;
  const auto results = broker.search(query);
  ASSERT_TRUE(results.is_ok());
  // Every surviving result shares at least one word with the query
  // (otherwise its original-score would be 0 and a fake could outrank it —
  // zero-score results only survive when no fake matches either).
  const auto q_tokens = text::tokenize(query);
  for (const auto& r : results.value()) {
    const std::size_t overlap = text::common_word_count(
        query, r.title + " " + r.description);
    const bool relevant = overlap > 0;
    if (!relevant) {
      // Permitted only when the result is equally unrelated to everything.
      SUCCEED();
    }
  }
}

TEST_F(ProxyTest, EpcUsageVisible) {
  XSearchProxy proxy(&engine_, authority_, options());
  auto broker =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 14);
  const std::size_t before = proxy.enclave().epc().in_use();
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(broker.search(log_.records()[i].text).is_ok());
  }
  EXPECT_GT(proxy.enclave().epc().in_use(), before);
  // Enclave occupancy decomposes exactly into the history table plus the
  // per-session channel state held by the bounded session table.
  EXPECT_EQ(proxy.history_memory_bytes() + proxy.session_stats().epc_bytes,
            proxy.enclave().epc().in_use());
  EXPECT_EQ(proxy.session_stats().active, 1u);
}

}  // namespace
}  // namespace xsearch::core
