// The unified-API contract, asserted identically across all five
// mechanisms: session lifecycle, sync search, the asynchronous batch path,
// introspection, and error paths. Value-parameterized on the registered
// mechanism name, so a sixth mechanism joins the suite by adding its name.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "api/registry.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::api {
namespace {

constexpr const char* kMechanisms[] = {"direct", "tmn", "tor", "peas",
                                       "xsearch"};

/// One shared world for the whole suite: a log, a corpus and an engine.
class World {
 public:
  World() {
    dataset::SyntheticLogConfig config;
    config.num_users = 30;
    config.total_queries = 2'000;
    config.vocab_size = 1'200;
    config.num_topics = 12;
    log_ = dataset::generate_synthetic_log(config);
    corpus_ = std::make_unique<engine::Corpus>(
        log_, engine::CorpusConfig{.num_documents = 600});
    engine_ = std::make_unique<engine::SearchEngine>(*corpus_);
  }

  [[nodiscard]] Backend backend() const {
    Backend backend;
    backend.engine = engine_.get();
    backend.fake_source = &log_;
    return backend;
  }

  [[nodiscard]] const dataset::QueryLog& log() const { return log_; }

  static const World& instance() {
    static const World world;
    return world;
  }

 private:
  dataset::QueryLog log_;
  std::unique_ptr<engine::Corpus> corpus_;
  std::unique_ptr<engine::SearchEngine> engine_;
};

class ApiClientTest : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] static ClientConfig small_config() {
    ClientConfig config;
    config.k = 2;
    config.top_k = 10;
    config.seed = 42;
    config.history_capacity = 10'000;
    config.batch_workers = 2;
    return config;
  }

  [[nodiscard]] ClientPtr make(const ClientConfig& config = small_config()) {
    auto client = make_client(GetParam(), World::instance().backend(), config);
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    ClientPtr ptr = client.is_ok() ? std::move(client).value() : nullptr;
    if (ptr) {
      // Obfuscating mechanisms need decoy material before searching.
      std::vector<std::string> warm;
      for (std::size_t i = 0; i < 20; ++i) {
        warm.push_back(World::instance().log().records()[i * 17].text);
      }
      EXPECT_TRUE(ptr->prime(warm).is_ok());
    }
    return ptr;
  }

  [[nodiscard]] static std::string a_query(std::size_t i = 100) {
    return World::instance().log().records()[i].text;
  }
};

TEST_P(ApiClientTest, RegistryBuildsTheMechanism) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->privacy_properties().mechanism, GetParam());
}

TEST_P(ApiClientTest, ConnectIsIdempotentAndCloseDisconnects) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  EXPECT_FALSE(client->connected());
  ASSERT_TRUE(client->connect().is_ok());
  EXPECT_TRUE(client->connected());
  ASSERT_TRUE(client->connect().is_ok());
  EXPECT_TRUE(client->connected());
  client->close();
  EXPECT_FALSE(client->connected());
  // A closed client can be revived.
  ASSERT_TRUE(client->connect().is_ok());
  EXPECT_TRUE(client->connected());
}

TEST_P(ApiClientTest, SearchLazilyConnectsAndReturnsResults) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  const auto results = client->search(a_query());
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_TRUE(client->connected());
  EXPECT_FALSE(results.value().empty());
  EXPECT_EQ(client->stats().searches, 1u);
  EXPECT_EQ(client->stats().failures, 0u);
}

TEST_P(ApiClientTest, ResultBudgetIsBounded) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  const ClientConfig config = small_config();
  const auto results = client->search(a_query(), 5);
  ASSERT_TRUE(results.is_ok());
  // Mechanisms answering through an OR query may merge up to (k+1) result
  // sets; no mechanism may exceed that.
  EXPECT_LE(results.value().size(), 5 * (config.k + 1));
}

TEST_P(ApiClientTest, BatchSubmitWaitCompletesEveryTicket) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  constexpr std::size_t kBatch = 12;
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const Ticket t = client->submit(a_query(200 + i * 3));
    ASSERT_NE(t, kInvalidTicket);
    tickets.push_back(t);
  }
  for (const Ticket t : tickets) {
    const SearchOutcome outcome = client->wait(t);
    EXPECT_EQ(outcome.ticket, t);
    EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
    EXPECT_FALSE(outcome.results.empty());
    EXPECT_GE(outcome.latency, 0);
  }
  const auto stats = client->stats();
  EXPECT_EQ(stats.submitted, kBatch);
  EXPECT_EQ(stats.completed, kBatch);
}

TEST_P(ApiClientTest, BatchPollEventuallyDeliversEachOutcomeOnce) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  const Ticket t = client->submit(a_query(300));
  ASSERT_NE(t, kInvalidTicket);
  client->drain();
  const auto outcome = client->poll(t);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->status.is_ok());
  // Outcomes are delivered exactly once; a second poll reports NOT_FOUND.
  const auto again = client->poll(t);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status.code(), StatusCode::kNotFound);
}

TEST_P(ApiClientTest, BatchCallbackFires) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  std::atomic<int> fired{0};
  client->submit(a_query(123), 0, [&](SearchOutcome outcome) {
    EXPECT_TRUE(outcome.status.is_ok());
    fired.fetch_add(1);
  });
  client->drain();
  EXPECT_EQ(fired.load(), 1);
}

TEST_P(ApiClientTest, PollOnUnknownTicketReportsNotFound) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  const auto outcome = client->poll(777'777);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(client->wait(777'777).status.code(), StatusCode::kNotFound);
}

TEST_P(ApiClientTest, SaturationModeAnswersWithoutAnEngine) {
  ClientConfig config = small_config();
  config.contact_engine = false;
  Backend backend;  // no engine at all
  backend.fake_source = &World::instance().log();
  auto client = make_client(GetParam(), backend, config);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  const auto results = client.value()->search(a_query());
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_TRUE(results.value().empty());
}

TEST_P(ApiClientTest, PrivacyPropertiesAreInternallyConsistent) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  const auto props = client->privacy_properties();
  EXPECT_FALSE(props.trust_assumption.empty());
  if (props.mechanism == "xsearch" || props.mechanism == "peas") {
    EXPECT_FALSE(props.query_exposed);
    EXPECT_EQ(props.k, small_config().k);
  }
  if (props.mechanism == "direct" || props.mechanism == "tmn") {
    EXPECT_TRUE(props.identity_exposed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, ApiClientTest,
                         ::testing::ValuesIn(kMechanisms),
                         [](const auto& info) { return std::string(info.param); });

// --- registry + config error paths (not mechanism-parameterized) -----------

TEST(ApiRegistryTest, UnknownMechanismIsNotFound) {
  const auto client = make_client("carrier-pigeon", World::instance().backend(),
                                  ClientConfig{});
  ASSERT_FALSE(client.is_ok());
  EXPECT_EQ(client.status().code(), StatusCode::kNotFound);
}

TEST(ApiRegistryTest, ListsAllBuiltinMechanisms) {
  const auto names = MechanismRegistry::instance().mechanism_names();
  for (const char* name : kMechanisms) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(ApiRegistryTest, NullEngineRequiresSaturationMode) {
  Backend backend;
  backend.fake_source = &World::instance().log();
  ClientConfig config;  // contact_engine defaults to true
  const auto client = make_client("direct", backend, config);
  ASSERT_FALSE(client.is_ok());
  EXPECT_EQ(client.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ApiRegistryTest, XSearchRejectsDegenerateOptions) {
  for (const auto mutate :
       std::vector<std::function<void(ClientConfig&)>>{
           [](ClientConfig& c) { c.k = 0; },
           [](ClientConfig& c) { c.history_capacity = 0; },
           [](ClientConfig& c) { c.top_k = 0; }}) {
    ClientConfig config;
    mutate(config);
    const auto client =
        make_client("xsearch", World::instance().backend(), config);
    ASSERT_FALSE(client.is_ok());
    EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument)
        << client.status().to_string();
  }
}

TEST(ApiRegistryTest, PeasRequiresAFakeSource) {
  Backend backend = World::instance().backend();
  backend.fake_source = nullptr;
  const auto client = make_client("peas", backend, ClientConfig{});
  ASSERT_FALSE(client.is_ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

TEST(ApiRegistryTest, DuplicateRegistrationIsRejected) {
  auto& registry = MechanismRegistry::instance();
  const auto status = registry.register_mechanism(
      "direct", [](const Backend&, const ClientConfig&) -> Result<ClientPtr> {
        return not_found("never called");
      });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// --- X-Search batch path ------------------------------------------------------

// The in-process X-Search client runs the same broker as the remote one, so
// a batch travels as one batch frame per wire-bound chunk: one query ecall
// per chunk, not one per query.
TEST(ApiXSearchTest, InProcessBatchTakesOneQueryEcallPerChunk) {
  ClientConfig config;
  config.contact_engine = false;  // no engine ocalls: transitions = ecalls
  auto client = make_client("xsearch", Backend{}, config);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_TRUE(client.value()->connect().is_ok());  // the handshake ecall
  const auto before = client.value()->privacy_properties().enclave_transitions;

  constexpr std::size_t kChunks = 3;
  const std::size_t count = (kChunks - 1) * core::wire::kMaxBatchQueries + 1;
  std::vector<PrivateSearchClient::BatchQuery> queries;
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back({"batched query " + std::to_string(i), 0});
  }
  const auto outcomes = client.value()->search_batch(queries);
  ASSERT_EQ(outcomes.size(), count);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  }
  EXPECT_EQ(client.value()->privacy_properties().enclave_transitions - before,
            kChunks);
}

}  // namespace
}  // namespace xsearch::api
