// The unified-API contract, asserted identically across all five
// mechanisms: session lifecycle, sync search, siblings searching in
// parallel, introspection, and error paths. Value-parameterized on the
// registered mechanism name, so a sixth mechanism joins the suite by adding
// its name.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/registry.hpp"
#include "api/remote.hpp"
#include "api/xsearch_options.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/proxy_server.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"
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
  EXPECT_EQ(client->metrics().value("client.searches"), 1u);
  EXPECT_EQ(client->metrics().value("client.failures"), 0u);
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

TEST_P(ApiClientTest, SiblingsSearchConcurrently) {
  const auto client = make();
  ASSERT_NE(client, nullptr);
  // Siblings connect serially (Tor extends circuits through shared relays),
  // then search from their own threads.
  std::vector<ClientPtr> siblings;
  for (std::uint64_t seed : {7u, 8u}) {
    siblings.push_back(client->spawn_sibling(seed));
    ASSERT_NE(siblings.back(), nullptr);
    ASSERT_TRUE(siblings.back()->connect().is_ok());
  }
  std::vector<Status> statuses(siblings.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    threads.emplace_back([&, i] {
      statuses[i] = siblings[i]->search(a_query(200 + i * 3)).status();
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    EXPECT_TRUE(statuses[i].is_ok()) << statuses[i].to_string();
    EXPECT_EQ(siblings[i]->metrics().value("client.searches"), 1u);
    EXPECT_EQ(siblings[i]->privacy_properties().mechanism, GetParam());
  }
  // Siblings keep their own metrics.
  EXPECT_EQ(client->metrics().value("client.searches"), 0u);
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

// ClientConfig leaves these knobs to the underlying options' defaults; the
// translations must not replace them with values of their own.
TEST(ApiRegistryTest, TranslationsKeepUnderlyingDefaults) {
  const ClientConfig config;
  const core::XSearchProxy::Options proxy = xsearch_proxy_options(config);
  const core::XSearchProxy::Options proxy_defaults;
  EXPECT_EQ(proxy.session_shards, proxy_defaults.session_shards);
  EXPECT_EQ(proxy.session_idle_ttl, proxy_defaults.session_idle_ttl);
  EXPECT_EQ(supervisor_options(config).probe_budget,
            net::FleetSupervisor::Options{}.probe_budget);
  EXPECT_FALSE(remote_broker_options(config).breaker_enabled);
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
  const auto transitions = [&] {
    const auto m = client.value()->metrics();
    return m.value("enclave.ecalls") + m.value("enclave.ocalls");
  };
  const auto before = transitions();

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
  EXPECT_EQ(transitions() - before, kChunks);
}

// Siblings are further users of ONE deployment: two X-Search siblings
// searching at once hold two sessions on the same proxy, and the proxy's
// enclave runs both of their searches.
TEST(ApiXSearchTest, ConcurrentSiblingsShareOneProxy) {
  sgx::AttestationAuthority authority(to_bytes("api-sibling-root"));
  ClientConfig config;
  config.contact_engine = false;  // no engine ocalls: transitions = ecalls
  auto proxy = core::XSearchProxy::create(nullptr, authority,
                                          xsearch_proxy_options(config));
  ASSERT_TRUE(proxy.is_ok()) << proxy.status().to_string();
  auto server = net::ProxyServer::start(*proxy.value());
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  const auto client =
      make_remote_client("127.0.0.1", server.value()->port(), authority,
                         proxy.value()->measurement(), config);
  const auto before = proxy.value()->metrics();

  std::vector<ClientPtr> siblings;
  siblings.push_back(client->spawn_sibling(config.seed + 1000));
  siblings.push_back(client->spawn_sibling(config.seed + 1001));
  std::vector<Status> statuses(siblings.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < siblings.size(); ++i) {
    threads.emplace_back([&, i] {
      statuses[i] =
          siblings[i]->search("sibling query " + std::to_string(i)).status();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.is_ok()) << status.to_string();
  }

  const auto after = proxy.value()->metrics();
  EXPECT_EQ(after.value("sessions.active"), 2u);
  // One handshake ecall and one query ecall per sibling.
  EXPECT_EQ(after.value("enclave.ecalls") - before.value("enclave.ecalls"), 4u);
  siblings.clear();
  server.value()->stop();
}

}  // namespace
}  // namespace xsearch::api
