// Whole-system integration tests: small-scale replicas of the paper's
// evaluation claims, asserted qualitatively. These are the repository's
// regression net for the figure benches — if one of these fails, a bench
// would show a broken shape.
#include <gtest/gtest.h>

#include <unordered_set>

#include "attack/simattack.hpp"
#include "baselines/peas/peas.hpp"
#include "broker_util.hpp"
#include "common/rng.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/history.hpp"
#include "xsearch/obfuscator.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch {
namespace {

class SystemTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kTopUsers = 30;

  SystemTest() {
    dataset::SyntheticLogConfig config;
    config.seed = 77;
    config.num_users = 120;
    config.total_queries = 15'000;
    config.vocab_size = 4'000;
    config.num_topics = 40;
    log_ = dataset::generate_synthetic_log(config);
    top_ = log_.most_active_users(kTopUsers);
    split_ = dataset::split_per_user(log_.filter_users(top_), 2.0 / 3.0);
    corpus_ = std::make_unique<engine::Corpus>(
        log_, engine::CorpusConfig{.seed = 78, .num_documents = 4'000});
    engine_ = std::make_unique<engine::SearchEngine>(*corpus_);
  }

  // Re-identification rate under X-Search obfuscation at a given k.
  double xsearch_reid_rate(const attack::SimAttack& adversary, std::size_t k,
                           std::size_t n_queries) const {
    core::QueryHistory history(50'000);
    for (const auto& r : split_.train.records()) history.add(r.text);
    core::Obfuscator obfuscator(history, k);
    Rng rng(500 + k);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n_queries; ++i) {
      const auto& rec = split_.test.records()[i * 17 % split_.test.size()];
      const auto obf = obfuscator.obfuscate(rec.text, rng);
      const auto id = adversary.attack(obf.sub_queries);
      if (id && id->user == rec.user && id->query == rec.text) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n_queries);
  }

  dataset::QueryLog log_;
  std::vector<dataset::UserId> top_;
  dataset::TrainTestSplit split_;
  std::unique_ptr<engine::Corpus> corpus_;
  std::unique_ptr<engine::SearchEngine> engine_;
};

TEST_F(SystemTest, Claim1_ObfuscationReducesReidentification) {
  attack::SimAttack adversary(split_.train);
  const double k0 = xsearch_reid_rate(adversary, 0, 120);
  const double k3 = xsearch_reid_rate(adversary, 3, 120);
  // Unlinkability alone leaves substantial exposure; obfuscation slashes it.
  EXPECT_GT(k0, 0.25);
  EXPECT_LT(k3, k0 * 0.6);
}

TEST_F(SystemTest, Claim2_MoreFakesMorePrivacy) {
  attack::SimAttack adversary(split_.train);
  const double k1 = xsearch_reid_rate(adversary, 1, 120);
  const double k7 = xsearch_reid_rate(adversary, 7, 120);
  EXPECT_LT(k7, k1);
}

TEST_F(SystemTest, Claim3_XSearchBeatsPeas) {
  attack::SimAttack adversary(split_.train);
  constexpr std::size_t kK = 3;
  constexpr std::size_t kN = 120;

  const double xs = xsearch_reid_rate(adversary, kK, kN);

  baselines::peas::FakeQueryGenerator peas_gen(split_.train);
  Rng rng(501);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const auto& rec = split_.test.records()[i * 17 % split_.test.size()];
    auto subs = peas_gen.generate_k(rec.text, kK, rng);
    subs.insert(subs.begin() + static_cast<std::ptrdiff_t>(rng.uniform(subs.size() + 1)),
                rec.text);
    const auto id = adversary.attack(subs);
    if (id && id->user == rec.user && id->query == rec.text) ++correct;
  }
  const double peas = static_cast<double>(correct) / static_cast<double>(kN);
  EXPECT_LT(xs, peas);
}

TEST_F(SystemTest, Claim4_FilteringPreservesAccuracy) {
  core::QueryHistory history(50'000);
  for (const auto& r : split_.train.records()) history.add(r.text);
  core::Obfuscator obfuscator(history, 2);
  core::ResultFilter filter;
  Rng rng(502);

  double precision_sum = 0, recall_sum = 0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto& query = split_.test.records()[i * 13 % split_.test.size()].text;
    const auto reference = engine_->search(query, 20);
    if (reference.empty()) continue;
    std::unordered_set<engine::DocId> ref_docs;
    for (const auto& r : reference) ref_docs.insert(r.doc);

    const auto obf = obfuscator.obfuscate(query, rng);
    const auto kept =
        filter.filter(obf.original, obf.fakes, engine_->search_or(obf.sub_queries, 20));
    if (kept.empty()) continue;
    std::size_t inter = 0;
    for (const auto& r : kept) inter += ref_docs.contains(r.doc);
    precision_sum += static_cast<double>(inter) / static_cast<double>(kept.size());
    recall_sum += static_cast<double>(inter) / static_cast<double>(reference.size());
    ++counted;
  }
  ASSERT_GT(counted, 30u);
  EXPECT_GT(precision_sum / static_cast<double>(counted), 0.7);
  EXPECT_GT(recall_sum / static_cast<double>(counted), 0.8);
}

TEST_F(SystemTest, Claim5_EndToEndThroughProxyKeepsQueryPrivate) {
  sgx::AttestationAuthority authority(to_bytes("it-root"));
  core::XSearchProxy::Options options;
  options.k = 3;
  options.history_capacity = 50'000;
  core::XSearchProxy proxy(engine_.get(), authority, options);

  std::vector<std::string> engine_saw;
  engine_->set_observer([&engine_saw](std::string_view q) {
    engine_saw.emplace_back(q);
  });

  auto broker =
      testutil::in_process_broker(proxy, authority, proxy.measurement(), 503);
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(broker.search(split_.train.records()[i * 7].text).is_ok());
  }

  const std::string secret = split_.test.records()[42].text;
  engine_saw.clear();
  const auto results = broker.search(secret);
  ASSERT_TRUE(results.is_ok());

  // The engine never saw the bare secret; only an OR aggregation.
  ASSERT_EQ(engine_saw.size(), 1u);
  EXPECT_NE(engine_saw[0], secret);
  EXPECT_NE(engine_saw[0].find(" OR "), std::string::npos);

  // And the adversary watching the engine cannot reliably decode it:
  attack::SimAttack adversary(split_.train);
  // (a single query gives no certainty — we just assert the machinery runs
  // and yields a well-formed verdict or none at all)
  const auto verdict = adversary.attack({engine_saw[0]});
  (void)verdict;
}

TEST_F(SystemTest, Claim6_EpcBudgetHolds) {
  sgx::AttestationAuthority authority(to_bytes("it-root"));
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 1'000'000;
  core::XSearchProxy proxy(engine_.get(), authority, options);
  auto broker =
      testutil::in_process_broker(proxy, authority, proxy.measurement(), 504);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(broker.search(split_.train.records()[i % split_.train.size()].text)
                    .is_ok());
  }
  EXPECT_FALSE(proxy.enclave().epc().over_limit());
  EXPECT_EQ(proxy.enclave().epc().page_faults(), 0u);
}

}  // namespace
}  // namespace xsearch
