// Parallel obfuscation: per-session RNG streams and lock-free history.
//
// The proxy's query hot path holds no global lock: each session draws
// obfuscation randomness from its own stream (forked from a key the enclave
// draws from its own entropy, by the table's insert ordinal, held in the
// SessionTable behind the session lock) and history sampling reads the
// window without a lock. This suite pins both halves of that design:
//
//  * the streams' output — every OR query carries its real query and k
//    decoys from the history, and two proxies of one configuration diverge,
//    since no option seeds the streams;
//  * data-race freedom — many threads × many sessions hammer one proxy
//    while the history absorbs concurrent add/sample traffic. Run under
//    ThreadSanitizer in CI (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "broker_util.hpp"
#include "common/rng.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "xsearch/history.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::core {
namespace {

class ParallelObfuscationTest : public ::testing::Test {
 protected:
  static dataset::QueryLog make_log() {
    dataset::SyntheticLogConfig config;
    config.num_users = 20;
    config.total_queries = 1200;
    config.vocab_size = 900;
    config.num_topics = 10;
    return dataset::generate_synthetic_log(config);
  }

  ParallelObfuscationTest()
      : log_(make_log()),
        corpus_(log_, engine::CorpusConfig{.seed = 5, .num_documents = 600}),
        engine_(corpus_),
        authority_(to_bytes("parallel-root")) {}

  static XSearchProxy::Options options() {
    XSearchProxy::Options opt;
    opt.k = 3;
    opt.history_capacity = 10'000;
    return opt;
  }

  std::vector<std::string> warm_queries() const {
    std::vector<std::string> warm;
    for (std::size_t i = 0; i < 40; ++i) warm.push_back(log_.records()[i].text);
    return warm;
  }
  std::string alice_query(std::size_t i) const { return log_.records()[100 + i].text; }
  std::string bob_query(std::size_t i) const { return log_.records()[200 + i].text; }

  /// Runs the same script against a fresh proxy: warm the history, open two
  /// sessions in a fixed order, alternate queries between them, and record
  /// every OR query the engine observes.
  std::vector<std::string> observed_or_queries() {
    XSearchProxy proxy(&engine_, authority_, options());
    proxy.warm_history(warm_queries());

    std::vector<std::string> observed;
    engine_.set_observer(
        [&observed](std::string_view q) { observed.emplace_back(q); });

    auto alice =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
    auto bob =
        testutil::in_process_broker(proxy, authority_, proxy.measurement(), 2);
    EXPECT_TRUE(alice.connect().is_ok());
    EXPECT_TRUE(bob.connect().is_ok());
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(alice.search(alice_query(i)).is_ok());
      EXPECT_TRUE(bob.search(bob_query(i)).is_ok());
    }
    engine_.set_observer(nullptr);
    return observed;
  }

  dataset::QueryLog log_;
  engine::Corpus corpus_;
  engine::SearchEngine engine_;
  sgx::AttestationAuthority authority_;
};

// Algorithm 1 as the engine sees it: each OR query holds its real query
// once and k decoys, every decoy a query the window held at that moment
// (the warm set or an earlier real query), never the real query itself.
TEST_F(ParallelObfuscationTest, EveryOrQueryCarriesItsQueryAndKHistoryDecoys) {
  const auto observed = observed_or_queries();
  ASSERT_EQ(observed.size(), 20u);
  const std::vector<std::string> warm = warm_queries();
  std::set<std::string> window(warm.begin(), warm.end());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const std::string real = i % 2 == 0 ? alice_query(i / 2) : bob_query(i / 2);
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t at; (at = observed[i].find(" OR ", start)) != std::string::npos;
         start = at + 4) {
      parts.push_back(observed[i].substr(start, at - start));
    }
    parts.push_back(observed[i].substr(start));
    ASSERT_EQ(parts.size(), options().k + 1) << observed[i];
    EXPECT_EQ(std::count(parts.begin(), parts.end(), real), 1) << observed[i];
    for (const auto& part : parts) {
      if (part != real) EXPECT_TRUE(window.contains(part)) << part;
    }
    window.insert(real);
  }
}

// No option seeds the streams, so two proxies of one configuration running
// one script draw different decoys: 20 draws of 3 fakes from a 40+-entry
// window would repeat in full only if the streams repeated.
TEST_F(ParallelObfuscationTest, TwoProxiesOfOneConfigurationDiverge) {
  const auto first = observed_or_queries();
  const auto other = observed_or_queries();
  ASSERT_EQ(first.size(), other.size());
  EXPECT_NE(first, other);
}

TEST_F(ParallelObfuscationTest, SessionsHaveIndependentStreams) {
  // Both sessions issue the *same* query against the same warm history; if
  // they shared one stream position the two OR queries could still differ,
  // but with per-session forks they must also differ from a replay where
  // the sessions swap creation order — the stream belongs to the session,
  // not to the call sequence. Cheap proxy: two sessions, same single query
  // each, OR queries almost surely differ (k=3 fakes from 40 entries).
  XSearchProxy proxy(&engine_, authority_, options());
  proxy.warm_history(warm_queries());

  std::vector<std::string> observed;
  engine_.set_observer(
      [&observed](std::string_view q) { observed.emplace_back(q); });
  auto alice =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 1);
  auto bob =
      testutil::in_process_broker(proxy, authority_, proxy.measurement(), 2);
  const std::string query = log_.records()[300].text;
  ASSERT_TRUE(alice.search(query).is_ok());
  ASSERT_TRUE(bob.search(query).is_ok());
  engine_.set_observer(nullptr);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_NE(observed[0], observed[1]);
}

TEST_F(ParallelObfuscationTest, ManyThreadsManySessionsRaceFree) {
  // Saturation mode (no engine) so the test is pure obfuscation + channel
  // traffic: 6 threads × 2 sessions each × 40 queries against one proxy.
  // TSan verifies the lock-free hot path (per-session streams, shared-lock
  // history sampling, shared-lock ecall dispatch) is race-free.
  XSearchProxy proxy(nullptr, authority_, options());

  constexpr int kThreads = 6;
  constexpr int kQueries = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto a = testutil::in_process_broker(proxy, authority_,
                                           proxy.measurement(), 10 + 2 * t);
      auto b = testutil::in_process_broker(proxy, authority_,
                                           proxy.measurement(), 11 + 2 * t);
      for (int i = 0; i < kQueries; ++i) {
        if (!a.search("thread " + std::to_string(t) + " q" + std::to_string(i))
                 .is_ok()) {
          ++failures;
        }
        if (!b.search("thread " + std::to_string(t) + " r" + std::to_string(i))
                 .is_ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(proxy.history_size(),
            static_cast<std::size_t>(kThreads) * kQueries * 2);
}

TEST(QueryHistoryConcurrency, ConcurrentAddAndSampleAreRaceFree) {
  // Writers slide the window while readers sample through the shared lock;
  // under TSan this pins the reader/writer restructuring of QueryHistory.
  // Both sides run a fixed amount of work (an open-ended reader loop would
  // starve the writers on a reader-preferring rwlock and stall the test).
  QueryHistory history(512);
  for (int i = 0; i < 128; ++i) history.add("seed " + std::to_string(i));

  std::atomic<std::uint64_t> sampled{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 4000; ++i) {
        history.add("writer " + std::to_string(w) + " " + std::to_string(i));
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(77 + r);
      for (int i = 0; i < 3000; ++i) {
        const auto fakes = history.sample(7, rng);
        sampled.fetch_add(fakes.size(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(sampled.load(), 0u);
  EXPECT_EQ(history.size(), 512u);  // window slid to capacity
  const auto snap = history.snapshot();
  EXPECT_EQ(snap.size(), 512u);
}

}  // namespace
}  // namespace xsearch::core
