#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_set>

#include "dataset/synthetic.hpp"
#include "engine/analytics.hpp"
#include "engine/corpus.hpp"
#include "engine/index.hpp"
#include "engine/search_engine.hpp"
#include "text/tokenizer.hpp"

namespace xsearch::engine {
namespace {

// ---- analytics ---------------------------------------------------------------

TEST(Analytics, TrackingRoundTrip) {
  const std::string tracked = make_tracking_url("https://real.example/page", 42);
  EXPECT_TRUE(is_tracking_url(tracked));
  const auto target = extract_target_url(tracked);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, "https://real.example/page");
}

TEST(Analytics, NonTrackingUrlPassesThrough) {
  EXPECT_FALSE(is_tracking_url("https://real.example/page"));
  EXPECT_FALSE(extract_target_url("https://real.example/page").has_value());
}

TEST(Analytics, DifferentTokensDifferentUrls) {
  EXPECT_NE(make_tracking_url("https://a.example", 1),
            make_tracking_url("https://a.example", 2));
}

// ---- inverted index -----------------------------------------------------------

Document make_doc(DocId id, std::string title, std::string body) {
  Document d;
  d.id = id;
  d.title = std::move(title);
  d.body = std::move(body);
  d.url = "https://doc" + std::to_string(id) + ".example/";
  return d;
}

class IndexTest : public ::testing::Test {
 protected:
  InvertedIndex index_{std::vector<Document>{
      make_doc(0, "private web search", "search engines and privacy"),
      make_doc(1, "cooking pasta", "boil water add salt pasta"),
      make_doc(2, "web browsers", "browser market share web"),
      make_doc(3, "pasta recipes", "pasta sauce tomato recipes")}};
};

TEST_F(IndexTest, FindsMatchingDocuments) {
  const auto results = index_.search("pasta", 10);
  ASSERT_EQ(results.size(), 2u);
  std::unordered_set<DocId> docs{results[0].doc, results[1].doc};
  EXPECT_TRUE(docs.contains(1));
  EXPECT_TRUE(docs.contains(3));
}

TEST_F(IndexTest, NoMatchesForUnknownTerms) {
  EXPECT_TRUE(index_.search("zebra quantum", 10).empty());
}

TEST_F(IndexTest, TopKLimitsResults) {
  EXPECT_EQ(index_.search("web", 1).size(), 1u);
}

TEST_F(IndexTest, ScoresDescending) {
  const auto results = index_.search("web search privacy", 10);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST_F(IndexTest, MultiTermMatchRanksHigher) {
  // Doc 0 matches both "web" and "search"; doc 2 only "web".
  const auto results = index_.search("web search", 10);
  ASSERT_GE(results.size(), 2u);
  EXPECT_EQ(results[0].doc, 0u);
}

TEST_F(IndexTest, TitleBoostMatters) {
  // "pasta" in title (doc 1 and 3 both have it in title) — build a case
  // where only the boost separates: doc A body-only vs doc B title.
  const InvertedIndex idx({make_doc(0, "unrelated title", "keyword in the body text here"),
                           make_doc(1, "keyword headline", "completely different content")});
  const auto results = idx.search("keyword", 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc, 1u);
}

TEST_F(IndexTest, EmptyQuery) { EXPECT_TRUE(index_.search("", 10).empty()); }

TEST_F(IndexTest, ZeroTopK) { EXPECT_TRUE(index_.search("web", 0).empty()); }

TEST_F(IndexTest, DeterministicTieBreakById) {
  const InvertedIndex idx(
      {make_doc(0, "same words", "same words"), make_doc(1, "same words", "same words")});
  const auto results = idx.search("same", 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc, 0u);
  EXPECT_EQ(results[1].doc, 1u);
}

TEST_F(IndexTest, ZeroWeightPostingsNeverDuplicateDocs) {
  // title_boost = 0 produces postings with weight 0 and thus score
  // contributions of exactly 0.0; first-touch tracking must not rely on a
  // zero score, or a doc matched by several such terms is emitted twice.
  const InvertedIndex idx(
      {make_doc(0, "alpha beta", ""), make_doc(1, "gamma", "alpha beta body")},
      Bm25Params{.title_boost = 0.0});
  const auto results = idx.search("alpha beta", 10);
  std::unordered_set<DocId> seen;
  for (const auto& r : results) {
    EXPECT_TRUE(seen.insert(r.doc).second) << "doc " << r.doc << " duplicated";
  }
}

TEST_F(IndexTest, ReusedOutputMatchesFreshSearch) {
  // The OR path reuses one output vector (and the thread's scratch) for all
  // sub-queries; results must be identical to independent fresh searches.
  std::vector<ScoredDoc> reused;
  for (const std::string_view q : {"web search", "pasta", "private web", ""}) {
    index_.search_with(q, 5, reused);
    const auto fresh = index_.search(q, 5);
    ASSERT_EQ(reused.size(), fresh.size()) << q;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused[i].doc, fresh[i].doc) << q;
      EXPECT_DOUBLE_EQ(reused[i].score, fresh[i].score) << q;
    }
  }
}

// ---- corpus + engine -----------------------------------------------------------

TEST(IndexDeathTest, SparseDocumentIdsAbortInEveryBuild) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Document> sparse = {{.id = 0, .title = "first", .body = "a"},
                                        {.id = 2, .title = "gap", .body = "b"}};
  EXPECT_DEATH(InvertedIndex{sparse}, "dense ids");
}

class EngineTest : public ::testing::Test {
 protected:
  static dataset::QueryLog make_log() {
    dataset::SyntheticLogConfig config;
    config.num_users = 30;
    config.total_queries = 3000;
    config.vocab_size = 1500;
    config.num_topics = 15;
    config.words_per_topic = 80;
    return dataset::generate_synthetic_log(config);
  }

  EngineTest()
      : log_(make_log()),
        corpus_(log_, CorpusConfig{.seed = 1, .num_documents = 2000}),
        engine_(corpus_) {}

  dataset::QueryLog log_;
  Corpus corpus_;
  SearchEngine engine_;
};

TEST_F(EngineTest, CorpusHasRequestedSize) { EXPECT_EQ(corpus_.size(), 2000u); }

TEST_F(EngineTest, CorpusDeterministic) {
  Corpus again(log_, CorpusConfig{.seed = 1, .num_documents = 2000});
  ASSERT_EQ(again.size(), corpus_.size());
  EXPECT_EQ(again.documents()[17].title, corpus_.documents()[17].title);
  EXPECT_EQ(again.documents()[999].body, corpus_.documents()[999].body);
}

TEST_F(EngineTest, DocumentsNonEmpty) {
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& d = corpus_.documents()[i * 31 % corpus_.size()];
    EXPECT_FALSE(d.title.empty());
    EXPECT_FALSE(d.body.empty());
    EXPECT_FALSE(d.url.empty());
  }
}

TEST_F(EngineTest, QueriesFromLogGetResults) {
  // Documents are seeded from log queries, so most real queries match.
  std::size_t with_results = 0;
  constexpr std::size_t kSamples = 50;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto& q = log_.records()[i * 53 % log_.size()].text;
    if (!engine_.search(q, 20).empty()) ++with_results;
  }
  EXPECT_GT(with_results, kSamples * 3 / 4);
}

TEST_F(EngineTest, ResultsAreDecorated) {
  const auto& q = log_.records()[0].text;
  const auto results = engine_.search(q, 10);
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) {
    EXPECT_TRUE(is_tracking_url(r.url)) << r.url;
    EXPECT_FALSE(r.title.empty());
  }
}

TEST_F(EngineTest, SnippetIsBodyPrefix) {
  const auto& q = log_.records()[0].text;
  const auto results = engine_.search(q, 5);
  ASSERT_FALSE(results.empty());
  const auto& doc = corpus_.documents()[results[0].doc];
  EXPECT_TRUE(doc.body.starts_with(results[0].description.substr(
      0, std::min<std::size_t>(results[0].description.size(), 10))));
}

TEST_F(EngineTest, OrMergeDeduplicates) {
  const auto& q = log_.records()[0].text;
  // OR of the same query twice must not duplicate documents.
  const auto merged = engine_.search_or({q, q}, 10);
  std::unordered_set<DocId> seen;
  for (const auto& r : merged) {
    EXPECT_TRUE(seen.insert(r.doc).second) << "duplicate doc " << r.doc;
  }
}

TEST_F(EngineTest, OrMergeCoversAllSubQueries) {
  const auto& q1 = log_.records()[0].text;
  const auto& q2 = log_.records()[log_.size() / 2].text;
  const auto r1 = engine_.search(q1, 5);
  const auto r2 = engine_.search(q2, 5);
  if (r1.empty() || r2.empty()) GTEST_SKIP() << "need both queries to match";
  const auto merged = engine_.search_or({q1, q2}, 5);
  std::unordered_set<DocId> merged_docs;
  for (const auto& r : merged) merged_docs.insert(r.doc);
  EXPECT_TRUE(merged_docs.contains(r1[0].doc));
  EXPECT_TRUE(merged_docs.contains(r2[0].doc));
}

TEST_F(EngineTest, OrMergeWithHugeTopKStopsAtLongestList) {
  // top_k_each comes off the engine link as a u32; the merge must stop at
  // the longest ranked list instead of walking every requested rank.
  const std::vector<std::string> subs = {log_.records()[0].text,
                                         log_.records()[log_.size() / 2].text};
  const auto start = std::chrono::steady_clock::now();
  const auto huge = engine_.search_or(subs, UINT32_MAX);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(huge, engine_.search_or(subs, engine_.document_count()));
  EXPECT_FALSE(huge.empty());
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST_F(EngineTest, ConcurrentOrSearchesMatchSequential) {
  // Each thread scores through its own scratch; four threads sharing one
  // engine must get exactly the sequential answers.
  std::vector<std::vector<std::string>> queries;
  for (std::size_t i = 0; i < 24; ++i) {
    std::vector<std::string> subs;
    for (std::size_t j = 0; j < 4; ++j) {
      subs.push_back(log_.records()[(i * 97 + j * 211) % log_.size()].text);
    }
    queries.push_back(std::move(subs));
  }
  std::vector<std::vector<SearchResult>> expected;
  for (const auto& subs : queries) expected.push_back(engine_.search_or(subs, 10));

  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          // Start each thread at a different query so they interleave.
          const std::size_t q = (i + t * 7) % queries.size();
          if (engine_.search_or(queries[q], 10) != expected[q]) ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST_F(EngineTest, ObserverSeesQueries) {
  std::vector<std::string> seen;
  engine_.set_observer([&seen](std::string_view q) { seen.emplace_back(q); });
  (void)engine_.search("hello world", 5);
  (void)engine_.search_or({"a", "b"}, 5);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "hello world");
  EXPECT_EQ(seen[1], "a OR b");
}

}  // namespace
}  // namespace xsearch::engine
