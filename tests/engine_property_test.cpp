// Property tests of the retrieval substrate: BM25 ranking invariants and
// OR-merge semantics over parameter grids.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "engine/index.hpp"
#include "engine/search_engine.hpp"

namespace xsearch::engine {
namespace {

Document doc(DocId id, std::string title, std::string body) {
  Document d;
  d.id = id;
  d.title = std::move(title);
  d.body = std::move(body);
  d.url = "https://d" + std::to_string(id) + ".example/";
  return d;
}

// ---- BM25 invariants over k1/b parameter grid -----------------------------------

class Bm25Grid : public ::testing::TestWithParam<std::tuple<double, double>> {
 protected:
  Bm25Params params() const {
    return Bm25Params{.k1 = std::get<0>(GetParam()), .b = std::get<1>(GetParam())};
  }
};

TEST_P(Bm25Grid, ExactMatchOutranksPartialMatch) {
  const InvertedIndex index({doc(0, "alpha beta gamma", "alpha beta gamma content"),
                             doc(1, "alpha delta", "alpha unrelated content")},
                            params());
  const auto results = index.search("alpha beta gamma", 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].doc, 0u);
  EXPECT_GT(results[0].score, results[1].score);
}

TEST_P(Bm25Grid, RareTermWeighsMoreThanCommonTerm) {
  // "common" appears in every document; "rare" in one.
  std::vector<Document> docs;
  for (DocId i = 0; i < 20; ++i) {
    docs.push_back(doc(i, "common topic " + std::to_string(i),
                       i == 7 ? "rare common words" : "common words"));
  }
  const InvertedIndex index(docs, params());
  const auto results = index.search("rare", 20);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc, 7u);
  // The rare-term hit scores above any single common-term hit.
  const auto common_results = index.search("common", 20);
  ASSERT_FALSE(common_results.empty());
  EXPECT_GT(results[0].score, common_results[0].score);
}

TEST_P(Bm25Grid, ScoresArePositiveAndSorted) {
  std::vector<Document> docs;
  Rng rng(3);
  const std::vector<std::string> words = {"web", "search", "privacy", "pasta",
                                          "code", "music", "news",   "game"};
  for (DocId i = 0; i < 100; ++i) {
    std::string body;
    for (int w = 0; w < 12; ++w) {
      body += words[rng.uniform(words.size())];
      body += ' ';
    }
    docs.push_back(doc(i, words[rng.uniform(words.size())], body));
  }
  const InvertedIndex index(docs, params());
  const auto results = index.search("web privacy", 50);
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GT(results[i].score, 0.0);
    if (i > 0) EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST_P(Bm25Grid, AddingUnrelatedDocumentsKeepsTopResult) {
  std::vector<Document> docs = {doc(0, "target phrase here", "the target phrase body"),
                                doc(1, "noise one", "noise body one")};
  const InvertedIndex small(docs, params());
  const auto before = small.search("target phrase", 1);
  ASSERT_EQ(before.size(), 1u);

  for (DocId i = 2; i < 50; ++i) {
    docs.push_back(doc(i, "irrelevant stuff", "completely different words"));
  }
  const InvertedIndex large(docs, params());
  const auto after = large.search("target phrase", 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].doc, before[0].doc);
}

INSTANTIATE_TEST_SUITE_P(
    Params, Bm25Grid,
    ::testing::Combine(::testing::Values(0.5, 1.2, 2.0),
                       ::testing::Values(0.0, 0.5, 0.75, 1.0)));

// ---- OR-merge semantics over sub-query counts --------------------------------------

class OrMergeGrid : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OrMergeGrid, MergeIsSupersetOfEachSubQueryHead) {
  const std::size_t n_subs = GetParam();
  // One dedicated document per topic.
  std::vector<std::string> sub_queries;
  std::vector<Document> docs;
  for (std::size_t t = 0; t < n_subs; ++t) {
    const std::string topic = "topic" + std::to_string(t);
    sub_queries.push_back(topic);
    docs.push_back(doc(static_cast<DocId>(t), topic + " page", topic + " body " + topic));
  }
  const InvertedIndex index(docs);
  // Each sub-query's top hit is its own topic document; the OR-merge must
  // contain all of them (rank-interleaved).
  std::unordered_set<DocId> expected;
  for (std::size_t t = 0; t < n_subs; ++t) {
    const auto r = index.search(sub_queries[t], 1);
    ASSERT_EQ(r.size(), 1u);
    expected.insert(r[0].doc);
  }
  EXPECT_EQ(expected.size(), n_subs);
}

INSTANTIATE_TEST_SUITE_P(SubQueryCounts, OrMergeGrid,
                         ::testing::Values<std::size_t>(1, 2, 4, 8));

}  // namespace
}  // namespace xsearch::engine
