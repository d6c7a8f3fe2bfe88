// Randomized equivalence proof for the impact-precomputed engine.
//
// The index computes each posting's BM25 contribution once at construction
// and keeps the best top_k in a bounded heap; the engine pre-renders every
// result and dedupes the OR merge with a scan. This test pins all of it
// against a straight transcription of the straightforward engine: postings
// in a hash map filled one document at a time, the BM25 formula evaluated
// per posting at query time into a dense accumulator, `partial_sort` over
// every touched doc, an `unordered_set` rank-interleaved OR merge, and
// per-hit snippet and tracking-URL construction. Rankings must agree in doc
// order and in the exact bits of every score.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "dataset/synthetic.hpp"
#include "engine/analytics.hpp"
#include "engine/corpus.hpp"
#include "engine/index.hpp"
#include "engine/search_engine.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "xsearch/wire.hpp"
#include "../bench/bench_common.hpp"

namespace xsearch::engine {
namespace {

// ---- reference implementation (per-posting scoring) -----------------------

class RefIndex {
 public:
  explicit RefIndex(Bm25Params params) : params_(params) {}

  void add_document(const Document& doc) {
    std::unordered_map<text::TermId, double> weights;
    double length = 0.0;
    for (const auto& token : text::tokenize(doc.title)) {
      weights[vocab_.intern(token)] += params_.title_boost;
      length += params_.title_boost;
    }
    for (const auto& token : text::tokenize(doc.body)) {
      weights[vocab_.intern(token)] += 1.0;
      length += 1.0;
    }
    for (const auto& [term, weight] : weights) {
      postings_[term].push_back(Posting{doc.id, static_cast<float>(weight)});
    }
    doc_lengths_.push_back(length);
    total_length_ += length;
  }

  std::vector<ScoredDoc> search(std::string_view query, std::size_t top_k) const {
    std::vector<ScoredDoc> out;
    const std::size_t n_docs = doc_lengths_.size();
    if (n_docs == 0 || top_k == 0) return out;
    const double avg_len = total_length_ / static_cast<double>(n_docs);

    std::vector<text::TermId> terms;
    for (const auto& token : text::tokenize(query)) {
      if (const auto id = vocab_.lookup(token)) {
        if (std::find(terms.begin(), terms.end(), *id) == terms.end()) terms.push_back(*id);
      }
    }

    std::vector<double> scores(n_docs, 0.0);
    std::vector<bool> seen(n_docs, false);
    std::vector<DocId> touched;
    for (const text::TermId term : terms) {
      const auto it = postings_.find(term);
      if (it == postings_.end()) continue;
      const auto& plist = it->second;
      const double df = static_cast<double>(plist.size());
      const double idf = std::log(
          1.0 + (static_cast<double>(n_docs) - df + 0.5) / (df + 0.5));
      for (const Posting& p : plist) {
        const double tf = p.weight;
        const double norm =
            params_.k1 * (1.0 - params_.b + params_.b * doc_lengths_[p.doc] / avg_len);
        if (!seen[p.doc]) {
          seen[p.doc] = true;
          touched.push_back(p.doc);
        }
        scores[p.doc] += idf * (tf * (params_.k1 + 1.0)) / (tf + norm);
      }
    }

    for (const DocId doc : touched) out.push_back({doc, scores[doc]});
    const std::size_t keep = std::min(top_k, out.size());
    std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(keep),
                      out.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.doc < b.doc;
                      });
    out.resize(keep);
    return out;
  }

 private:
  struct Posting {
    DocId doc;
    float weight;
  };

  Bm25Params params_;
  text::Vocabulary vocab_;
  std::unordered_map<text::TermId, std::vector<Posting>> postings_;
  std::vector<double> doc_lengths_;
  double total_length_ = 0.0;
};

SearchResult ref_decorate(const Document& doc, double score, std::size_t snippet_words) {
  SearchResult result;
  result.doc = doc.id;
  result.title = doc.title;
  result.score = score;
  std::size_t words = 0;
  std::size_t end = 0;
  while (end < doc.body.size() && words < snippet_words) {
    const auto space = doc.body.find(' ', end);
    if (space == std::string::npos) {
      end = doc.body.size();
      break;
    }
    end = space + 1;
    ++words;
  }
  result.description = doc.body.substr(0, end);
  if (!result.description.empty() && result.description.back() == ' ') {
    result.description.pop_back();
  }
  std::uint64_t token_state = 0x414e41ull ^ (std::uint64_t{doc.id} << 17);
  result.url = make_tracking_url(doc.url, splitmix64(token_state));
  return result;
}

std::vector<SearchResult> ref_search_or(const RefIndex& index,
                                        const std::vector<Document>& docs,
                                        const std::vector<std::string>& sub_queries,
                                        std::size_t top_k_each, std::size_t snippet_words) {
  std::vector<std::vector<ScoredDoc>> per_query;
  for (const auto& q : sub_queries) per_query.push_back(index.search(q, top_k_each));
  std::vector<ScoredDoc> merged;
  std::unordered_set<DocId> seen;
  for (std::size_t rank = 0; rank < top_k_each; ++rank) {
    for (const auto& ranked : per_query) {
      if (rank >= ranked.size()) continue;
      if (seen.insert(ranked[rank].doc).second) merged.push_back(ranked[rank]);
    }
  }
  std::vector<SearchResult> out;
  for (const ScoredDoc& sd : merged) {
    out.push_back(ref_decorate(docs[sd.doc], sd.score, snippet_words));
  }
  return out;
}

// ---- comparison ------------------------------------------------------------

std::uint64_t bits(double score) { return std::bit_cast<std::uint64_t>(score); }

void expect_same_ranking(const std::vector<ScoredDoc>& actual,
                         const std::vector<ScoredDoc>& expected, std::string_view query) {
  ASSERT_EQ(actual.size(), expected.size()) << "query '" << query << "'";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].doc, expected[i].doc) << "query '" << query << "' rank " << i;
    ASSERT_EQ(bits(actual[i].score), bits(expected[i].score))
        << "query '" << query << "' rank " << i;
  }
}

void expect_same_results(const std::vector<SearchResult>& actual,
                         const std::vector<SearchResult>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "rank " << i;
    ASSERT_EQ(bits(actual[i].score), bits(expected[i].score)) << "rank " << i;
  }
}

// ---- random corpora --------------------------------------------------------

// A small overlapping vocabulary, so score ties and multi-term matches are
// common.
std::string random_words(Rng& rng, std::size_t min_words, std::size_t max_words) {
  std::string out;
  const std::size_t n = min_words + rng.uniform(max_words - min_words + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!out.empty()) out += ' ';
    out += "w" + std::to_string(rng.uniform(40));
  }
  return out;
}

std::vector<Document> random_corpus(Rng& rng, std::size_t n_docs) {
  std::vector<Document> docs;
  for (std::size_t i = 0; i < n_docs; ++i) {
    Document doc;
    doc.id = static_cast<DocId>(i);
    // Titles may be empty; bodies never are, so every doc has a positive
    // length even at title_boost = 0.
    doc.title = random_words(rng, 0, 4);
    doc.body = random_words(rng, 1, 14);
    // Repeat a title word in the body now and then (both fields weighted).
    if (rng.bernoulli(0.3) && !doc.title.empty()) doc.body += " " + doc.title;
    doc.url = "https://d" + std::to_string(i) + ".example/";
    docs.push_back(std::move(doc));
  }
  return docs;
}

// Queries: known words, repeated words, unknown words, and empty.
std::string random_query(Rng& rng) {
  switch (rng.uniform(6)) {
    case 0:
      return "";
    case 1:
      return "unknownword zzz";
    case 2: {
      const std::string word = "w" + std::to_string(rng.uniform(40));
      return word + " " + word + " W" + word.substr(1);  // repeated, case-folded
    }
    case 3:
      return random_words(rng, 1, 3) + " nosuchterm";
    default:
      return random_words(rng, 1, 5);
  }
}

using ParamTuple = std::tuple<double, double, double>;  // k1, b, title_boost

class EngineEquivalence : public ::testing::TestWithParam<ParamTuple> {
 protected:
  Bm25Params params() const {
    return Bm25Params{.k1 = std::get<0>(GetParam()),
                      .b = std::get<1>(GetParam()),
                      .title_boost = std::get<2>(GetParam())};
  }
};

TEST_P(EngineEquivalence, IndexSearchMatchesReference) {
  Rng rng(0xb325 + static_cast<std::uint64_t>(std::get<0>(GetParam()) * 100 +
                                              std::get<1>(GetParam()) * 10 +
                                              std::get<2>(GetParam())));
  std::vector<ScoredDoc> reused;  // one output vector across every index
  for (int round = 0; round < 6; ++round) {
    // Corpora of different sizes, so the thread's scratch serves indexes
    // larger and smaller than the one before.
    const std::size_t n_docs = 1 + rng.uniform(round % 2 == 0 ? 300 : 12);
    const auto docs = random_corpus(rng, n_docs);
    const InvertedIndex index(docs, params());
    RefIndex ref(params());
    for (const auto& doc : docs) ref.add_document(doc);
    ASSERT_EQ(index.document_count(), n_docs);

    for (int q = 0; q < 40; ++q) {
      const std::string query = random_query(rng);
      for (const std::size_t top_k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                      n_docs + 3}) {
        const auto expected = ref.search(query, top_k);
        expect_same_ranking(index.search(query, top_k), expected, query);
        index.search_with(query, top_k, reused);
        expect_same_ranking(reused, expected, query);
      }
    }
  }
}

TEST_P(EngineEquivalence, EngineSearchAndOrMatchReference) {
  dataset::SyntheticLogConfig log_config;
  log_config.seed = 0x0e9 + static_cast<std::uint64_t>(std::get<1>(GetParam()) * 4);
  log_config.num_users = 20;
  log_config.total_queries = 600;
  log_config.vocab_size = 300;
  log_config.num_topics = 6;
  log_config.words_per_topic = 40;
  const auto log = dataset::generate_synthetic_log(log_config);
  const Corpus corpus(log, CorpusConfig{.seed = log_config.seed, .num_documents = 250});
  constexpr std::size_t kSnippetWords = 7;
  const SearchEngine engine(corpus, kSnippetWords, params());
  RefIndex ref(params());
  for (const auto& doc : corpus.documents()) ref.add_document(doc);

  Rng rng(log_config.seed);
  const auto& records = log.records();
  for (int round = 0; round < 30; ++round) {
    std::vector<std::string> subs;
    const std::size_t n_subs = 1 + rng.uniform(8);
    for (std::size_t i = 0; i < n_subs; ++i) {
      subs.push_back(rng.bernoulli(0.15) ? "" : records[rng.uniform(records.size())].text);
    }
    if (rng.bernoulli(0.2)) subs.push_back(subs.front());  // a duplicated sub-query
    for (const std::size_t top_k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                    corpus.size() + 1}) {
      expect_same_results(engine.search_or(subs, top_k),
                          ref_search_or(ref, corpus.documents(), subs, top_k, kSnippetWords));
    }
    const std::string& query = subs.back();
    std::vector<SearchResult> expected;
    for (const ScoredDoc& sd : ref.search(query, 20)) {
      expected.push_back(ref_decorate(corpus.documents()[sd.doc], sd.score, kSnippetWords));
    }
    expect_same_results(engine.search(query, 20), expected);
  }
}

// The pre-encoded renderer puts on the wire exactly what serializing the
// owning answer would, so the client, PEAS and Tor wire is unchanged. Swept
// over the figure benches' testbed: every test-split query OR'd with the
// seven queries after it, as the proxy's k = 7 sends them.
TEST(EngineEncoding, EncodedAnswerIsSerializedSearchOr) {
  const auto bed = bench::make_testbed(
      {.num_users = 50, .total_queries = 4'000, .num_documents = 2'000});
  std::size_t observed = 0;
  bed->engine->set_observer([&observed](std::string_view) { ++observed; });
  const auto& test = bed->split.test.records();
  ASSERT_FALSE(test.empty());
  for (std::size_t i = 0; i < test.size(); ++i) {
    std::vector<std::string> subs;
    for (std::size_t j = 0; j < 8; ++j) subs.push_back(test[(i + j) % test.size()].text);
    for (const std::size_t top_k : {std::size_t{0}, std::size_t{10}}) {
      const Bytes encoded = bed->engine->search_or_encoded(subs, top_k);
      ASSERT_EQ(encoded, core::wire::serialize_results(bed->engine->search_or(subs, top_k)))
          << "query " << i << " top_k " << top_k;
    }
  }
  EXPECT_EQ(observed, 4 * test.size());  // once per OR query, either renderer
}

INSTANTIATE_TEST_SUITE_P(Bm25Grid, EngineEquivalence,
                         ::testing::Combine(::testing::Values(0.5, 1.2, 2.0),
                                            ::testing::Values(0.0, 0.5, 0.75, 1.0),
                                            ::testing::Values(2.0, 0.0)));

}  // namespace
}  // namespace xsearch::engine
