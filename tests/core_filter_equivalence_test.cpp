// Randomized equivalence proof for the optimized ResultFilter.
//
// The optimized filter scans each result field once against a per-call
// table of the sub-queries' tokens and scores with per-sub-query token
// bitsets (common words), or shares one vocabulary across the batch
// (cosine). This test pins it against a straight transcription of
// Algorithm 2 as the paper states it — score every (sub-query, result)
// pair independently, keep a result iff the original's score equals the
// maximum — across randomized workloads, asserting the *exact* kept list
// (contents and order, ties included) for both scoring variants.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "engine/analytics.hpp"
#include "text/sparse_vector.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "xsearch/filter.hpp"

namespace xsearch::core {
namespace {

// ---- reference implementation (pre-optimization semantics) ---------------

std::size_t ref_common_words(const std::unordered_set<std::string>& a_words,
                             std::string_view b) {
  std::size_t count = 0;
  std::unordered_set<std::string> seen;
  for (auto& token : text::tokenize(b)) {
    if (a_words.contains(token) && seen.insert(token).second) ++count;
  }
  return count;
}

double ref_score(FilterScoring scoring, std::string_view query,
                 const engine::SearchResult& result) {
  if (scoring == FilterScoring::kCommonWords) {
    const auto tokens = text::tokenize(query);
    const std::unordered_set<std::string> words(tokens.begin(), tokens.end());
    return static_cast<double>(ref_common_words(words, result.title) +
                               ref_common_words(words, result.description));
  }
  // Cosine ablation, per-pair fresh vocabulary (id assignment cannot affect
  // cosine, so this is the strictest possible baseline for the shared-
  // vocabulary batch implementation).
  text::Vocabulary vocab;
  const auto q_vec = text::tf_vector(vocab, query);
  const auto r_vec =
      text::tf_vector(vocab, result.title + " " + result.description);
  return q_vec.cosine(r_vec);
}

std::vector<engine::SearchResult> ref_filter(
    FilterScoring scoring, std::string_view original,
    const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) {
  std::vector<engine::SearchResult> kept;
  kept.reserve(results.size());
  for (auto& r : results) {
    const double original_score = ref_score(scoring, original, r);
    bool is_max = true;
    for (const auto& fake : fakes) {
      if (ref_score(scoring, fake, r) > original_score) {
        is_max = false;
        break;
      }
    }
    if (is_max) kept.push_back(std::move(r));
  }
  ResultFilter::strip_tracking(kept);
  return kept;
}

// ---- randomized workloads -------------------------------------------------

// Deliberately overlapping small vocabulary (so score ties are common),
// mixed case (tokenizer folding), stopwords, digits, punctuation-glued
// tokens, long tokens, and non-ASCII UTF-8 bytes, which separate tokens like
// punctuation.
const std::vector<std::string>& word_pool() {
  static const std::vector<std::string> kPool = {
      "private", "Web",    "search", "ENGINE", "the",   "of",     "and",
      "enclave", "proxy",  "query",  "ق",      "42",    "x86",    "pasta",
      "recipe",  "Pasta",  "sauce",  "privacy", "web",  "tools",  "is",
      "scores",  "match,", "row;",   "",        "a",    "कखग",    "tennis",
      "SeArCh",  "X86",    "2024",   "web—search", "café", "naïve", "Ünïcode",
      "privacy/proxy", "a.b", "over-the-top", "(42)", "pasta!!!",
      // Tokens past 16 bytes: equal length and first 16 bytes, different
      // tails.
      "internationalization", "INTERNATIONALIZATION", "internationalizatiox",
      "privacypreservingwebsearch", "PrivacyPreservingWebSearcx"};
  return kPool;
}

// A vocabulary wide enough that k+1 sub-queries hold more than 64 distinct
// tokens, so a token-id bitset spans several words. Case varies per use.
const std::vector<std::string>& wide_pool() {
  static const std::vector<std::string> kPool = [] {
    std::vector<std::string> pool;
    for (int i = 0; i < 300; ++i) {
      pool.push_back("tok" + std::to_string(i));
      pool.push_back("TOK" + std::to_string(i));
    }
    return pool;
  }();
  return kPool;
}

std::string random_text(Rng& rng, std::size_t max_words,
                        const std::vector<std::string>& pool = word_pool()) {
  std::string out;
  const std::size_t n = rng.uniform(max_words + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!out.empty()) out += ' ';
    out += pool[rng.uniform(pool.size())];
  }
  return out;
}

// A field with one token of several KiB, glued from pool words.
std::string oversize_token(Rng& rng, const std::vector<std::string>& pool) {
  std::string out;
  while (out.size() < 4096) {
    const std::string& word = pool[rng.uniform(pool.size())];
    for (const char c : word) {
      if (text::is_token_char(static_cast<unsigned char>(c))) out += c;
    }
    out += 'z';
  }
  return out;
}

std::vector<engine::SearchResult> random_results(
    Rng& rng, std::size_t max_n, const std::vector<std::string>& pool = word_pool()) {
  std::vector<engine::SearchResult> results;
  const std::size_t n = rng.uniform(max_n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    engine::SearchResult r;
    r.doc = static_cast<engine::DocId>(i);
    r.title = random_text(rng, 8, pool);
    r.description = random_text(rng, 30, pool);
    if (rng.bernoulli(0.1)) r.title.clear();
    if (rng.bernoulli(0.1)) r.description.clear();
    if (rng.bernoulli(0.2)) r.title += " " + r.title;  // every token twice
    if (rng.bernoulli(0.2)) r.description += ", " + r.description;
    if (rng.bernoulli(0.02)) r.description = oversize_token(rng, pool);
    r.score = rng.uniform_double();
    r.url = rng.bernoulli(0.3)
                ? engine::make_tracking_url("https://real.example/p" +
                                                std::to_string(i),
                                            rng.next())
                : "https://clean.example/p" + std::to_string(i);
    results.push_back(std::move(r));
  }
  return results;
}

std::size_t distinct_tokens(std::string_view original, const std::vector<std::string>& fakes) {
  std::unordered_set<std::string> tokens;
  for (auto& t : text::tokenize(original)) tokens.insert(std::move(t));
  for (const auto& fake : fakes) {
    for (auto& t : text::tokenize(fake)) tokens.insert(std::move(t));
  }
  return tokens.size();
}

class FilterEquivalence : public ::testing::TestWithParam<FilterScoring> {};

TEST_P(FilterEquivalence, MatchesReferenceAcrossRandomWorkloads) {
  const FilterScoring scoring = GetParam();
  const ResultFilter optimized(scoring);
  Rng rng(scoring == FilterScoring::kCommonWords ? 0xf117e4 : 0xc051ce);

  const int rounds = scoring == FilterScoring::kCommonWords ? 240 : 100;
  int multi_word_rounds = 0;
  for (int round = 0; round < rounds; ++round) {
    // Every fourth round draws from the wide vocabulary with a large k.
    const bool wide = round % 4 == 3;
    const auto& pool = wide ? wide_pool() : word_pool();
    std::string original = random_text(rng, 6, pool);
    std::vector<std::string> fakes;
    // 20..40 fakes, or 0..8 (including the no-fake case).
    const std::size_t k = wide ? 20 + rng.uniform(21) : rng.uniform(9);
    for (std::size_t i = 0; i < k; ++i) fakes.push_back(random_text(rng, 6, pool));
    if (rng.bernoulli(0.3)) {
      // One token shared by the original and several fakes.
      const std::string shared = pool[rng.uniform(pool.size())];
      original += " " + shared;
      for (std::size_t i = 0; i < k; i += 2) fakes[i] += " " + shared;
    }
    if (distinct_tokens(original, fakes) > 64) ++multi_word_rounds;
    const auto results = random_results(rng, 50, pool);

    const auto expected = ref_filter(scoring, original, fakes, results);
    const auto actual = optimized.filter(original, fakes, results);
    ASSERT_EQ(actual, expected)
        << "round " << round << " original='" << original << "' k=" << k
        << " results=" << results.size();
  }
  EXPECT_GT(multi_word_rounds, rounds / 10);  // bitsets spanning several words ran
}

TEST_P(FilterEquivalence, TieOnZeroScoresKeepsResult) {
  // A result sharing nothing with any sub-query scores 0 everywhere; the
  // original ties the max and Algorithm 2 keeps it. Both implementations
  // must agree on this edge (no result token hits the sub-query table, so
  // the common-words scorer never touches a score).
  const ResultFilter optimized(GetParam());
  std::vector<engine::SearchResult> results(1);
  results[0].title = "zebra";
  results[0].description = "quagga";
  const auto expected =
      ref_filter(GetParam(), "alpha", {"beta"}, results);
  EXPECT_EQ(optimized.filter("alpha", {"beta"}, results), expected);
  EXPECT_EQ(expected.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllScorings, FilterEquivalence,
                         ::testing::Values(FilterScoring::kCommonWords,
                                           FilterScoring::kCosine),
                         [](const auto& info) {
                           return info.param == FilterScoring::kCommonWords
                                      ? "CommonWords"
                                      : "Cosine";
                         });

}  // namespace
}  // namespace xsearch::core
