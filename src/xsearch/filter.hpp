// Result filtering — Algorithm 2 of the paper.
//
// The engine's answer to the OR query mixes results for all k+1 sub-queries.
// For each result, a score is computed per sub-query as the number of common
// words between the sub-query and the result's title plus the number of
// common words with its description; a result is forwarded to the user only
// if the *original* query's score is the maximum. The filter also rewrites
// analytics tracking URLs back to their target (paper §4.1).
//
// The common-words scorer reads each result field in a single pass and
// makes no lower-cased copy. Per call it indexes the distinct lower-cased
// sub-query tokens in a small open-addressing table (slot count a power of
// two at least 4x the token count) and gives each sub-query a bitset of its
// token ids. Per field, `text::scan_tokens` finds the token boundaries; each
// token is folded and hashed from word loads and probed once, and each hit
// sets a bit in the field's bitset, which counts a repeated word once; then
// score[q] += popcount(hit & mask[q]). Result text comes from the engine, an
// untrusted party: the scan accepts any bytes and any length, and a probe
// walks one cluster of a table that only the sub-query tokens fill, so its
// cost is bounded. The cosine ablation shares one vocabulary across the
// batch. See tests/core_filter_equivalence_test.cpp for the proof that both
// keep the exact result set (including ties) of the paper's per-pair
// formulation.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "engine/document.hpp"

namespace xsearch::core {

/// Scoring flavour — the paper's common-words metric is the default; the
/// cosine variant exists for the filter-scoring ablation bench.
enum class FilterScoring { kCommonWords, kCosine };

class ResultFilter {
 public:
  explicit ResultFilter(FilterScoring scoring = FilterScoring::kCommonWords)
      : scoring_(scoring) {}

  /// Algorithm 2: keep results whose best-matching sub-query is the
  /// original. Ties in favour of the original (score[original] == max keeps
  /// the result, as in the paper's pseudocode).
  [[nodiscard]] std::vector<engine::SearchResult> filter(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const;

  /// Strips analytics redirection from a result list in place.
  static void strip_tracking(std::vector<engine::SearchResult>& results);

 private:
  [[nodiscard]] std::vector<engine::SearchResult> filter_common_words(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const;
  [[nodiscard]] std::vector<engine::SearchResult> filter_cosine(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const;

  FilterScoring scoring_;
};

}  // namespace xsearch::core
