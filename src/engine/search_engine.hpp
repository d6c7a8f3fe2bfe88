// The simulated web search engine (Bing stand-in).
//
// Serves ranked results with titles, description snippets and analytics
// tracking URLs. Mirrors the paper's own methodology for OR queries
// (§5.3.2): since Bing's OR operator only worked on single-word queries,
// the authors submitted each sub-query independently and merged the k+1
// result sets — `search_or` does exactly that.
//
// The engine is "honest but curious" (§3): it answers correctly, and it
// additionally exposes a query observation hook so the SimAttack adversary
// can record what the engine sees.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/corpus.hpp"
#include "engine/document.hpp"
#include "engine/index.hpp"

namespace xsearch::engine {

class SearchEngine {
 public:
  /// Indexes the corpus and renders every document's result entry once;
  /// `snippet_words` controls description length. Keeps no reference to
  /// the corpus.
  explicit SearchEngine(const Corpus& corpus, std::size_t snippet_words = 25,
                        Bm25Params params = {});

  /// Single query, top-k decorated results.
  [[nodiscard]] std::vector<SearchResult> search(std::string_view query,
                                                 std::size_t top_k) const;

  /// OR query over several sub-queries: each sub-query is evaluated
  /// independently for `top_k_each` results and the result sets are merged
  /// (deduplicated by document, keeping its first-seen score, interleaved
  /// by per-sub-query rank so no sub-query dominates the head of the list).
  [[nodiscard]] std::vector<SearchResult> search_or(
      const std::vector<std::string>& sub_queries, std::size_t top_k_each) const;

  /// Registers an observer invoked with every query string the engine
  /// receives — the adversary's vantage point.
  void set_observer(std::function<void(std::string_view)> observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] std::size_t document_count() const { return index_.document_count(); }

 private:
  [[nodiscard]] SearchResult decorate(const ScoredDoc& sd) const;

  InvertedIndex index_;
  // One entry per document with title, snippet and tracking URL filled in
  // (they depend only on the document); decorate adds the score.
  std::vector<SearchResult> rendered_;
  std::function<void(std::string_view)> observer_;
};

}  // namespace xsearch::engine
