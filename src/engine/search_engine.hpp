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

#include "common/bytes.hpp"
#include "engine/corpus.hpp"
#include "engine/document.hpp"
#include "engine/index.hpp"

namespace xsearch::engine {

class SearchEngine {
 public:
  /// Indexes the corpus and wire-encodes every document's result entry
  /// once; `snippet_words` controls description length. Keeps no reference
  /// to the corpus.
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

  /// The same answer as `search_or`, as it goes on the wire: byte for byte
  /// `core::wire::serialize_results(search_or(sub_queries, top_k_each))`.
  /// Each result's entry is copied once from the pre-encoded entries; no
  /// SearchResult is built.
  [[nodiscard]] Bytes search_or_encoded(const std::vector<std::string>& sub_queries,
                                        std::size_t top_k_each) const;

  /// Registers an observer invoked with every query string the engine
  /// receives — the adversary's vantage point.
  void set_observer(std::function<void(std::string_view)> observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] std::size_t document_count() const { return index_.document_count(); }

 private:
  /// The ranked OR answer both renderers serve: notifies the observer once,
  /// searches each sub-query and merges the lists rank by rank.
  [[nodiscard]] std::vector<ScoredDoc> rank_or(const std::vector<std::string>& sub_queries,
                                               std::size_t top_k_each) const;

  /// Decodes document `sd.doc`'s entry and adds the score.
  [[nodiscard]] SearchResult decode(const ScoredDoc& sd) const;

  InvertedIndex index_;
  // Every document's wire entry without its score, back to back: u32 doc
  // id, then title, description snippet and tracking URL as u32-length-
  // prefixed strings, all big-endian. Document d's entry is
  // [entry_begin_[d], entry_begin_[d + 1]).
  Bytes entries_;
  std::vector<std::size_t> entry_begin_;
  std::function<void(std::string_view)> observer_;
};

}  // namespace xsearch::engine
