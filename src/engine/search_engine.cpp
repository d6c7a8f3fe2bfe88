#include "engine/search_engine.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "engine/analytics.hpp"

namespace xsearch::engine {

SearchEngine::SearchEngine(const Corpus& corpus, std::size_t snippet_words,
                           Bm25Params params)
    : index_(corpus.documents(), params) {
  rendered_.reserve(corpus.size());
  for (const Document& doc : corpus.documents()) {
    SearchResult& result = rendered_.emplace_back();
    result.doc = doc.id;
    result.title = doc.title;

    // Snippet: leading words of the body.
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

    // Analytics redirect with an opaque (but deterministic) token.
    std::uint64_t token_state = 0x414e41ull ^ (std::uint64_t{doc.id} << 17);
    result.url = make_tracking_url(doc.url, splitmix64(token_state));
  }
}

SearchResult SearchEngine::decorate(const ScoredDoc& sd) const {
  SearchResult result = rendered_[sd.doc];
  result.score = sd.score;
  return result;
}

std::vector<SearchResult> SearchEngine::search(std::string_view query,
                                               std::size_t top_k) const {
  if (observer_) observer_(query);
  std::vector<SearchResult> out;
  for (const ScoredDoc& sd : index_.search(query, top_k)) {
    out.push_back(decorate(sd));
  }
  return out;
}

std::vector<SearchResult> SearchEngine::search_or(
    const std::vector<std::string>& sub_queries, std::size_t top_k_each) const {
  if (observer_) {
    // The engine sees one OR query, exactly as the proxy sends it.
    std::string combined;
    std::size_t total = 0;
    for (const auto& q : sub_queries) total += q.size() + 4;
    combined.reserve(total);
    for (const auto& q : sub_queries) {
      if (!combined.empty()) combined += " OR ";
      combined += q;
    }
    observer_(combined);
  }

  // Evaluate each sub-query independently (paper §5.3.2) ...
  std::vector<std::vector<ScoredDoc>> per_query(sub_queries.size());
  std::size_t longest = 0;
  for (std::size_t i = 0; i < sub_queries.size(); ++i) {
    index_.search_with(sub_queries[i], top_k_each, per_query[i]);
    longest = std::max(longest, per_query[i].size());
  }

  // ... merge rank-by-rank so every sub-query contributes near the top,
  // deduplicating documents on first sight. The merge stops at the longest
  // ranked list, not at `top_k_each`, which comes off the wire. It holds at
  // most (k+1) * top_k_each ids, so a scan of it dedupes.
  std::vector<ScoredDoc> merged;
  for (std::size_t rank = 0; rank < longest; ++rank) {
    for (const auto& ranked : per_query) {
      if (rank >= ranked.size()) continue;
      const DocId doc = ranked[rank].doc;
      if (std::none_of(merged.begin(), merged.end(),
                       [doc](const ScoredDoc& m) { return m.doc == doc; })) {
        merged.push_back(ranked[rank]);
      }
    }
  }

  // ... and decorate only the survivors.
  std::vector<SearchResult> out;
  out.reserve(merged.size());
  for (const ScoredDoc& sd : merged) out.push_back(decorate(sd));
  return out;
}

}  // namespace xsearch::engine
