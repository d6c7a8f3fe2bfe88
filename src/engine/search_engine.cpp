#include "engine/search_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/rng.hpp"
#include "engine/analytics.hpp"

namespace xsearch::engine {

namespace {

void put_u32(Bytes& out, std::uint32_t v) {
  std::uint8_t buf[4];
  store_be32(buf, v);
  out.insert(out.end(), buf, buf + 4);
}

void put_string(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Reads the u32-length-prefixed string at `p` and advances past it. Only
// ever reads entries this engine encoded.
std::string take_string(const std::uint8_t*& p) {
  const std::uint32_t size = load_be32(p);
  std::string s(reinterpret_cast<const char*>(p + 4), size);
  p += 4 + size;
  return s;
}

}  // namespace

SearchEngine::SearchEngine(const Corpus& corpus, std::size_t snippet_words,
                           Bm25Params params)
    : index_(corpus.documents(), params) {
  entry_begin_.reserve(corpus.size() + 1);
  for (const Document& doc : corpus.documents()) {
    entry_begin_.push_back(entries_.size());

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
    std::string_view description = std::string_view(doc.body).substr(0, end);
    if (description.ends_with(' ')) description.remove_suffix(1);

    // Analytics redirect with an opaque (but deterministic) token.
    std::uint64_t token_state = 0x414e41ull ^ (std::uint64_t{doc.id} << 17);
    const std::string url = make_tracking_url(doc.url, splitmix64(token_state));

    put_u32(entries_, doc.id);
    put_string(entries_, doc.title);
    put_string(entries_, description);
    put_string(entries_, url);
  }
  entry_begin_.push_back(entries_.size());
}

SearchResult SearchEngine::decode(const ScoredDoc& sd) const {
  const std::uint8_t* p = entries_.data() + entry_begin_[sd.doc] + 4;
  SearchResult result;
  result.doc = sd.doc;
  result.title = take_string(p);
  result.description = take_string(p);
  result.url = take_string(p);
  result.score = sd.score;
  return result;
}

std::vector<SearchResult> SearchEngine::search(std::string_view query,
                                               std::size_t top_k) const {
  if (observer_) observer_(query);
  std::vector<SearchResult> out;
  for (const ScoredDoc& sd : index_.search(query, top_k)) {
    out.push_back(decode(sd));
  }
  return out;
}

std::vector<ScoredDoc> SearchEngine::rank_or(const std::vector<std::string>& sub_queries,
                                             std::size_t top_k_each) const {
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

  // ... and merge rank-by-rank so every sub-query contributes near the top,
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
  return merged;
}

std::vector<SearchResult> SearchEngine::search_or(
    const std::vector<std::string>& sub_queries, std::size_t top_k_each) const {
  const std::vector<ScoredDoc> merged = rank_or(sub_queries, top_k_each);
  std::vector<SearchResult> out;
  out.reserve(merged.size());
  for (const ScoredDoc& sd : merged) out.push_back(decode(sd));
  return out;
}

Bytes SearchEngine::search_or_encoded(const std::vector<std::string>& sub_queries,
                                      std::size_t top_k_each) const {
  const std::vector<ScoredDoc> merged = rank_or(sub_queries, top_k_each);
  std::size_t size = 4;
  for (const ScoredDoc& sd : merged) {
    size += entry_begin_[sd.doc + 1] - entry_begin_[sd.doc] + 8;
  }
  Bytes out(size);
  std::uint8_t* p = out.data();
  store_be32(p, static_cast<std::uint32_t>(merged.size()));
  p += 4;
  for (const ScoredDoc& sd : merged) {
    const std::size_t begin = entry_begin_[sd.doc];
    const std::size_t length = entry_begin_[sd.doc + 1] - begin;
    std::memcpy(p, entries_.data() + begin, length);
    store_be64(p + length, std::bit_cast<std::uint64_t>(sd.score));
    p += length + 8;
  }
  return out;
}

}  // namespace xsearch::engine
