// Inverted index with BM25 ranking.
//
// The retrieval core of the simulated search engine: documents are indexed
// by their title and body terms (title terms carry a configurable field
// boost) and queries are scored with Okapi BM25.
//
// The index is immutable: the constructor indexes the whole document list
// and computes every posting's BM25 contribution (its impact) once, so a
// query only adds precomputed impacts into a dense per-document
// accumulator, in query-term order, and keeps the best `top_k` in a
// bounded heap. The accumulator lives in per-thread scratch: it is
// allocated and cleared once per thread (and again only when the thread
// meets a larger index or its epoch counter wraps), never per query.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "engine/document.hpp"
#include "text/vocabulary.hpp"

namespace xsearch::engine {

struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
  double title_boost = 2.0;  // weight of a title occurrence vs a body one
};

/// A scored document id.
struct ScoredDoc {
  DocId doc = 0;
  double score = 0.0;
};

class InvertedIndex {
 public:
  /// Indexes `documents`; document i must have id i.
  explicit InvertedIndex(const std::vector<Document>& documents, Bm25Params params = {});

  /// Top-k documents for a free-text query, BM25-ranked, deterministic
  /// tie-break by doc id. Unknown and repeated query terms are ignored.
  [[nodiscard]] std::vector<ScoredDoc> search(std::string_view query,
                                              std::size_t top_k) const;

  /// Same, into a caller-owned vector (cleared first), so a caller that
  /// searches repeatedly can reuse its allocation.
  void search_with(std::string_view query, std::size_t top_k,
                   std::vector<ScoredDoc>& out) const;

  [[nodiscard]] std::size_t document_count() const { return document_count_; }
  [[nodiscard]] std::size_t term_count() const { return vocab_.size(); }

 private:
  text::Vocabulary vocab_;
  std::size_t document_count_ = 0;
  // Postings of term t are [term_begin_[t], term_begin_[t + 1]) of the two
  // parallel arrays, in ascending doc order.
  std::vector<std::size_t> term_begin_;
  std::vector<DocId> posting_docs_;
  std::vector<double> posting_impacts_;
};

}  // namespace xsearch::engine
