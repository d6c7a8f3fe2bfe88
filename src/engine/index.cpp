#include "engine/index.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "text/tokenizer.hpp"

namespace xsearch::engine {

namespace {

// One document's accumulator entry, score and stamp side by side. The
// score is live only while the stamp equals the current search's epoch;
// first touch of a doc is detected by the stamp, not by a zero score (a
// zero-impact posting, e.g. title_boost = 0, must not re-touch).
struct Slot {
  double score = 0.0;
  std::uint32_t stamp = 0;
};

// Per-thread query state; see the header comment.
struct Scratch {
  std::vector<Slot> slots;               // dense per-doc accumulator
  std::uint32_t epoch = 0;               // current search's stamp value
  std::vector<DocId> touched;            // docs scored by the current query, first touch first
  std::vector<text::TermId> terms;       // deduplicated query terms
  std::string token_buffer;              // tokenize_views backing store
  std::vector<std::string_view> tokens;  // token views into token_buffer
};

thread_local Scratch t_scratch;

// Ranking order: score descending, then doc id ascending. Doc ids are
// distinct, so this is a strict total order and the top-k is unique.
bool ranks_before(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

}  // namespace

InvertedIndex::InvertedIndex(const std::vector<Document>& documents, Bm25Params params)
    : document_count_(documents.size()) {
  // Pass 1: each document's distinct terms with their field-boosted
  // frequencies, summed in double and stored as float, and its boosted
  // length; plus each term's document frequency.
  struct DocTerm {
    text::TermId term;
    float weight;
  };
  std::vector<DocTerm> doc_terms;           // every document's terms, back to back
  std::vector<std::size_t> doc_end;         // doc d's terms end at doc_end[d]
  std::vector<double> lengths;              // boosted length per doc
  std::vector<std::size_t> df;              // per term
  std::vector<std::pair<text::TermId, double>> current;  // this doc's terms
  std::vector<std::size_t> position;        // term -> 1 + index in `current`, 0 if absent
  std::string buffer;
  std::vector<std::string_view> tokens;
  double total_length = 0.0;
  doc_end.reserve(documents.size());
  lengths.reserve(documents.size());

  const auto add_field = [&](std::string_view text, double weight, double& length) {
    tokens.clear();
    text::tokenize_views_into(text, buffer, tokens);
    for (const std::string_view token : tokens) {
      const text::TermId term = vocab_.intern(token);
      if (term >= position.size()) position.resize(term + 1, 0);
      if (position[term] == 0) {
        current.emplace_back(term, 0.0);
        position[term] = current.size();
      }
      current[position[term] - 1].second += weight;
      length += weight;
    }
  };

  for (std::size_t d = 0; d < documents.size(); ++d) {
    const Document& doc = documents[d];
    assert(doc.id == d && "documents must have dense ids");
    double length = 0.0;
    current.clear();
    add_field(doc.title, params.title_boost, length);
    add_field(doc.body, 1.0, length);
    if (df.size() < vocab_.size()) df.resize(vocab_.size(), 0);
    for (const auto& [term, weight] : current) {
      doc_terms.push_back({term, static_cast<float>(weight)});
      ++df[term];
      position[term] = 0;
    }
    doc_end.push_back(doc_terms.size());
    lengths.push_back(length);
    total_length += length;
  }

  // Pass 2: lay the postings out by term, in doc order, each with its BM25
  // contribution computed once with the query-time expression.
  const std::size_t n_terms = vocab_.size();
  term_begin_.assign(n_terms + 1, 0);
  for (std::size_t t = 0; t < n_terms; ++t) term_begin_[t + 1] = term_begin_[t] + df[t];
  posting_docs_.resize(doc_terms.size());
  posting_impacts_.resize(doc_terms.size());
  if (documents.empty()) return;

  const double n_docs = static_cast<double>(documents.size());
  const double avg_len = total_length / n_docs;
  std::vector<double> idf(n_terms);
  for (std::size_t t = 0; t < n_terms; ++t) {
    const double term_df = static_cast<double>(df[t]);
    idf[t] = std::log(1.0 + (n_docs - term_df + 0.5) / (term_df + 0.5));
  }
  std::vector<std::size_t> cursor(term_begin_.begin(), term_begin_.end() - 1);
  std::size_t begin = 0;
  for (std::size_t d = 0; d < documents.size(); ++d) {
    const double norm =
        params.k1 * (1.0 - params.b + params.b * lengths[d] / avg_len);
    for (std::size_t i = begin; i < doc_end[d]; ++i) {
      const text::TermId term = doc_terms[i].term;
      const double tf = doc_terms[i].weight;
      const std::size_t at = cursor[term]++;
      posting_docs_[at] = static_cast<DocId>(d);
      posting_impacts_[at] = idf[term] * (tf * (params.k1 + 1.0)) / (tf + norm);
    }
    begin = doc_end[d];
  }
}

std::vector<ScoredDoc> InvertedIndex::search(std::string_view query,
                                             std::size_t top_k) const {
  std::vector<ScoredDoc> out;
  search_with(query, top_k, out);
  return out;
}

void InvertedIndex::search_with(std::string_view query, std::size_t top_k,
                                std::vector<ScoredDoc>& out) const {
  out.clear();
  if (document_count_ == 0 || top_k == 0) return;
  Scratch& scratch = t_scratch;

  // Deduplicate query terms; BM25 treats repeated query terms linearly but
  // short web queries rarely repeat words, and dedup keeps scores stable.
  scratch.tokens.clear();
  text::tokenize_views_into(query, scratch.token_buffer, scratch.tokens);
  auto& terms = scratch.terms;
  terms.clear();
  for (const std::string_view token : scratch.tokens) {
    if (const auto id = vocab_.lookup(token)) {
      if (std::find(terms.begin(), terms.end(), *id) == terms.end()) {
        terms.push_back(*id);
      }
    }
  }
  if (terms.empty()) return;

  // Dense accumulator, reset lazily: a doc's score is live only when its
  // epoch stamp matches the current search.
  auto& slots = scratch.slots;
  if (slots.size() < document_count_) slots.resize(document_count_);
  if (++scratch.epoch == 0) {  // wrapped: stamp 0 must mean "never touched"
    for (Slot& s : slots) s.stamp = 0;
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  // One spare entry: the append below writes one past the last doc.
  auto& touched = scratch.touched;
  if (touched.size() <= document_count_) touched.resize(document_count_ + 1);
  std::size_t n_touched = 0;

  // Impacts are added in query-term order, so each score is the same sum,
  // bit for bit, as evaluating the BM25 formula per posting. Whether a
  // posting's doc is new to this query is data-dependent, so the loop
  // records it without a branch: it always writes the doc to `touched` and
  // advances the count only for a first touch.
  for (const text::TermId term : terms) {
    for (std::size_t i = term_begin_[term]; i < term_begin_[term + 1]; ++i) {
      const DocId doc = posting_docs_[i];
      Slot& slot = slots[doc];
      const bool fresh = slot.stamp != epoch;
      touched[n_touched] = doc;
      n_touched += fresh;
      slot.stamp = epoch;
      slot.score = (fresh ? 0.0 : slot.score) + posting_impacts_[i];
    }
  }

  // Bounded top-k: `out` is a heap whose front is the lowest-ranked doc
  // kept. It fills from the first touched docs; after that a doc enters
  // only by outranking the front, held in `worst`. `out` grows by push_back
  // only, never by the caller's top_k.
  std::size_t next = 0;
  for (; next < n_touched && out.size() < top_k; ++next) {
    out.push_back({touched[next], slots[touched[next]].score});
    std::push_heap(out.begin(), out.end(), ranks_before);
  }
  if (next < n_touched) {
    ScoredDoc worst = out.front();
    for (; next < n_touched; ++next) {
      const ScoredDoc candidate{touched[next], slots[touched[next]].score};
      if (!ranks_before(candidate, worst)) continue;
      std::pop_heap(out.begin(), out.end(), ranks_before);
      out.back() = candidate;
      std::push_heap(out.begin(), out.end(), ranks_before);
      worst = out.front();
    }
  }
  std::sort_heap(out.begin(), out.end(), ranks_before);
}

}  // namespace xsearch::engine
