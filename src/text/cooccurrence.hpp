// Term co-occurrence statistics over a query log.
//
// PEAS builds its fake queries from "the graph of co-occurrence between
// terms in the history of user queries" (paper §5.2 / Petit et al. 2015):
// starting from a seed term, neighbours are sampled proportionally to how
// often they appeared together with the current term in past queries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "text/vocabulary.hpp"

namespace xsearch::text {

class CooccurrenceMatrix {
 public:
  explicit CooccurrenceMatrix(Vocabulary& vocab) : vocab_(&vocab) {}

  /// Adds one query: every unordered pair of distinct tokens co-occurs once,
  /// and every token's unigram count increments.
  void add_query(std::string_view query);

  /// Total distinct terms seen.
  [[nodiscard]] std::size_t term_count() const { return unigram_.size(); }

  /// Raw co-occurrence count of a term pair.
  [[nodiscard]] std::uint64_t pair_count(std::string_view a, std::string_view b) const;

  /// Unigram frequency of a term.
  [[nodiscard]] std::uint64_t term_frequency(std::string_view term) const;

  /// Samples a neighbour of `term` proportionally to co-occurrence counts.
  /// Falls back to a frequency-weighted global term when the term is unknown
  /// or has no neighbours. Returns empty string when the matrix is empty.
  [[nodiscard]] std::string sample_neighbour(std::string_view term, Rng& rng) const;

  /// Samples a term from the global unigram distribution.
  [[nodiscard]] std::string sample_term(Rng& rng) const;

  /// Generates a fake query of `length` words by a co-occurrence random
  /// walk seeded at a frequency-weighted random term (PEAS's generator).
  [[nodiscard]] std::string generate_fake_query(std::size_t length, Rng& rng) const;

 private:
  void rebuild_sampling_table() const XS_REQUIRES(sampling_mutex_);

  Vocabulary* vocab_;
  // neighbours_[t] = (other term, count) pairs; sampling does a linear
  // weighted pick, which is fine for query-sized neighbour lists. Both maps
  // are written only by add_query (construction-time, single-threaded) and
  // read concurrently afterwards, so they carry no lock.
  std::unordered_map<TermId, std::vector<std::pair<TermId, std::uint64_t>>> neighbours_;
  std::unordered_map<TermId, std::uint64_t> unigram_;

  // Lazily rebuilt cumulative table for global unigram sampling. Unlike the
  // maps above this cache is mutated from const readers, which PEAS
  // siblings call concurrently on a shared generator — hence its own lock.
  mutable Mutex sampling_mutex_;
  mutable std::vector<TermId> sample_terms_ XS_GUARDED_BY(sampling_mutex_);
  mutable std::vector<std::uint64_t> sample_cumulative_
      XS_GUARDED_BY(sampling_mutex_);
  mutable bool sampling_dirty_ XS_GUARDED_BY(sampling_mutex_) = true;
};

}  // namespace xsearch::text
