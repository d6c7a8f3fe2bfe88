#include "text/cooccurrence.hpp"

#include <algorithm>
#include <cassert>

#include "text/tokenizer.hpp"

namespace xsearch::text {

void CooccurrenceMatrix::add_query(std::string_view query) {
  std::vector<TermId> ids = vocab_->intern_all(tokenize_no_stopwords(query));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  for (const TermId id : ids) ++unigram_[id];
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      auto bump = [this](TermId a, TermId b) {
        auto& list = neighbours_[a];
        const auto it = std::find_if(list.begin(), list.end(),
                                     [b](const auto& p) { return p.first == b; });
        if (it == list.end()) {
          list.emplace_back(b, 1);
        } else {
          ++it->second;
        }
      };
      bump(ids[i], ids[j]);
      bump(ids[j], ids[i]);
    }
  }
  MutexLock lock(sampling_mutex_);
  sampling_dirty_ = true;
}

std::uint64_t CooccurrenceMatrix::pair_count(std::string_view a, std::string_view b) const {
  const auto ia = vocab_->lookup(a);
  const auto ib = vocab_->lookup(b);
  if (!ia || !ib) return 0;
  const auto it = neighbours_.find(*ia);
  if (it == neighbours_.end()) return 0;
  for (const auto& [term, count] : it->second) {
    if (term == *ib) return count;
  }
  return 0;
}

std::uint64_t CooccurrenceMatrix::term_frequency(std::string_view term) const {
  const auto id = vocab_->lookup(term);
  if (!id) return 0;
  const auto it = unigram_.find(*id);
  return it == unigram_.end() ? 0 : it->second;
}

void CooccurrenceMatrix::rebuild_sampling_table() const {
  sample_terms_.clear();
  sample_cumulative_.clear();
  sample_terms_.reserve(unigram_.size());
  sample_cumulative_.reserve(unigram_.size());
  std::uint64_t total = 0;
  for (const auto& [term, count] : unigram_) {
    total += count;
    sample_terms_.push_back(term);
    sample_cumulative_.push_back(total);
  }
  sampling_dirty_ = false;
}

std::string CooccurrenceMatrix::sample_term(Rng& rng) const {
  if (unigram_.empty()) return {};
  TermId picked;
  {
    // Shared-generator hot path: PEAS siblings sample concurrently, and
    // any of them may observe the cache dirty and rebuild it.
    MutexLock lock(sampling_mutex_);
    if (sampling_dirty_) rebuild_sampling_table();
    const std::uint64_t target = rng.uniform(sample_cumulative_.back()) + 1;
    const auto it = std::lower_bound(sample_cumulative_.begin(),
                                     sample_cumulative_.end(), target);
    const auto idx = static_cast<std::size_t>(it - sample_cumulative_.begin());
    picked = sample_terms_[idx];
  }
  return vocab_->term(picked);
}

std::string CooccurrenceMatrix::sample_neighbour(std::string_view term, Rng& rng) const {
  const auto id = vocab_->lookup(term);
  if (id) {
    if (const auto it = neighbours_.find(*id); it != neighbours_.end() && !it->second.empty()) {
      std::uint64_t total = 0;
      for (const auto& [_, count] : it->second) total += count;
      std::uint64_t target = rng.uniform(total) + 1;
      for (const auto& [other, count] : it->second) {
        if (target <= count) return vocab_->term(other);
        target -= count;
      }
    }
  }
  return sample_term(rng);  // fallback
}

std::string CooccurrenceMatrix::generate_fake_query(std::size_t length, Rng& rng) const {
  if (unigram_.empty() || length == 0) return {};
  std::string current = sample_term(rng);
  std::string query = current;
  for (std::size_t i = 1; i < length; ++i) {
    std::string next = sample_neighbour(current, rng);
    if (next.empty()) break;
    query += ' ';
    query += next;
    current = std::move(next);
  }
  return query;
}

}  // namespace xsearch::text
