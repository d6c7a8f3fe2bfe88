#include "text/vocabulary.hpp"

#include <cassert>

namespace xsearch::text {

TermId Vocabulary::intern(std::string_view term) {
  if (const auto it = index_.find(term); it != index_.end()) {
    return it->second;
  }
  const auto id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  index_.emplace(terms_.back(), id);
  return id;
}

std::optional<TermId> Vocabulary::lookup(std::string_view term) const {
  const auto it = index_.find(term);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Vocabulary::term(TermId id) const {
  // assert, not XS_CHECK: a per-term lookup in the co-occurrence samplers' loops.
  assert(id < terms_.size());
  return terms_[id];
}

std::vector<TermId> Vocabulary::intern_all(const std::vector<std::string>& tokens) {
  std::vector<TermId> ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) ids.push_back(intern(t));
  return ids;
}

std::vector<TermId> Vocabulary::intern_all(
    const std::vector<std::string_view>& tokens) {
  std::vector<TermId> ids;
  ids.reserve(tokens.size());
  for (const auto t : tokens) ids.push_back(intern(t));
  return ids;
}

std::vector<TermId> Vocabulary::lookup_all(const std::vector<std::string>& tokens) const {
  std::vector<TermId> ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) {
    if (const auto id = lookup(t)) ids.push_back(*id);
  }
  return ids;
}

std::vector<TermId> Vocabulary::lookup_all(
    const std::vector<std::string_view>& tokens) const {
  std::vector<TermId> ids;
  ids.reserve(tokens.size());
  for (const auto t : tokens) {
    if (const auto id = lookup(t)) ids.push_back(*id);
  }
  return ids;
}

}  // namespace xsearch::text
