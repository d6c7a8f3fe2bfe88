#include "xsearch/obfuscator.hpp"

namespace xsearch::core {

std::string ObfuscatedQuery::to_query_string() const {
  std::string out;
  for (const auto& q : sub_queries) {
    if (!out.empty()) out += " OR ";
    out += q;
  }
  return out;
}

ObfuscatedQuery Obfuscator::obfuscate(std::string_view query, Rng& rng) const {
  ObfuscatedQuery result;
  result.original = std::string(query);
  result.fakes = history_->sample(k_, rng, query);

  // Insert the original at a random position among the fakes (the random
  // `index` of Algorithm 1).
  result.sub_queries = result.fakes;
  const std::size_t position = rng.uniform(result.sub_queries.size() + 1);
  result.sub_queries.insert(
      result.sub_queries.begin() + static_cast<std::ptrdiff_t>(position),
      result.original);

  // Algorithm 1 line 9: H <- Q. Done after sampling, which skips the
  // query's text, so a query is never its own decoy.
  history_->add(query);
  return result;
}

}  // namespace xsearch::core
