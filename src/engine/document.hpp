// Web document model returned by the simulated search engine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace xsearch::engine {

using DocId = std::uint32_t;

/// One indexed web page.
struct Document {
  DocId id = 0;
  std::string title;
  std::string body;  // description text; the snippet is a prefix of this
  std::string url;   // canonical target URL
};

/// One entry of a result list as the engine serves it: title, description
/// snippet and a *tracking* URL that bounces through the engine's analytics
/// redirector (X-Search's proxy strips this, paper §4.1).
struct SearchResult {
  DocId doc = 0;
  std::string title;
  std::string description;
  std::string url;  // tracking URL as served; see analytics.hpp
  double score = 0.0;

  friend bool operator==(const SearchResult&, const SearchResult&) = default;
};

/// A SearchResult read in place from a wire-encoded result list
/// (xsearch/wire.hpp): the strings view the buffer it was parsed from, which
/// must outlive the view.
struct ResultView {
  DocId doc = 0;
  std::string_view title;
  std::string_view description;
  std::string_view url;
  double score = 0.0;
};

[[nodiscard]] inline ResultView view_of(const SearchResult& r) {
  return {r.doc, r.title, r.description, r.url, r.score};
}

}  // namespace xsearch::engine
