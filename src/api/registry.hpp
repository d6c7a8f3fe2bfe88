// Mechanism factory: private search clients selectable by name at runtime.
//
// `make_client("xsearch", backend, config)` turns a mechanism name plus a
// mechanism-agnostic config into a ready `PrivateSearchClient`, so a bench
// or example covers every mechanism × workload combination with a one-line
// config change and zero concrete mechanism headers. The five paper
// mechanisms are the rows of one fixed table in adapters.cpp; a sixth
// mechanism is one more row (see ARCHITECTURE.md for the recipe).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/client.hpp"
#include "dataset/query_log.hpp"
#include "engine/search_engine.hpp"

namespace xsearch::api {

/// The shared world a client is built against. Everything mechanism-side
/// (proxies, relays, enclaves, key material) is owned by the client itself.
struct Backend {
  /// The search engine to query. Null is the saturation configuration of
  /// the Figure 5 bench (§6.3): every mechanism answers without contacting
  /// an engine.
  const engine::SearchEngine* engine = nullptr;
  /// Past-query log used by mechanisms that synthesize fake queries from
  /// user history (PEAS co-occurrence walks). Required by "peas".
  const dataset::QueryLog* fake_source = nullptr;
};

/// Builds a client for one of the built-in mechanisms ("direct", "tmn",
/// "tor", "peas", "xsearch"); NOT_FOUND for any other name.
[[nodiscard]] Result<ClientPtr> make_client(std::string_view mechanism,
                                            const Backend& backend,
                                            const ClientConfig& config = {});

/// The built-in mechanism names, sorted.
[[nodiscard]] std::vector<std::string> mechanism_names();

}  // namespace xsearch::api
