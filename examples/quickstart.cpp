// Quickstart: stand up the whole X-Search deployment in-process and run one
// private web search.
//
//   1. build a synthetic query log and a search engine over a matching corpus;
//   2. ask api::make_client for an "xsearch" client — behind the one call,
//      a proxy boots inside a (simulated) SGX enclave;
//   3. connect — the client broker attests the enclave and opens the secure
//      channel;
//   4. search — the engine only ever sees an obfuscated OR query, and the
//      user receives filtered, analytics-scrubbed results.
//
// Swapping "xsearch" for "direct", "tmn", "tor" or "peas" runs the same
// program over any other mechanism — the API is the same.
//
// Run: ./build/examples/quickstart [query words...]
#include <cstdio>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "api/registry.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"

using namespace xsearch;  // NOLINT

int main(int argc, char** argv) {
  // --- 1. The world: a query log and a search engine. -----------------------
  dataset::SyntheticLogConfig log_config;
  log_config.num_users = 100;
  log_config.total_queries = 20'000;
  const auto log = dataset::generate_synthetic_log(log_config);

  engine::Corpus corpus(log, engine::CorpusConfig{.num_documents = 5'000});
  engine::SearchEngine search_engine(corpus);
  search_engine.set_observer([](std::string_view q) {
    std::printf("  [engine sees]  %.*s\n", static_cast<int>(q.size()), q.data());
  });

  // --- 2. An X-Search client, by name. ---------------------------------------
  api::Backend backend;
  backend.engine = &search_engine;
  backend.fake_source = &log;

  api::ClientConfig config;
  config.k = 3;  // three fake queries per real one
  config.top_k = 20;
  config.seed = 1;

  auto client = api::make_client("xsearch", backend, config);
  if (!client.is_ok()) {
    std::fprintf(stderr, "client setup failed: %s\n",
                 client.status().to_string().c_str());
    return 1;
  }

  // --- 3. Connect: attestation + secure channel. -----------------------------
  if (const auto status = client.value()->connect(); !status.is_ok()) {
    std::fprintf(stderr, "attestation failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("attestation OK, secure channel established\n\n");

  // Warm the proxy history so the obfuscator has decoys (in production the
  // proxy is warm from other users' traffic).
  std::vector<std::string> warm;
  for (std::size_t i = 0; i < 50; ++i) {
    warm.push_back(log.records()[i * 97 % log.size()].text);
  }
  (void)client.value()->prime(warm);

  // --- 4. A private search. ---------------------------------------------------
  std::string query;
  for (int i = 1; i < argc; ++i) {
    if (!query.empty()) query += ' ';
    query += argv[i];
  }
  if (query.empty()) query = log.records()[12'345].text;

  std::printf("[user asks]    %s\n", query.c_str());
  const auto results = client.value()->search(query);
  if (!results.is_ok()) {
    std::fprintf(stderr, "search failed: %s\n", results.status().to_string().c_str());
    return 1;
  }

  std::printf("\n%zu filtered results:\n", results.value().size());
  std::size_t rank = 1;
  for (const auto& r : results.value()) {
    std::printf("  %2zu. %s\n      %s\n", rank++, r.title.c_str(), r.url.c_str());
    if (rank > 10) break;
  }

  const auto props = client.value()->privacy_properties();
  std::printf("\nprivacy properties of \"%s\": identity %s, query %s, k=%zu\n"
              "trust: %s\n",
              props.mechanism.c_str(),
              props.identity_exposed ? "exposed" : "hidden",
              props.query_exposed ? "exposed" : "hidden", props.k,
              props.trust_assumption.c_str());
  std::printf("\nnote: the engine line above shows the OR query — the real query\n"
              "is hidden among %zu decoys drawn from other users' past queries.\n",
              props.k);
  return 0;
}
