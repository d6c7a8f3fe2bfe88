// Baseline comparison: the same query through every system.
//
// Runs one query through every built-in mechanism of api::make_client —
// Direct, TrackMeNot, Tor, PEAS and X-Search — against the same simulated
// engine, and prints (a) what the search engine observes in each case,
// (b) what the user gets back, and (c) the mechanism's self-reported
// privacy properties — a compact demonstration of the
// privacy/functionality trade-off the paper's §2 taxonomy describes.
//
// No mechanism-specific code: each client is built by name through the
// unified API, so a sixth mechanism (one more row in the mechanism table)
// would appear here automatically.
//
// Run: ./build/examples/baseline_comparison
#include <cstdio>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "api/registry.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"

using namespace xsearch;  // NOLINT

namespace {

void show(const std::string& system, const api::PrivacyProperties& props,
          const std::vector<std::string>& engine_saw, std::size_t result_count) {
  std::printf("%-9s -> engine observed:\n", system.c_str());
  for (const auto& q : engine_saw) std::printf("             \"%s\"\n", q.c_str());
  std::printf("             user received %zu results\n", result_count);
  std::printf("             identity %s, query %s, k=%zu — trust: %s\n\n",
              props.identity_exposed ? "EXPOSED" : "hidden",
              props.query_exposed ? "EXPOSED" : "hidden", props.k,
              props.trust_assumption.c_str());
}

}  // namespace

int main() {
  dataset::SyntheticLogConfig log_config;
  log_config.num_users = 100;
  log_config.total_queries = 20'000;
  const auto log = dataset::generate_synthetic_log(log_config);
  engine::Corpus corpus(log, engine::CorpusConfig{.num_documents = 5'000});
  engine::SearchEngine search_engine(corpus);

  std::vector<std::string> observed;
  search_engine.set_observer([&observed](std::string_view q) {
    observed.emplace_back(q);
  });

  const std::string query = log.records()[4'242].text;
  std::printf("the user's query: \"%s\"\n\n", query.c_str());

  // Warm-up stream: other users' traffic, so obfuscating mechanisms have
  // real decoys to draw from.
  std::vector<std::string> warm;
  for (std::size_t i = 0; i < 50; ++i) {
    warm.push_back(log.records()[i * 101 % log.size()].text);
  }

  api::Backend backend;
  backend.engine = &search_engine;
  backend.fake_source = &log;

  std::uint64_t seed = 1;
  for (const auto& name : api::mechanism_names()) {
    api::ClientConfig config;
    config.k = 3;
    config.top_k = 20;
    config.seed = seed += 2;

    auto client = api::make_client(name, backend, config);
    if (!client.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   client.status().to_string().c_str());
      continue;
    }
    (void)client.value()->prime(warm);
    // X-Search additionally records searched queries into its history; give
    // every mechanism the same preceding traffic for a fair comparison.
    for (const auto& w : warm) (void)client.value()->search(w);

    observed.clear();
    const auto results = client.value()->search(query);
    show(name, client.value()->privacy_properties(), observed,
         results.is_ok() ? results.value().size() : 0);
  }

  std::printf("Direct/TrackMeNot/Tor expose the full query (Tor hides only the\n");
  std::printf("IP; TrackMeNot's RSS decoys are separable). PEAS hides it among\n");
  std::printf("synthetic fakes; X-Search hides it among real past queries and\n");
  std::printf("additionally resists colluding proxies.\n");
  return 0;
}
