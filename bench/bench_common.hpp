// Shared experimental setup for the figure benches.
//
// Every bench builds the same testbed (synthetic AOL-like log, §5.1
// methodology: top-100 active users, 2/3-1/3 train/test split, topically
// coherent corpus + engine) from one seed, prints the seed, and regenerates
// one figure of the paper. Scale knobs are centralized here so all figures
// run against the same world.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "dataset/query_log.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"

namespace xsearch::bench {

struct Testbed {
  dataset::SyntheticLogConfig log_config;
  dataset::QueryLog log;            // the full synthetic log
  std::vector<dataset::UserId> top_users;
  dataset::QueryLog top_log;        // only the most active users
  dataset::TrainTestSplit split;    // of top_log (train = adversary knowledge)
  // Held by pointer: proxies and benches keep pointers to the engine, so
  // it must stay at a stable address.
  std::unique_ptr<engine::Corpus> corpus;
  std::unique_ptr<engine::SearchEngine> engine;
};

struct TestbedConfig {
  std::uint64_t seed = 20170911;  // Middleware'17 submission era
  std::size_t num_users = 400;
  std::size_t total_queries = 60'000;
  std::size_t vocab_size = 8'000;
  std::size_t num_topics = 80;
  std::size_t top_n_users = 100;   // §5.1: 100 most active users
  std::size_t num_documents = 12'000;
};

inline std::unique_ptr<Testbed> make_testbed(const TestbedConfig& config = {}) {
  auto bed = std::make_unique<Testbed>();

  bed->log_config.seed = config.seed;
  bed->log_config.num_users = config.num_users;
  bed->log_config.total_queries = config.total_queries;
  bed->log_config.vocab_size = config.vocab_size;
  bed->log_config.num_topics = config.num_topics;

  bed->log = dataset::generate_synthetic_log(bed->log_config);
  bed->top_users = bed->log.most_active_users(config.top_n_users);
  bed->top_log = bed->log.filter_users(bed->top_users);
  bed->split = dataset::split_per_user(bed->top_log, 2.0 / 3.0);

  engine::CorpusConfig corpus_config;
  corpus_config.seed = config.seed ^ 0xd0c5;
  corpus_config.num_documents = config.num_documents;
  bed->corpus = std::make_unique<engine::Corpus>(bed->log, corpus_config);
  bed->engine = std::make_unique<engine::SearchEngine>(*bed->corpus);

  std::printf("# testbed: seed=%llu users=%zu queries=%zu top=%zu docs=%zu "
              "train=%zu test=%zu\n",
              static_cast<unsigned long long>(config.seed), config.num_users,
              config.total_queries, config.top_n_users, config.num_documents,
              bed->split.train.size(), bed->split.test.size());
  return bed;
}

}  // namespace xsearch::bench
