#include "api/client.hpp"

namespace xsearch::api {

PrivateSearchClient::PrivateSearchClient(ClientConfig config)
    : config_(config) {}

Status PrivateSearchClient::connect() {
  MutexLock lock(sync_mutex_);
  const Status status = do_connect();
  if (status.is_ok()) connects_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

void PrivateSearchClient::close() {
  MutexLock lock(sync_mutex_);
  do_close();
}

Result<SearchResults> PrivateSearchClient::search(std::string_view query) {
  return search(query, 0);
}

Result<SearchResults> PrivateSearchClient::search(std::string_view query,
                                                  std::size_t top_k) {
  MutexLock lock(sync_mutex_);
  if (!connected()) {
    XS_RETURN_IF_ERROR(do_connect());
    connects_.fetch_add(1, std::memory_order_relaxed);
  }
  auto result = do_search(query, resolve_top_k(top_k));
  searches_.fetch_add(1, std::memory_order_relaxed);
  if (!result.is_ok()) failures_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

std::vector<Result<SearchResults>> PrivateSearchClient::search_batch(
    std::vector<BatchQuery> queries) {
  std::vector<Result<SearchResults>> outcomes;
  if (queries.empty()) return outcomes;
  for (auto& q : queries) q.top_k = resolve_top_k(q.top_k);

  MutexLock lock(sync_mutex_);
  if (!connected()) {
    if (const Status status = do_connect(); !status.is_ok()) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        outcomes.emplace_back(status);
      }
      failures_.fetch_add(queries.size(), std::memory_order_relaxed);
      searches_.fetch_add(queries.size(), std::memory_order_relaxed);
      return outcomes;
    }
    connects_.fetch_add(1, std::memory_order_relaxed);
  }
  outcomes = do_search_batch(queries);
  searches_.fetch_add(outcomes.size(), std::memory_order_relaxed);
  for (const auto& outcome : outcomes) {
    if (!outcome.is_ok()) failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return outcomes;
}

std::vector<Result<SearchResults>> PrivateSearchClient::do_search_batch(
    const std::vector<BatchQuery>& queries) {
  // Mechanisms without a batched wire format just loop; the batch still
  // pays connect once.
  std::vector<Result<SearchResults>> outcomes;
  outcomes.reserve(queries.size());
  for (const auto& q : queries) {
    outcomes.push_back(do_search(q.query, q.top_k));
  }
  return outcomes;
}

Status PrivateSearchClient::prime(const std::vector<std::string>&) {
  return Status::ok();
}

Stats PrivateSearchClient::stats() const {
  Stats out;
  out.connects = connects_.load(std::memory_order_relaxed);
  out.searches = searches_.load(std::memory_order_relaxed);
  out.failures = failures_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace xsearch::api
