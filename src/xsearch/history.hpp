// In-enclave table of past queries.
//
// The obfuscation mechanism draws its fake queries from "a table containing
// the last x past queries" kept "in the private memory of the X-Search
// proxy ... shared among all threads" with *no association to user
// identities* (paper §4.1, §4.3). The size bound x makes the table a
// sliding window so it fits the ~90 MiB EPC (Figure 6).
//
// Every byte the table holds is charged against the enclave's
// EpcAccountant, which is how the Figure 6 bench measures occupancy.
//
// Locking is reader/writer: `sample` (the per-query hot path, k string
// copies) takes a shared lock so concurrent sessions sample in parallel;
// only `add` (one string move plus O(1) accounting) takes the exclusive
// lock. The previous single mutex serialized every session's sampling.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "sgx/epc.hpp"

namespace xsearch::core {

class QueryHistory {
 public:
  /// `capacity` is the window size x; `epc` (optional) meters memory.
  explicit QueryHistory(std::size_t capacity, sgx::EpcAccountant* epc = nullptr);
  ~QueryHistory();

  QueryHistory(const QueryHistory&) = delete;
  QueryHistory& operator=(const QueryHistory&) = delete;

  /// Inserts a query, evicting the oldest once the window is full.
  /// Thread-safe (exclusive lock).
  void add(std::string_view query);

  /// Samples `k` past queries uniformly at random (with replacement across
  /// calls, without replacement within one call when possible), skipping
  /// every entry whose text equals `exclude` — pass the real query, which
  /// must never be its own decoy. Returns fewer than `k` when the table
  /// holds fewer other entries. Thread-safe, and concurrent samples proceed
  /// in parallel (shared lock).
  [[nodiscard]] std::vector<std::string> sample(
      std::size_t k, Rng& rng, std::optional<std::string_view> exclude = std::nullopt) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// All live entries, oldest first (for sealed checkpoints). Thread-safe.
  [[nodiscard]] std::vector<std::string> snapshot() const;

  /// Estimated bytes of enclave memory held by the table.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Accounting estimate for one stored query string: the string object,
  /// its heap buffer, and the ring slot bookkeeping.
  [[nodiscard]] static std::size_t entry_bytes(const std::string& s) {
    return sizeof(std::string) + s.capacity() + 1;
  }

  const std::size_t capacity_;
  sgx::EpcAccountant* epc_;

  mutable SharedMutex mutex_;
  std::vector<std::string> ring_ XS_GUARDED_BY(mutex_);
  // Exact bytes charged for each slot. std::string assignment may keep or
  // swap buffers, so the amount to release on eviction must be remembered,
  // not recomputed from the slot's current capacity.
  std::vector<std::size_t> charged_ XS_GUARDED_BY(mutex_);
  std::size_t head_ XS_GUARDED_BY(mutex_) = 0;   // next insert position
  std::size_t count_ XS_GUARDED_BY(mutex_) = 0;  // live entries
  std::size_t bytes_ XS_GUARDED_BY(mutex_) = 0;  // current accounting total
};

}  // namespace xsearch::core
