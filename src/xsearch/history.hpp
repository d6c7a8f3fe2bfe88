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
// only inserts take the exclusive lock. A single `add` is the one-entry
// case of `add_all`, which loads a whole batch (a warm-up, a restored
// checkpoint) under one lock with one EPC charge: the lock and the
// accounting are paid once per batch, not once per entry.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
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

  /// Inserts `queries` in order, as the same number of `add` calls would,
  /// under one exclusive lock. Entries the batch itself would evict (all
  /// but the last `capacity()`) are skipped. The window's contents, order
  /// and charged bytes equal the one-at-a-time result; the EPC sees one
  /// release and one charge for the batch.
  void add_all(std::span<const std::string> queries);
  void add_all(std::span<const std::string_view> queries);

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

  /// The live entries, oldest first, as the ring's two contiguous runs.
  struct Entries {
    std::span<const std::string> older;  // oldest entry .. end of the ring
    std::span<const std::string> newer;  // start of the ring .. newest entry

    [[nodiscard]] std::size_t size() const { return older.size() + newer.size(); }
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const std::string& entry : older) fn(entry);
      for (const std::string& entry : newer) fn(entry);
    }
  };

  /// Returns `fn(entries)` for the live entries, oldest first, read under
  /// one shared lock and without copying them (sealed checkpoints serialize
  /// straight from the ring). The views die with the call, and `fn` must
  /// not call back into this history.
  template <typename Fn>
  decltype(auto) with_entries(Fn&& fn) const {
    ReaderLock lock(mutex_);
    return std::forward<Fn>(fn)(entries());
  }

  /// All live entries, oldest first. Thread-safe.
  [[nodiscard]] std::vector<std::string> snapshot() const;

  /// Estimated bytes of enclave memory held by the table.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Accounting estimate for one stored query string: the string object,
  /// its heap buffer, and the ring slot bookkeeping.
  [[nodiscard]] static std::size_t entry_bytes(const std::string& s) {
    return sizeof(std::string) + s.capacity() + 1;
  }

  /// The one insert routine behind `add` and both `add_all`s.
  template <typename Str>
  void insert(std::span<const Str> queries);

  /// The only place that knows the ring order.
  [[nodiscard]] Entries entries() const XS_REQUIRES_SHARED(mutex_);

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
