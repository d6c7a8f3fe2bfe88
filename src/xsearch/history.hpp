// In-enclave table of past queries.
//
// The obfuscation mechanism draws its fake queries from "a table containing
// the last x past queries" kept "in the private memory of the X-Search
// proxy ... shared among all threads" with *no association to user
// identities* (paper §4.1, §4.3). The size bound x makes the table a
// sliding window so it fits the ~90 MiB EPC (Figure 6).
//
// Layout: the window is a list of fixed-count chunks. Chunk n holds entries
// n·C .. n·C + C − 1 of the insertion sequence, with C derived from the
// window, C = clamp(x / 64, 1, 1024), so windows under 128 entries evict
// entry by entry. A chunk's bytes sit in arena blocks it owns: one block
// allocated with the chunk (sized exactly by a bulk load, so a warm-up or a
// restore is one copy per chunk and no per-entry allocation), plus overflow
// blocks when single adds outgrow it. A published entry never moves. A
// chunk is dropped once all of its entries are older than the last x, so
// at most x + C − 1 entries are resident.
//
// Writes (`add`, `add_all`) append under one writer mutex and publish a
// total-inserted counter with release ordering. Reads take no lock: a
// sampler keeps a per-thread snapshot of the chunk list, keyed by the
// history's instance id and refreshed (under the writer mutex) only when
// the counter runs past the chunks it covers. A sample loads the counter
// and draws from exactly the last x entries, the open chunk's published
// prefix included, and writes no shared cache line. A stale snapshot pins
// the chunks it holds until that thread samples this history again
// (ARCHITECTURE.md gives the bound).
//
// Every chunk allocation is charged to the enclave's EpcAccountant when it
// is made and released when its memory is freed, which is how the Figure 6
// bench measures occupancy.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// `capacity` is the window size x (must be > 0, checked in every build);
  /// `epc` (optional) meters memory.
  explicit QueryHistory(std::size_t capacity, sgx::EpcAccountant* epc = nullptr);
  ~QueryHistory();

  QueryHistory(const QueryHistory&) = delete;
  QueryHistory& operator=(const QueryHistory&) = delete;

  /// Inserts a query; the oldest entry leaves the window once it is full.
  /// Thread-safe (writer mutex).
  void add(std::string_view query);

  /// Inserts `queries` in order, as the same number of `add` calls would,
  /// under one writer lock. Entries the batch itself would evict (all but
  /// the last `capacity()`) are skipped. The window's contents and order
  /// equal the one-at-a-time result; each chunk the batch opens holds its
  /// entries in one exactly sized block.
  void add_all(std::span<const std::string> queries);
  void add_all(std::span<const std::string_view> queries);

  /// Samples `k` past queries uniformly at random from the last x (with
  /// replacement across calls, without replacement within one call when
  /// possible), skipping every entry whose text equals `exclude` — pass the
  /// real query, which must never be its own decoy. Returns fewer than `k`
  /// when the window holds fewer other entries. Thread-safe and lock-free
  /// on the reader side.
  [[nodiscard]] std::vector<std::string> sample(
      std::size_t k, Rng& rng, std::optional<std::string_view> exclude = std::nullopt) const;

  /// Entries in the window: min(inserted, x).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Entries per chunk, C.
  [[nodiscard]] std::size_t chunk_entries() const { return per_chunk_; }
  /// Entries held by the live chunks: the window plus the evicted part of
  /// its oldest chunk, at most x + C − 1.
  [[nodiscard]] std::size_t resident() const;

 private:
  class Ledger;

  // C entry views into arena blocks the chunk owns; the views follow the
  // chunk in its allocation, so a reader finds an entry without reading
  // the chunk. The writer fills entries in order; readers read only
  // entries the published counter covers, so they never touch the
  // writer's fields.
  class Chunk {
   public:
    [[nodiscard]] const std::string_view* views() const {
      return reinterpret_cast<const std::string_view*>(this + 1);
    }
    [[nodiscard]] std::span<const std::string_view> entries(std::size_t from,
                                                            std::size_t to) const {
      return {views() + from, to - from};
    }

   private:
    friend class QueryHistory;
    Chunk(std::size_t charged, std::shared_ptr<Ledger> ledger);
    ~Chunk();

    [[nodiscard]] std::string_view* views() { return reinterpret_cast<std::string_view*>(this + 1); }

    std::size_t charged_;  // EPC bytes this chunk holds (writer grows it)
    std::vector<std::unique_ptr<char[]>> overflow_;  // writer-grown blocks
    std::shared_ptr<Ledger> ledger_;
  };

  // An immutable list of consecutive chunks: chunk `first + i` is
  // `chunks[i]`. The writer publishes a new list whenever it adds or drops
  // a chunk.
  struct ChunkList {
    std::uint64_t first = 0;
    std::vector<std::shared_ptr<Chunk>> chunks;
  };

 public:
  /// The live window, oldest first, pinned for as long as this object
  /// lives.
  class Entries {
   public:
    [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }

    /// Calls `fn(std::string_view)` for each entry, oldest first.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::uint64_t at = begin_; at < end_;) {
        const std::size_t from = static_cast<std::size_t>(at % per_chunk_);
        const std::size_t to = static_cast<std::size_t>(
            std::min<std::uint64_t>(per_chunk_, from + (end_ - at)));
        const Chunk& chunk = *list_->chunks[at / per_chunk_ - list_->first];
        for (const std::string_view entry : chunk.entries(from, to)) fn(entry);
        at += to - from;
      }
    }

   private:
    friend class QueryHistory;
    std::shared_ptr<const ChunkList> list_;
    std::uint64_t begin_ = 0;
    std::uint64_t end_ = 0;
    std::size_t per_chunk_ = 1;
  };

  /// Returns `fn(entries)` for the live window, oldest first, without
  /// copying it (sealed checkpoints serialize straight from the chunks).
  /// The window is taken under the writer mutex and read outside it.
  template <typename Fn>
  decltype(auto) with_entries(Fn&& fn) const {
    return std::forward<Fn>(fn)(entries());
  }

  /// All live entries, oldest first. Thread-safe.
  [[nodiscard]] std::vector<std::string> snapshot() const;

  /// Bytes of enclave memory held by the table's chunks, those pinned by a
  /// reader's snapshot included; equals what it has charged to the EPC.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // What one sample reads: the window [end - count, end) in the calling
  // thread's chunk-list snapshot.
  struct Window {
    const ChunkList* list = nullptr;
    std::uint64_t end = 0;
    std::size_t count = 0;
  };

  /// The one insert routine behind `add` and both `add_all`s.
  template <typename Str>
  void insert(std::span<const Str> queries);

  /// Bytes of a chunk before its arena: the chunk and its C views.
  [[nodiscard]] std::size_t chunk_header_bytes() const {
    return sizeof(Chunk) + per_chunk_ * sizeof(std::string_view);
  }
  /// A chunk with `arena` bytes of inline arena, charged to the ledger.
  [[nodiscard]] std::shared_ptr<Chunk> make_chunk(std::size_t arena) const;

  /// The calling thread's view of the window; refreshes its snapshot when
  /// the published counter has outrun it.
  [[nodiscard]] Window window() const;
  /// The view of the entry at logical `position` (0 = oldest) of `window`.
  [[nodiscard]] const std::string_view* at(const Window& window, std::size_t position) const;

  [[nodiscard]] Entries entries() const;

  const std::size_t capacity_;
  const std::size_t per_chunk_;  // C
  const std::uint64_t id_;       // keys the per-thread snapshots
  const std::shared_ptr<Ledger> ledger_;

  // What every insert writes sits on the mutex's cache line: the published
  // counter (entries ever inserted) and the newest chunk's current block.
  alignas(64) mutable Mutex mutex_;
  std::atomic<std::uint64_t> total_{0};
  char* cursor_ XS_GUARDED_BY(mutex_) = nullptr;  // next free byte of the block
  std::size_t room_ XS_GUARDED_BY(mutex_) = 0;    // bytes left at cursor_
  std::shared_ptr<const ChunkList> list_ XS_GUARDED_BY(mutex_);
};

}  // namespace xsearch::core
