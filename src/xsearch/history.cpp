#include "xsearch/history.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "common/check.hpp"

namespace xsearch::core {

namespace {

// C = clamp(x / kWindowsPerChunk, 1, kMaxChunkEntries): a window holds at
// least 64 chunks, and no chunk more than 1024 entries.
constexpr std::size_t kWindowsPerChunk = 64;
constexpr std::size_t kMaxChunkEntries = 1024;

// Histories a thread keeps a snapshot of (a dispatch worker of a fleet
// samples one per worker proxy).
constexpr std::size_t kReaderSlots = 8;

// Takes `mutex`, spinning briefly before blocking: the writer's critical
// section is one segment's copy, far shorter than a futex sleep and wake,
// so a contended add should wait for the holder, not for the scheduler.
void lock_spinning(Mutex& mutex) XS_ACQUIRE(mutex) XS_NO_THREAD_SAFETY_ANALYSIS {
  for (int spin = 0; spin < 100; ++spin) {
    if (mutex.try_lock()) return;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  mutex.lock();
}

// The partial Fisher–Yates shuffle's sparse displacement map: position →
// the position a swap moved there, for the positions the draws touched.
// Open addressing (linear probing) over a power-of-two table kept at most
// half full, so a draw costs no allocation.
class Displacements {
 public:
  explicit Displacements(std::size_t draws) {
    rehash(std::bit_ceil(std::max<std::size_t>(4 * draws, 16)));
  }

  /// The position now at `position`: itself until a swap moved another in.
  [[nodiscard]] std::size_t at(std::size_t position) const {
    const Slot& slot = slots_[find(position)];
    return slot.key == kEmpty ? position : slot.value;
  }

  void put(std::size_t position, std::size_t value) {
    Slot& slot = slots_[find(position)];
    const bool fresh = slot.key == kEmpty;
    slot = {position, value};
    if (fresh && 2 * ++used_ > slots_.size()) rehash(2 * slots_.size());
  }

 private:
  static constexpr std::size_t kEmpty = ~std::size_t{0};
  struct Slot {
    std::size_t key = kEmpty;
    std::size_t value = 0;
  };

  [[nodiscard]] std::size_t find(std::size_t key) const {
    std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (slots_[i].key != key && slots_[i].key != kEmpty) i = (i + 1) & (slots_.size() - 1);
    return i;
  }

  void rehash(std::size_t size) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(size));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) slots_[find(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64;
  std::size_t used_ = 0;
};

std::uint64_t next_history_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// The history's EPC account. Chunks hold it, so a chunk freed by a reader
// thread's snapshot after the history is gone still has somewhere to
// release to; the history's destructor detaches it from the accountant,
// which may die with the history.
class QueryHistory::Ledger {
 public:
  explicit Ledger(sgx::EpcAccountant* epc) : epc_(epc) {}

  void charge(std::size_t bytes) {
    MutexLock lock(mutex_);
    bytes_ += bytes;
    if (epc_ != nullptr) epc_->charge(bytes);
  }

  void release(std::size_t bytes) {
    MutexLock lock(mutex_);
    bytes_ -= bytes;
    if (epc_ != nullptr) epc_->release(bytes);
  }

  [[nodiscard]] std::size_t bytes() const {
    MutexLock lock(mutex_);
    return bytes_;
  }

  /// Releases what is still charged (chunks pinned by snapshots) and stops
  /// forwarding to the accountant.
  void detach() {
    MutexLock lock(mutex_);
    if (epc_ != nullptr && bytes_ > 0) epc_->release(bytes_);
    epc_ = nullptr;
    detached_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool detached() const { return detached_.load(std::memory_order_relaxed); }

 private:
  mutable Mutex mutex_;
  sgx::EpcAccountant* epc_ XS_GUARDED_BY(mutex_);
  std::size_t bytes_ XS_GUARDED_BY(mutex_) = 0;
  std::atomic<bool> detached_{false};
};

QueryHistory::Chunk::Chunk(std::size_t charged, std::shared_ptr<Ledger> ledger)
    : charged_(charged), ledger_(std::move(ledger)) {}

QueryHistory::Chunk::~Chunk() { ledger_->release(charged_); }

QueryHistory::QueryHistory(std::size_t capacity, sgx::EpcAccountant* epc)
    : capacity_(capacity),
      per_chunk_(std::clamp(capacity / kWindowsPerChunk, std::size_t{1}, kMaxChunkEntries)),
      id_(next_history_id()),
      ledger_(std::make_shared<Ledger>(epc)),
      list_(std::make_shared<const ChunkList>()) {
  XS_CHECK(capacity_ > 0, "a history window holds at least one entry");
}

QueryHistory::~QueryHistory() {
  // Chunks no snapshot pins are freed (and released) here; the detach
  // releases the rest.
  list_.reset();
  ledger_->detach();
}

std::shared_ptr<QueryHistory::Chunk> QueryHistory::make_chunk(std::size_t arena) const {
  // One allocation: the chunk, its C entry views, then its arena.
  static_assert(sizeof(Chunk) % alignof(std::string_view) == 0);
  const std::size_t bytes = chunk_header_bytes() + arena;
  Chunk* chunk = new (::operator new(bytes)) Chunk(bytes, ledger_);
  ledger_->charge(bytes);
  return std::shared_ptr<Chunk>(chunk, [](Chunk* c) {
    c->~Chunk();
    ::operator delete(c);
  });
}

template <typename Str>
void QueryHistory::insert(std::span<const Str> queries) {
  // Entries this very call would evict never go in: only the last
  // capacity_ of the batch survive it.
  if (queries.size() > capacity_) queries = queries.last(capacity_);
  if (queries.empty()) return;

  std::shared_ptr<const ChunkList> retired;  // freed after the lock is dropped
  lock_spinning(mutex_);
  MutexLock lock(mutex_, std::adopt_lock);
  std::uint64_t total = total_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<Chunk>> opened;
  // The newest chunk, full or open; cursor_ and room_ are its current block.
  Chunk* last = list_->chunks.empty() ? nullptr : list_->chunks.back().get();
  for (std::size_t i = 0; i < queries.size();) {
    // The segment that goes into one chunk is copied into one block.
    const auto filled = static_cast<std::size_t>(total % per_chunk_);
    const std::size_t count = std::min(per_chunk_ - filled, queries.size() - i);
    const auto segment = queries.subspan(i, count);
    std::size_t bytes = 0;
    for (const Str& query : segment) bytes += query.size();
    if (filled == 0 || bytes > room_) {
      // A new block: the arena of the chunk the segment opens, or an
      // overflow block of the open chunk. Beyond the segment it reserves,
      // for each slot the segment leaves empty, the average entry size of
      // the newest chunk so far and the segment, so live adds into it
      // seldom need another.
      std::size_t block = bytes;
      if (const std::size_t empty = per_chunk_ - filled - count; empty > 0) {
        std::size_t seen_bytes = bytes;
        std::size_t seen = count;
        if (last != nullptr) {
          seen_bytes += last->charged_ - chunk_header_bytes() - room_;
          seen += filled == 0 ? per_chunk_ : filled;
        }
        block += empty * ((seen_bytes + seen - 1) / seen);
      }
      if (filled == 0) {
        opened.push_back(make_chunk(block));
        last = opened.back().get();
        cursor_ = reinterpret_cast<char*>(last) + chunk_header_bytes();
      } else {
        last->overflow_.push_back(std::unique_ptr<char[]>(new char[block]));
        cursor_ = last->overflow_.back().get();
        last->charged_ += block;
        ledger_->charge(block);
      }
      room_ = block;
    }
    std::string_view* slot = last->views() + filled;
    for (const Str& query : segment) {
      const std::size_t size = query.size();
      if (size > 0) std::memcpy(cursor_, query.data(), size);
      new (slot++) std::string_view(cursor_, size);
      cursor_ += size;
    }
    room_ -= bytes;
    total += count;
    i += count;
  }

  // Drop the chunks whose entries all left the window, and publish the new
  // list before the counter that needs it.
  const std::uint64_t window_begin = total - std::min<std::uint64_t>(total, capacity_);
  const std::uint64_t first = std::max(list_->first, window_begin / per_chunk_);
  if (!opened.empty() || first != list_->first) {
    auto next = std::make_shared<ChunkList>();
    next->first = first;
    next->chunks.reserve(list_->chunks.size() + opened.size());
    next->chunks.assign(list_->chunks.begin() + static_cast<std::ptrdiff_t>(first - list_->first),
                        list_->chunks.end());
    for (auto& chunk : opened) next->chunks.push_back(std::move(chunk));
    retired = std::exchange(list_, std::move(next));
  }
  total_.store(total, std::memory_order_release);
}

void QueryHistory::add(std::string_view query) {
  insert(std::span<const std::string_view>(&query, 1));
}

void QueryHistory::add_all(std::span<const std::string> queries) { insert(queries); }

void QueryHistory::add_all(std::span<const std::string_view> queries) { insert(queries); }

QueryHistory::Window QueryHistory::window() const {
  struct Slot {
    std::uint64_t owner = 0;    // history id, 0 when empty
    std::uint64_t covered = 0;  // entries the list's chunks span from 0
    std::uint64_t used = 0;     // per-thread LRU stamp
    std::shared_ptr<const ChunkList> list;
  };
  struct Slots {
    std::array<Slot, kReaderSlots> slots;
    std::uint64_t clock = 0;
  };
  thread_local Slots reader;

  std::uint64_t total = total_.load(std::memory_order_acquire);
  if (total == 0) return {};
  const auto window_of = [this](const Slot& slot, std::uint64_t end) {
    return Window{slot.list.get(), end,
                  static_cast<std::size_t>(std::min<std::uint64_t>(end, capacity_))};
  };
  ++reader.clock;
  Slot* slot = nullptr;
  for (Slot& s : reader.slots) {
    if (s.owner == id_) {
      slot = &s;
      break;
    }
  }
  if (slot != nullptr && total <= slot->covered) {
    slot->used = reader.clock;
    return window_of(*slot, total);
  }

  // Refresh (once per chunk the writer opens). Snapshots of histories that
  // no longer exist are let go first, then this history's slot, or the
  // least recently used one, takes the current list.
  for (Slot& s : reader.slots) {
    if (s.list != nullptr && s.list->chunks.front()->ledger_->detached()) s = Slot{};
  }
  if (slot == nullptr) {
    slot = &*std::min_element(reader.slots.begin(), reader.slots.end(),
                              [](const Slot& a, const Slot& b) { return a.used < b.used; });
  }
  const std::shared_ptr<const ChunkList> old = std::move(slot->list);  // freed unlocked
  {
    MutexLock lock(mutex_);
    slot->list = list_;
    total = total_.load(std::memory_order_relaxed);
  }
  slot->owner = id_;
  slot->covered = (slot->list->first + slot->list->chunks.size()) * per_chunk_;
  slot->used = reader.clock;
  return window_of(*slot, total);
}

const std::string_view* QueryHistory::at(const Window& window, std::size_t position) const {
  const std::uint64_t entry = window.end - window.count + position;
  const Chunk& chunk = *window.list->chunks[entry / per_chunk_ - window.list->first];
  return chunk.views() + entry % per_chunk_;
}

std::vector<std::string> QueryHistory::sample(
    std::size_t k, Rng& rng, std::optional<std::string_view> exclude) const {
  std::vector<std::string> out;
  if (k == 0) return out;
  const Window w = window();
  const std::size_t count = w.count;
  if (count == 0) return out;
  out.reserve(std::min(k, count));
  const auto excluded = [&](std::string_view entry) { return exclude && entry == *exclude; };

  if (k >= count) {
    // Degenerate window: return everything we have (shuffled).
    for (std::size_t i = 0; i < count; ++i) {
      const std::string_view entry = *at(w, i);
      if (!excluded(entry)) out.emplace_back(entry);
    }
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[rng.uniform(i)]);
    }
    return out;
  }

  // Sample distinct logical positions (0 = oldest in the window) with a
  // partial Fisher–Yates shuffle over a sparse displacement map: O(k) draws
  // regardless of how close k is to count (rejection sampling degraded
  // toward O(k·count) there). A draw of an excluded entry is discarded and
  // the shuffle continues, so the window yields k picks or runs out. The
  // first k draws are made before any of their entries is read, so the
  // cache misses overlap; draws and picks are the one-at-a-time loop's.
  Displacements displaced(k);
  std::size_t drawn = 0;
  const auto draw = [&] {
    const std::size_t j = drawn + static_cast<std::size_t>(rng.uniform(count - drawn));
    const std::size_t pick = displaced.at(j);
    displaced.put(j, displaced.at(drawn));
    ++drawn;
    return at(w, pick);
  };
  std::vector<const std::string_view*> first(k);
  for (const std::string_view*& view : first) {
    view = draw();
    __builtin_prefetch(view);
  }
  for (const std::string_view* view : first) __builtin_prefetch(view->data());
  for (const std::string_view* view : first) {
    if (!excluded(*view)) out.emplace_back(*view);
  }
  while (out.size() < k && drawn < count) {
    const std::string_view* view = draw();
    if (!excluded(*view)) out.emplace_back(*view);
  }
  return out;
}

QueryHistory::Entries QueryHistory::entries() const {
  Entries out;
  MutexLock lock(mutex_);
  out.list_ = list_;
  out.end_ = total_.load(std::memory_order_relaxed);
  out.begin_ = out.end_ - std::min<std::uint64_t>(out.end_, capacity_);
  out.per_chunk_ = per_chunk_;
  return out;
}

std::vector<std::string> QueryHistory::snapshot() const {
  return with_entries([](const Entries& entries) {
    std::vector<std::string> out;
    out.reserve(entries.size());
    entries.for_each([&out](std::string_view entry) { out.emplace_back(entry); });
    return out;
  });
}

std::size_t QueryHistory::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total_.load(std::memory_order_acquire), capacity_));
}

std::size_t QueryHistory::resident() const {
  MutexLock lock(mutex_);
  if (list_->chunks.empty()) return 0;
  return static_cast<std::size_t>(total_.load(std::memory_order_relaxed) -
                                  list_->first * per_chunk_);
}

std::size_t QueryHistory::memory_bytes() const { return ledger_->bytes(); }

}  // namespace xsearch::core
