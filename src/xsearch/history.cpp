#include "xsearch/history.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>
#include <utility>

namespace xsearch::core {

QueryHistory::QueryHistory(std::size_t capacity, sgx::EpcAccountant* epc)
    : capacity_(capacity), epc_(epc) {
  assert(capacity_ > 0);
}

QueryHistory::~QueryHistory() {
  if (epc_) epc_->release(bytes_);
}

template <typename Str>
void QueryHistory::insert(std::span<const Str> queries) {
  // Entries this very call would evict never go in: only the last
  // capacity_ of the batch survive it.
  if (queries.size() > capacity_) queries = queries.last(capacity_);
  if (queries.empty()) return;

  WriterLock lock(mutex_);
  // Reserve once for the batch, bounded by the window. Growth stays
  // geometric with headroom, so the first live add after a warm-up does
  // not move the whole ring.
  const std::size_t needed = std::min(capacity_, count_ + queries.size());
  if (needed > ring_.capacity()) {
    const std::size_t target =
        std::min(capacity_, std::max(std::bit_ceil(needed), 2 * ring_.capacity()));
    ring_.reserve(target);
    charged_.reserve(target);
  }

  std::size_t charged = 0;
  std::size_t released = 0;
  for (const Str& query : queries) {
    if (count_ < capacity_) {
      // Growing phase: the slot and its contents are newly enclave-resident.
      ring_.emplace_back(query);
      charged_.push_back(entry_bytes(ring_.back()));
      charged += charged_.back();
      ++count_;
    } else {
      // Sliding phase: evict the oldest entry (the slot head_ points at),
      // releasing exactly what that slot was charged for. Swapping in a
      // fresh string frees the evicted buffer (move-assigning a short
      // string would keep it), so a slot's size depends on its entry
      // alone and a batch that skips entries ends where the loop would.
      released += charged_[head_];
      std::string(query).swap(ring_[head_]);
      charged_[head_] = entry_bytes(ring_[head_]);
      charged += charged_[head_];
    }
    if (++head_ == capacity_) head_ = 0;
  }
  bytes_ = bytes_ + charged - released;
  if (epc_) {
    if (released > 0) epc_->release(released);
    epc_->charge(charged);
  }
}

void QueryHistory::add(std::string_view query) {
  insert(std::span<const std::string_view>(&query, 1));
}

void QueryHistory::add_all(std::span<const std::string> queries) { insert(queries); }

void QueryHistory::add_all(std::span<const std::string_view> queries) { insert(queries); }

std::vector<std::string> QueryHistory::sample(
    std::size_t k, Rng& rng, std::optional<std::string_view> exclude) const {
  ReaderLock lock(mutex_);
  std::vector<std::string> out;
  if (count_ == 0 || k == 0) return out;
  out.reserve(std::min(k, count_));
  const auto excluded = [&](const std::string& entry) { return exclude && entry == *exclude; };

  if (k >= count_) {
    // Degenerate window: return everything we have (shuffled).
    for (std::size_t i = 0; i < count_; ++i) {
      if (!excluded(ring_[i])) out.push_back(ring_[i]);
    }
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[rng.uniform(i)]);
    }
    return out;
  }

  // Sample distinct positions with a partial Fisher–Yates shuffle over a
  // sparse displacement map: O(k) draws regardless of how close k is to
  // count (rejection sampling degraded toward O(k·count) there). A draw of
  // an excluded entry is discarded and the shuffle continues, so the
  // window yields k picks or runs out.
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(k);
  for (std::size_t i = 0; i < count_ && out.size() < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform(count_ - i));
    const auto at_j = displaced.find(j);
    const std::size_t pick = at_j == displaced.end() ? j : at_j->second;
    const auto at_i = displaced.find(i);
    displaced[j] = at_i == displaced.end() ? i : at_i->second;
    if (!excluded(ring_[pick])) out.push_back(ring_[pick]);
  }
  return out;
}

QueryHistory::Entries QueryHistory::entries() const {
  // While the window grows head_ == count_, so `older` is empty and vector
  // order is insertion order; once full, head_ points at the oldest entry.
  const std::span<const std::string> live(ring_.data(), count_);
  return {live.subspan(head_), live.first(head_)};
}

std::vector<std::string> QueryHistory::snapshot() const {
  return with_entries([](const Entries& entries) {
    std::vector<std::string> out;
    out.reserve(entries.size());
    entries.for_each([&out](const std::string& entry) { out.push_back(entry); });
    return out;
  });
}

std::size_t QueryHistory::size() const {
  ReaderLock lock(mutex_);
  return count_;
}

std::size_t QueryHistory::memory_bytes() const {
  ReaderLock lock(mutex_);
  return bytes_;
}

}  // namespace xsearch::core
