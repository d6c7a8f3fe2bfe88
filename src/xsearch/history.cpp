#include "xsearch/history.hpp"

#include <algorithm>
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

void QueryHistory::add(std::string_view query) {
  WriterLock lock(mutex_);
  std::string incoming(query);

  if (count_ < capacity_) {
    // Growing phase: the slot and its contents are newly enclave-resident.
    ring_.push_back(std::move(incoming));
    const std::size_t new_bytes = entry_bytes(ring_.back());
    charged_.push_back(new_bytes);
    bytes_ += new_bytes;
    if (epc_) epc_->charge(new_bytes);
    ++count_;
    head_ = (head_ + 1) % capacity_;
  } else {
    // Sliding phase: evict the oldest entry (the slot head_ points at),
    // releasing exactly what that slot was charged for.
    std::string& slot = ring_[head_];
    const std::size_t old_bytes = charged_[head_];
    slot = std::move(incoming);
    const std::size_t new_bytes = entry_bytes(slot);
    charged_[head_] = new_bytes;
    if (epc_) {
      epc_->release(old_bytes);
      epc_->charge(new_bytes);
    }
    bytes_ += new_bytes;
    bytes_ -= old_bytes;
    head_ = (head_ + 1) % capacity_;
  }
}

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

std::vector<std::string> QueryHistory::snapshot() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(count_);
  if (count_ < capacity_) {
    // Still growing: insertion order is vector order.
    out.assign(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(count_));
  } else {
    // Full ring: head_ points at the oldest entry.
    for (std::size_t i = 0; i < count_; ++i) {
      out.push_back(ring_[(head_ + i) % capacity_]);
    }
  }
  return out;
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
