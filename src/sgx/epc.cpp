#include "sgx/epc.hpp"

namespace xsearch::sgx {

void EpcAccountant::charge(std::size_t bytes) {
  const std::size_t before = in_use_.fetch_add(bytes, std::memory_order_relaxed);
  const std::size_t after = before + bytes;

  // Maintain the high-water mark.
  std::size_t seen = peak_.load(std::memory_order_relaxed);
  while (after > seen &&
         !peak_.compare_exchange_weak(seen, after, std::memory_order_relaxed)) {
  }

  // Pages newly pushed beyond the usable limit count as faults. Both sides
  // round up: a partial page beyond the limit was counted when it was
  // first touched, so a charge that ends inside it adds nothing. That
  // makes the count additive — one charge of a + b faults as many pages as
  // a charge of a followed by a charge of b.
  if (after > limit_) {
    const auto pages = [](std::size_t over) -> std::uint64_t {
      return (over + kEpcPageSize - 1) / kEpcPageSize;
    };
    const std::uint64_t pages_before = pages(before > limit_ ? before - limit_ : 0);
    const std::uint64_t pages_after = pages(after - limit_);
    if (pages_after > pages_before) {
      page_faults_.fetch_add(pages_after - pages_before, std::memory_order_relaxed);
    }
  }
}

void EpcAccountant::release(std::size_t bytes) {
  std::size_t current = in_use_.load(std::memory_order_relaxed);
  std::size_t desired;
  do {
    desired = current >= bytes ? current - bytes : 0;
  } while (!in_use_.compare_exchange_weak(current, desired, std::memory_order_relaxed));
}

}  // namespace xsearch::sgx
