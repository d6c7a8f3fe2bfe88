// Time: nanosecond units and `wall_now()`, a monotonic clock read over
// std::chrono::steady_clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace xsearch {

/// Nanoseconds since an arbitrary epoch.
using Nanos = std::int64_t;

constexpr Nanos kMicro = 1'000;
constexpr Nanos kMilli = 1'000'000;
constexpr Nanos kSecond = 1'000'000'000;

/// Monotonic wall-clock time in nanoseconds.
[[nodiscard]] inline Nanos wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace xsearch
