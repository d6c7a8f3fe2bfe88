// Time sources.
//
// `WallClock` wraps std::chrono::steady_clock for real measurements
// (figure-5 throughput bench). `VirtualClock` is a manually advanced
// nanosecond counter used by the discrete-event network simulation
// (figure-7 end-to-end latency bench) so results are fully deterministic.
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

/// Deterministic, manually advanced clock for discrete-event simulation.
class VirtualClock {
 public:
  [[nodiscard]] Nanos now() const { return now_; }

  /// Advances time forward; `delta` must be non-negative.
  void advance(Nanos delta) {
    if (delta > 0) now_ += delta;
  }

  /// Jumps to an absolute time, never moving backwards.
  void advance_to(Nanos t) {
    if (t > now_) now_ = t;
  }

 private:
  Nanos now_ = 0;
};

/// RAII stopwatch around wall_now().
class Stopwatch {
 public:
  Stopwatch() : start_(wall_now()) {}
  [[nodiscard]] Nanos elapsed() const { return wall_now() - start_; }
  void restart() { start_ = wall_now(); }

 private:
  Nanos start_;
};

}  // namespace xsearch
