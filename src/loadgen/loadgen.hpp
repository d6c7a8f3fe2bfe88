// Open-loop constant-throughput load generator (wrk2-style).
//
// The paper measures Figure 5 with wrk2, which fixes the *offered* request
// rate and measures latency from each request's scheduled send time — the
// discipline that avoids coordinated omission (a closed-loop generator
// would slow down with the server and hide queueing delay). This module
// reproduces that: a dispatcher emits requests on a fixed schedule into a
// bounded queue served by a worker pool, and per-request latency is
// completion_time - scheduled_time.
#pragma once

#include <cstdint>
#include <functional>

#include "common/clock.hpp"
#include "common/histogram.hpp"

namespace xsearch::loadgen {

struct LoadConfig {
  /// Offered request rate (requests/second).
  double target_rps = 1000.0;
  /// Measurement duration.
  Nanos duration = 500 * kMilli;
  /// Server worker threads consuming the queue.
  std::size_t workers = 4;
  /// Pending-request queue capacity; overflowing requests are dropped and
  /// counted (a saturated real server would reset connections similarly).
  std::size_t queue_capacity = 1 << 16;
};

struct LoadReport {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  Histogram latency;  // nanoseconds, scheduled-send to completion

  [[nodiscard]] double p50_ms() const {
    return static_cast<double>(latency.percentile(50)) / static_cast<double>(kMilli);
  }
  [[nodiscard]] double p99_ms() const {
    return static_cast<double>(latency.percentile(99)) / static_cast<double>(kMilli);
  }
  [[nodiscard]] double mean_ms() const {
    return latency.mean() / static_cast<double>(kMilli);
  }
};

/// Runs `handler` under the configured offered load and reports latency.
/// `handler` is invoked concurrently from `config.workers` threads, each
/// passing its own worker index in [0, workers) — so a caller can give each
/// worker a client of its own — and must be thread-safe across workers.
[[nodiscard]] LoadReport run_open_loop(
    const std::function<void(std::size_t worker)>& handler,
    const LoadConfig& config);

}  // namespace xsearch::loadgen
