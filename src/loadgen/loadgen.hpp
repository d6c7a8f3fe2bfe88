// Open-loop constant-throughput load generator (wrk2-style).
//
// The paper measures Figure 5 with wrk2, which fixes the *offered* request
// rate and measures latency from each request's scheduled send time — the
// discipline that avoids coordinated omission (a closed-loop generator
// would slow down with the server and hide queueing delay). This module
// reproduces that: a dispatcher emits requests on a fixed schedule into a
// bounded queue served by a worker pool, and per-request latency is
// completion_time - scheduled_time.
//
// `run_closed_loop` is the other discipline, for questions an offered rate
// cannot ask (how fast do C users go when each waits for its reply): C
// workers each issue the next request as soon as the previous one returns.
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
  /// Nanoseconds from each request's intended start to its completion:
  /// the scheduled send (open loop) or the previous reply (closed loop).
  Histogram latency;

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

/// Runs `handler` back to back on `workers` threads for `duration`: each
/// worker passes its own index in [0, workers) and starts its next call as
/// soon as the previous one returns, so a call's latency is measured from
/// its own start (its intended start — the previous reply released it).
/// No call starts after `duration`, so the run ends within `duration` plus
/// one handler call. `offered_rps` stays 0 and nothing is dropped.
[[nodiscard]] LoadReport run_closed_loop(
    const std::function<void(std::size_t worker)>& handler,
    std::size_t workers, Nanos duration);

}  // namespace xsearch::loadgen
