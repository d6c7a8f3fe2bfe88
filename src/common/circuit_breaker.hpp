#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace xsearch {

/// Per-dependency circuit breaker: closed → open → half-open → closed.
///
/// A rolling window of the last `window` call outcomes trips the breaker
/// open when the failure ratio crosses `failure_ratio` (with at least
/// `min_samples` outcomes recorded, so one early failure cannot trip an
/// idle breaker). Open calls are rejected without touching the dependency;
/// after `open_cooldown` the breaker admits up to `half_open_probes` trial
/// calls. Any probe failure re-opens (and restarts the cooldown); all
/// probes succeeding closes the breaker with a cleared window.
///
/// Callers pair one `allow()` with one `record_success()`/`record_failure()`
/// per attempt. Time is injectable (`Options::now`) so tests and the chaos
/// harness step breaker state deterministically instead of sleeping.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Options {
    std::uint32_t window = 16;
    std::uint32_t min_samples = 4;
    double failure_ratio = 0.5;
    Nanos open_cooldown = 50 * kMilli;
    std::uint32_t half_open_probes = 2;
    /// Time source; defaults to the steady clock.
    std::function<Nanos()> now;
  };

  CircuitBreaker() : CircuitBreaker(Options{}) {}
  explicit CircuitBreaker(Options options);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// May this attempt proceed? Open breakers transition to half-open once
  /// the cooldown has elapsed; half-open admits a bounded number of probes.
  [[nodiscard]] bool allow();

  void record_success();
  void record_failure();

  [[nodiscard]] State state() const;
  /// `breaker.rejected` (calls refused while open / probe-saturated),
  /// `breaker.trips` (closed-or-half-open → open transitions) and the
  /// `breaker.state` gauge (the State value, sampled here like state()).
  [[nodiscard]] metrics::Snapshot metrics() const;

  [[nodiscard]] static const char* state_name(State state);

 private:
  void trip_open_locked() XS_REQUIRES(mutex_);
  void note_outcome_locked(bool failed) XS_REQUIRES(mutex_);
  [[nodiscard]] State current_state_locked() XS_REQUIRES(mutex_);
  [[nodiscard]] State effective_state_locked() const XS_REQUIRES(mutex_);

  const Options options_;
  const std::function<Nanos()> now_;

  mutable Mutex mutex_;
  State state_ XS_GUARDED_BY(mutex_) = State::kClosed;
  // Rolling outcome ring: outcomes_[i] true = failure.
  std::vector<bool> outcomes_ XS_GUARDED_BY(mutex_);
  std::size_t next_slot_ XS_GUARDED_BY(mutex_) = 0;
  std::size_t samples_ XS_GUARDED_BY(mutex_) = 0;
  std::size_t failures_ XS_GUARDED_BY(mutex_) = 0;
  Nanos opened_at_ XS_GUARDED_BY(mutex_) = 0;
  std::uint32_t half_open_granted_ XS_GUARDED_BY(mutex_) = 0;
  std::uint32_t half_open_successes_ XS_GUARDED_BY(mutex_) = 0;

  metrics::Registry metrics_{"breaker"};
  metrics::Counter& rejected_ = metrics_.counter("rejected");
  metrics::Counter& trips_ = metrics_.counter("trips");
  metrics::Gauge& state_gauge_ = metrics_.gauge("state");
};

}  // namespace xsearch
