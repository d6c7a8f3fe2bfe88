#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace xsearch {

/// Retry discipline for a single logical call: capped exponential backoff
/// with decorrelated jitter (AWS architecture-blog variant: each sleep is
/// drawn uniformly from [base, 3 * previous], capped). Jitter is what keeps
/// a fleet of clients that failed together from retrying together.
///
/// The policy is a value type; per-call state lives in RetryState so one
/// policy can be shared by every connection of a client.
struct RetryPolicy {
  /// Total attempts including the first (1 = never retry). The default of 2
  /// matches the brokers' historical "retry exactly once" behaviour.
  std::uint32_t max_attempts = 2;
  Nanos initial_backoff = kMilli;
  Nanos max_backoff = 50 * kMilli;
};

/// Mutable per-call retry state: attempt counter + the jitter chain.
class RetryState {
 public:
  explicit RetryState(const RetryPolicy& policy)
      : policy_(policy), previous_(policy.initial_backoff) {}

  /// True while the policy allows another attempt after `attempts` failures.
  [[nodiscard]] bool should_retry() const {
    return attempts_ < policy_.max_attempts;
  }

  /// Record that an attempt ran (successful or not).
  void note_attempt() { ++attempts_; }

  [[nodiscard]] std::uint32_t attempts() const { return attempts_; }

  /// Next decorrelated-jitter sleep. Advances the chain.
  [[nodiscard]] Nanos next_backoff(Rng& rng) {
    const Nanos lo = policy_.initial_backoff;
    const Nanos hi = previous_ * 3;
    Nanos sleep = lo;
    if (hi > lo) {
      sleep = lo + static_cast<Nanos>(
                       rng.uniform(static_cast<std::uint64_t>(hi - lo) + 1));
    }
    if (sleep > policy_.max_backoff) sleep = policy_.max_backoff;
    previous_ = sleep;
    return sleep;
  }

 private:
  RetryPolicy policy_;
  std::uint32_t attempts_ = 0;
  Nanos previous_;
};

/// Token-bucket retry budget, one per connection: every completed request
/// deposits `deposit_per_request` tokens (clamped to `capacity`); every retry
/// withdraws one. When the bucket is empty, retries stop — a persistently
/// failing dependency degrades to one attempt per request instead of
/// multiplying load by max_attempts (the classic retry-stampede amplifier).
///
/// The balance is kept in whole micro-tokens, so deposits add up exactly:
/// ten deposits of 0.1 pay for one retry, where a double balance would
/// stop at 0.9999999999999999 and refuse it.
///
/// Not internally synchronized: brokers are single-caller by contract
/// (api::PrivateSearchClient serializes on sync_mutex_).
class RetryBudget {
 public:
  struct Options {
    double capacity = 10.0;
    double deposit_per_request = 0.5;
  };

  RetryBudget() : RetryBudget(Options{}) {}
  explicit RetryBudget(Options options)
      : capacity_(to_units(options.capacity)),
        deposit_(to_units(options.deposit_per_request)),
        units_(capacity_) {}

  /// A request completed (any outcome): earn back some retry headroom.
  void record_request() { units_ = std::min(units_ + deposit_, capacity_); }

  /// Try to pay for one retry.
  [[nodiscard]] bool try_spend() {
    if (units_ < kUnitsPerToken) return false;
    units_ -= kUnitsPerToken;
    return true;
  }

  [[nodiscard]] double tokens() const {
    return static_cast<double>(units_) / kUnitsPerToken;
  }

 private:
  static constexpr std::int64_t kUnitsPerToken = 1'000'000;
  [[nodiscard]] static std::int64_t to_units(double tokens) {
    return std::llround(tokens * kUnitsPerToken);
  }

  std::int64_t capacity_;
  std::int64_t deposit_;
  std::int64_t units_;
};

}  // namespace xsearch
