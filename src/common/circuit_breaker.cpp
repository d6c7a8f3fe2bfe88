#include "common/circuit_breaker.hpp"

#include <algorithm>
#include <utility>

namespace xsearch {

CircuitBreaker::CircuitBreaker(Options options)
    : options_(std::move(options)),
      now_(options_.now ? options_.now : [] { return wall_now(); }),
      outcomes_(options_.window > 0 ? options_.window : 1, false) {}

const char* CircuitBreaker::state_name(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::State CircuitBreaker::current_state_locked() {
  if (state_ == State::kOpen && now_() - opened_at_ >= options_.open_cooldown) {
    state_ = State::kHalfOpen;
    half_open_granted_ = 0;
    half_open_successes_ = 0;
  }
  return state_;
}

CircuitBreaker::State CircuitBreaker::effective_state_locked() const {
  if (state_ == State::kOpen && now_() - opened_at_ >= options_.open_cooldown) {
    return State::kHalfOpen;  // will materialize on the next allow()/record
  }
  return state_;
}

bool CircuitBreaker::allow() {
  MutexLock lock(mutex_);
  switch (current_state_locked()) {
    case State::kClosed:
      return true;
    case State::kOpen:
      rejected_.inc();
      return false;
    case State::kHalfOpen:
      if (half_open_granted_ < options_.half_open_probes) {
        ++half_open_granted_;
        return true;
      }
      rejected_.inc();
      return false;
  }
  return true;  // unreachable
}

void CircuitBreaker::trip_open_locked() {
  state_ = State::kOpen;
  opened_at_ = now_();
  trips_.inc();
}

void CircuitBreaker::note_outcome_locked(bool failed) {
  if (samples_ == outcomes_.size()) {
    // Ring full: the slot being overwritten leaves the window.
    if (outcomes_[next_slot_]) --failures_;
  } else {
    ++samples_;
  }
  outcomes_[next_slot_] = failed;
  if (failed) ++failures_;
  next_slot_ = (next_slot_ + 1) % outcomes_.size();
}

void CircuitBreaker::record_success() {
  MutexLock lock(mutex_);
  if (current_state_locked() == State::kHalfOpen) {
    if (++half_open_successes_ >= options_.half_open_probes) {
      // Dependency looks healthy again: close with a clean window so the
      // pre-outage failures cannot immediately re-trip it.
      state_ = State::kClosed;
      std::fill(outcomes_.begin(), outcomes_.end(), false);
      next_slot_ = 0;
      samples_ = 0;
      failures_ = 0;
    }
    return;
  }
  note_outcome_locked(/*failed=*/false);
}

void CircuitBreaker::record_failure() {
  MutexLock lock(mutex_);
  const State state = current_state_locked();
  if (state == State::kHalfOpen) {
    // A probe failed: the dependency is still down, back to open.
    trip_open_locked();
    return;
  }
  if (state == State::kOpen) return;  // late result from before the trip
  note_outcome_locked(/*failed=*/true);
  if (samples_ >= options_.min_samples &&
      static_cast<double>(failures_) >=
          options_.failure_ratio * static_cast<double>(samples_)) {
    trip_open_locked();
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  MutexLock lock(mutex_);
  return effective_state_locked();
}

metrics::Snapshot CircuitBreaker::metrics() const {
  state_gauge_.set(static_cast<std::uint64_t>(state()));
  return metrics_.snapshot();
}

}  // namespace xsearch
