// CircuitBreaker state-machine tests, driven entirely through the
// injectable clock: closed → open on the failure ratio, fast-fail while
// open, half-open probes after the cooldown, re-open on a probe failure,
// close after all probes succeed — case by case, then as a model test
// against a sequential reference.
#include "common/circuit_breaker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <string>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace xsearch {
namespace {

/// Breaker over a hand-stepped clock: tests advance `now` instead of
/// sleeping out cooldowns.
struct FakeClockBreaker {
  Nanos now = 0;
  CircuitBreaker breaker;

  explicit FakeClockBreaker(CircuitBreaker::Options options = small_options())
      : breaker(with_clock(std::move(options), now)) {}

  static CircuitBreaker::Options small_options() {
    CircuitBreaker::Options options;
    options.window = 8;
    options.min_samples = 4;
    options.failure_ratio = 0.5;
    options.open_cooldown = 100 * kMilli;
    options.half_open_probes = 2;
    return options;
  }

 private:
  static CircuitBreaker::Options with_clock(CircuitBreaker::Options options,
                                            Nanos& clock) {
    options.now = [&clock] { return clock; };
    return options;
  }
};

TEST(CircuitBreaker, StaysClosedBelowMinSamples) {
  FakeClockBreaker fake;
  // min_samples = 4: three straight failures may not trip an idle breaker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(fake.breaker.allow());
    fake.breaker.record_failure();
  }
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(fake.breaker.allow());
}

TEST(CircuitBreaker, TripsOpenAtFailureRatioAndFastFails) {
  FakeClockBreaker fake;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fake.breaker.allow());
    fake.breaker.record_failure();
  }
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kOpen);
  // Open: every call is rejected without touching the dependency.
  EXPECT_FALSE(fake.breaker.allow());
  EXPECT_FALSE(fake.breaker.allow());
  const auto stats = fake.breaker.metrics();
  EXPECT_EQ(stats.value("breaker.trips"), 1u);
  EXPECT_EQ(stats.value("breaker.rejected"), 2u);
}

TEST(CircuitBreaker, SuccessesKeepItClosed) {
  FakeClockBreaker fake;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fake.breaker.allow());
    // One failure in four stays under the 50% trip ratio at every prefix
    // and across the full rolling window — must never trip.
    if (i % 4 == 0) {
      fake.breaker.record_failure();
    } else {
      fake.breaker.record_success();
    }
  }
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(fake.breaker.metrics().value("breaker.trips"), 0u);
}

TEST(CircuitBreaker, HalfOpenProbesCloseAfterCooldown) {
  FakeClockBreaker fake;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fake.breaker.allow());
    fake.breaker.record_failure();
  }
  ASSERT_EQ(fake.breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(fake.breaker.allow());

  // Cooldown elapses on the fake clock: the breaker admits exactly
  // `half_open_probes` trial calls and rejects the rest.
  fake.now += FakeClockBreaker::small_options().open_cooldown;
  EXPECT_TRUE(fake.breaker.allow());
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(fake.breaker.allow());
  EXPECT_FALSE(fake.breaker.allow());  // probe slots exhausted

  fake.breaker.record_success();
  fake.breaker.record_success();
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kClosed);
  // Closed with a cleared window: one new failure cannot re-trip.
  EXPECT_TRUE(fake.breaker.allow());
  fake.breaker.record_failure();
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  FakeClockBreaker fake;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fake.breaker.allow());
    fake.breaker.record_failure();
  }
  fake.now += FakeClockBreaker::small_options().open_cooldown;
  ASSERT_TRUE(fake.breaker.allow());  // half-open probe
  fake.breaker.record_failure();
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(fake.breaker.metrics().value("breaker.trips"), 2u);
  // The cooldown restarted at the re-open: still rejecting...
  EXPECT_FALSE(fake.breaker.allow());
  // ...until it elapses again.
  fake.now += FakeClockBreaker::small_options().open_cooldown;
  EXPECT_TRUE(fake.breaker.allow());
  fake.breaker.record_success();
  fake.breaker.record_success();
  EXPECT_EQ(fake.breaker.state(), CircuitBreaker::State::kClosed);
}

/// Sequential reference of the header's documented semantics: a rolling
/// window of the last `window` closed-state outcomes trips the breaker once
/// it holds at least `min_samples` outcomes and the failures reach
/// `failure_ratio` of them; open rejects until `open_cooldown` has passed,
/// then half-open grants `half_open_probes` calls; a failure there re-opens
/// and restarts the cooldown, and as many successes as probes close it with
/// an empty window. Outcomes arriving while open are late results of calls
/// granted before the trip and change nothing.
class BreakerModel {
 public:
  using State = CircuitBreaker::State;

  explicit BreakerModel(const CircuitBreaker::Options& options)
      : options_(options) {}

  [[nodiscard]] State state(Nanos now) const {
    return cooled_down(now) ? State::kHalfOpen : state_;
  }

  bool allow(Nanos now) {
    materialize(now);
    if (state_ == State::kClosed) return true;
    if (state_ == State::kHalfOpen && granted_ < options_.half_open_probes) {
      ++granted_;
      return true;
    }
    ++rejected_;
    return false;
  }

  void record(bool failed, Nanos now) {
    materialize(now);
    if (state_ == State::kHalfOpen) {
      if (failed) {
        trip(now);
      } else if (++successes_ >= options_.half_open_probes) {
        state_ = State::kClosed;
        window_.clear();
      }
      return;
    }
    if (state_ == State::kOpen) return;
    window_.push_back(failed);
    if (window_.size() > std::max<std::size_t>(options_.window, 1)) {
      window_.pop_front();
    }
    if (!failed || window_.size() < options_.min_samples) return;
    std::size_t failures = 0;
    for (const bool f : window_) failures += f ? 1 : 0;
    if (static_cast<double>(failures) >=
        options_.failure_ratio * static_cast<double>(window_.size())) {
      trip(now);
    }
  }

  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

 private:
  [[nodiscard]] bool cooled_down(Nanos now) const {
    return state_ == State::kOpen && now - opened_at_ >= options_.open_cooldown;
  }
  void materialize(Nanos now) {
    if (!cooled_down(now)) return;
    state_ = State::kHalfOpen;
    granted_ = 0;
    successes_ = 0;
  }
  void trip(Nanos now) {
    state_ = State::kOpen;
    opened_at_ = now;
    ++trips_;
  }

  const CircuitBreaker::Options options_;
  State state_ = State::kClosed;
  std::deque<bool> window_;
  Nanos opened_at_ = 0;
  std::uint32_t granted_ = 0;
  std::uint32_t successes_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t rejected_ = 0;
};

// Model test: seeded allow / record / clock-step sequences on the injected
// clock, each granted allow paired with exactly one outcome (up to four in
// flight, so outcomes also land after the breaker has moved on). The
// breaker's state, every allow() verdict and its trips/rejected counters
// must match the reference after every step.
TEST(CircuitBreaker, ModelRandomSequences) {
  const auto shape = [](std::uint32_t window, std::uint32_t min_samples,
                        double failure_ratio, Nanos open_cooldown,
                        std::uint32_t half_open_probes) {
    CircuitBreaker::Options options;
    options.window = window;
    options.min_samples = min_samples;
    options.failure_ratio = failure_ratio;
    options.open_cooldown = open_cooldown;
    options.half_open_probes = half_open_probes;
    return options;
  };
  const CircuitBreaker::Options shapes[] = {
      FakeClockBreaker::small_options(),
      shape(1, 1, 1.0, 10 * kMilli, 1),
      shape(16, 4, 0.25, 50 * kMilli, 3),
      shape(32, 8, 0.75, kMilli, 2),
  };
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    const Nanos cooldown = shapes[s].open_cooldown;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("shape " + std::to_string(s) + " seed " + std::to_string(seed));
      FakeClockBreaker fake(shapes[s]);
      BreakerModel model(shapes[s]);
      Rng rng(seed);
      std::size_t in_flight = 0;
      std::uint64_t failure_percent = 70;

      const auto record = [&] {
        const bool failed = rng.uniform(100) < failure_percent;
        failed ? fake.breaker.record_failure() : fake.breaker.record_success();
        model.record(failed, fake.now);
        --in_flight;
      };
      for (int op = 0; op < 2000; ++op) {
        // Alternate failure-heavy and success-heavy stretches so every
        // shape trips, probes, re-opens and closes many times.
        if (op % 100 == 0) failure_percent = failure_percent == 70 ? 15 : 70;
        switch (rng.uniform(4)) {
          case 0:
          case 1: {
            if (in_flight == 4) record();
            const bool granted = fake.breaker.allow();
            ASSERT_EQ(granted, model.allow(fake.now)) << "op " << op;
            if (granted) ++in_flight;
            break;
          }
          case 2:
            if (in_flight > 0) record();
            break;
          default: {
            const Nanos steps[] = {0, 1, cooldown / 3, cooldown - 1, cooldown,
                                   2 * cooldown};
            fake.now += steps[rng.uniform(std::size(steps))];
            break;
          }
        }
        ASSERT_EQ(fake.breaker.state(), model.state(fake.now)) << "op " << op;
        const auto metrics = fake.breaker.metrics();
        ASSERT_EQ(metrics.value("breaker.trips"), model.trips()) << "op " << op;
        ASSERT_EQ(metrics.value("breaker.rejected"), model.rejected())
            << "op " << op;
      }
      EXPECT_GT(model.trips(), 0u);
    }
  }
}

TEST(CircuitBreaker, StateNamesAreStable) {
  EXPECT_STREQ(CircuitBreaker::state_name(CircuitBreaker::State::kClosed),
               "closed");
  EXPECT_STREQ(CircuitBreaker::state_name(CircuitBreaker::State::kOpen),
               "open");
  EXPECT_STREQ(CircuitBreaker::state_name(CircuitBreaker::State::kHalfOpen),
               "half-open");
}

}  // namespace
}  // namespace xsearch
