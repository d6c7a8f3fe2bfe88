// CircuitBreaker state-machine tests, driven entirely through the
// injectable clock: closed → open on the failure ratio, fast-fail while
// open, half-open probes after the cooldown, re-open on a probe failure,
// close after all probes succeed.
#include "common/circuit_breaker.hpp"

#include <gtest/gtest.h>

#include "common/clock.hpp"

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
