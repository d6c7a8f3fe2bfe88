// RetryPolicy/RetryState/RetryBudget unit tests: attempt accounting, the
// decorrelated-jitter backoff bounds, and the token bucket that damps retry
// storms.
#include "common/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/clock.hpp"
#include "common/rng.hpp"

namespace xsearch {
namespace {

TEST(RetryState, DefaultPolicyRetriesExactlyOnce) {
  RetryState retry{RetryPolicy{}};  // max_attempts = 2
  EXPECT_TRUE(retry.should_retry());
  retry.note_attempt();  // first attempt failed
  EXPECT_TRUE(retry.should_retry());
  retry.note_attempt();  // the one retry failed too
  EXPECT_FALSE(retry.should_retry());
  EXPECT_EQ(retry.attempts(), 2u);
}

TEST(RetryState, SingleAttemptPolicyNeverRetries) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  RetryState retry(policy);
  retry.note_attempt();
  EXPECT_FALSE(retry.should_retry());
}

TEST(RetryState, BackoffStaysWithinPolicyBounds) {
  RetryPolicy policy;
  policy.initial_backoff = kMilli;
  policy.max_backoff = 8 * kMilli;
  RetryState retry(policy);
  Rng rng(42);
  // First sleep is drawn from [initial, 3 * initial]; every later sleep from
  // [initial, 3 * previous] — all capped at max_backoff.
  Nanos previous = policy.initial_backoff;
  for (int i = 0; i < 200; ++i) {
    const Nanos sleep = retry.next_backoff(rng);
    EXPECT_GE(sleep, policy.initial_backoff);
    EXPECT_LE(sleep, policy.max_backoff);
    Nanos hi = previous * 3;
    if (hi > policy.max_backoff) hi = policy.max_backoff;
    EXPECT_LE(sleep, hi < policy.initial_backoff ? policy.initial_backoff : hi);
    previous = sleep;
  }
}

TEST(RetryState, BackoffIsDeterministicPerSeed) {
  RetryPolicy policy;
  RetryState a(policy);
  RetryState b(policy);
  Rng rng_a(7);
  Rng rng_b(7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next_backoff(rng_a), b.next_backoff(rng_b));
  }
}

TEST(RetryBudget, StartsFullAndRefusesWhenDrained) {
  RetryBudget budget;  // capacity 10, starts full
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(budget.try_spend()) << "spend " << i;
  }
  EXPECT_FALSE(budget.try_spend());  // bucket empty: storm damping kicks in
}

TEST(RetryBudget, RequestsEarnBackFractionalTokens) {
  RetryBudget::Options options;
  options.capacity = 2.0;
  options.deposit_per_request = 0.5;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  // One request deposits half a token — not yet enough for a retry.
  budget.record_request();
  EXPECT_FALSE(budget.try_spend());
  budget.record_request();
  EXPECT_TRUE(budget.try_spend());
}

TEST(RetryBudget, DepositsClampAtCapacity) {
  RetryBudget::Options options;
  options.capacity = 1.0;
  options.deposit_per_request = 0.5;
  RetryBudget budget(options);
  for (int i = 0; i < 100; ++i) budget.record_request();
  EXPECT_DOUBLE_EQ(budget.tokens(), 1.0);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());  // capacity 1 means one retry in reserve
}

// A deposit a caller can set (RemoteBrokerOptions::retry_budget) that a
// binary double cannot hold: ten of them pay for exactly one retry.
TEST(RetryBudget, TenDepositsOfATenthPayForOneRetry) {
  RetryBudget::Options options;
  options.capacity = 1.0;
  options.deposit_per_request = 0.1;
  RetryBudget budget(options);
  ASSERT_TRUE(budget.try_spend());
  for (int i = 0; i < 9; ++i) budget.record_request();
  EXPECT_FALSE(budget.try_spend());
  budget.record_request();
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
}

// Random record_request/try_spend sequences against an exact integer
// reference: the balance in twentieths of a token, with deposits that are
// multiples of 0.05 in (0, 1] and capacities of 1 to 20 tokens.
TEST(RetryBudget, ModelRandomSequences) {
  constexpr std::int64_t kUnits = 20;  // reference units per token
  Rng rng(0xb0d9e7);
  for (int trial = 0; trial < 500; ++trial) {
    const auto capacity = static_cast<std::int64_t>(1 + rng.uniform(20));
    const auto deposit = static_cast<std::int64_t>(1 + rng.uniform(kUnits));
    RetryBudget::Options options;
    options.capacity = static_cast<double>(capacity);
    options.deposit_per_request = static_cast<double>(deposit) * 0.05;
    RetryBudget budget(options);
    std::int64_t reference = capacity * kUnits;
    const double spend_share = rng.uniform_double();
    for (int op = 0; op < 400; ++op) {
      if (rng.bernoulli(spend_share)) {
        const bool expected = reference >= kUnits;
        if (expected) reference -= kUnits;
        ASSERT_EQ(budget.try_spend(), expected)
            << "trial " << trial << " op " << op << " capacity " << capacity
            << " deposit " << options.deposit_per_request;
      } else {
        budget.record_request();
        reference = std::min(reference + deposit, capacity * kUnits);
      }
      ASSERT_EQ(budget.tokens(), static_cast<double>(reference) / kUnits)
          << "trial " << trial << " op " << op;
    }
  }
}

}  // namespace
}  // namespace xsearch
