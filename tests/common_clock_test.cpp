#include "common/clock.hpp"

#include <gtest/gtest.h>

namespace xsearch {
namespace {

TEST(VirtualClock, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(-50);  // negative deltas ignored
  EXPECT_EQ(clock.now(), 100);
  clock.advance_to(500);
  EXPECT_EQ(clock.now(), 500);
  clock.advance_to(400);  // never moves backwards
  EXPECT_EQ(clock.now(), 500);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch timer;
  const Nanos t1 = timer.elapsed();
  EXPECT_GE(t1, 0);
  // Busy loop a little.
  volatile int sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.elapsed(), t1);
  timer.restart();
  EXPECT_LT(timer.elapsed(), kSecond);
}

TEST(WallClock, Monotonic) {
  const Nanos a = wall_now();
  const Nanos b = wall_now();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace xsearch
