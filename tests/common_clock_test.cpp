#include "common/clock.hpp"

#include <gtest/gtest.h>

namespace xsearch {
namespace {

TEST(WallClock, Monotonic) {
  const Nanos a = wall_now();
  const Nanos b = wall_now();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace xsearch
