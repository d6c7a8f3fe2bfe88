#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace xsearch {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.value_at_quantile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  // Within bucket precision (~1%).
  EXPECT_NEAR(static_cast<double>(h.value_at_quantile(0.5)), 1000.0, 10.0);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.value_at_quantile(0.0), 0);
  EXPECT_EQ(h.value_at_quantile(1.0), 100);
  EXPECT_NEAR(static_cast<double>(h.value_at_quantile(0.5)), 50, 1);
}

TEST(Histogram, QuantilesOrdered) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    h.record(static_cast<std::int64_t>(rng.uniform(10'000'000)));
  }
  EXPECT_LE(h.value_at_quantile(0.1), h.value_at_quantile(0.5));
  EXPECT_LE(h.value_at_quantile(0.5), h.value_at_quantile(0.9));
  EXPECT_LE(h.value_at_quantile(0.9), h.value_at_quantile(0.999));
  EXPECT_LE(h.value_at_quantile(0.999), h.max());
}

TEST(Histogram, RelativePrecisionAboutOnePercent) {
  Histogram h;
  const std::int64_t value = 123'456'789;
  h.record(value);
  const auto p50 = static_cast<double>(h.value_at_quantile(0.5));
  EXPECT_NEAR(p50, static_cast<double>(value), static_cast<double>(value) * 0.01);
}

TEST(Histogram, UniformMedian) {
  Histogram h;
  Rng rng(2);
  for (int i = 0; i < 200000; ++i) {
    h.record(static_cast<std::int64_t>(rng.uniform(1'000'000)));
  }
  EXPECT_NEAR(static_cast<double>(h.value_at_quantile(0.5)), 500'000.0, 20'000.0);
  EXPECT_NEAR(h.mean(), 500'000.0, 5'000.0);
}

TEST(Histogram, RecordNEquivalentToLoop) {
  Histogram a, b;
  a.record_n(777, 1000);
  for (int i = 0; i < 1000; ++i) b.record(777);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.value_at_quantile(0.5), b.value_at_quantile(0.5));
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.record_n(100, 500);
  b.record_n(1'000'000, 500);
  a.merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.min(), 100);
  EXPECT_GE(a.max(), 1'000'000);
  EXPECT_LE(a.value_at_quantile(0.25), 110);
  EXPECT_GT(a.value_at_quantile(0.95), 900'000);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record_n(42, 42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, SummaryContainsFields) {
  Histogram h;
  h.record(1'000'000);
  const std::string s = h.summary(1e6, "ms");
  EXPECT_NE(s.find("count=1"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
  EXPECT_NE(s.find("ms"), std::string::npos);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  const std::int64_t big = std::int64_t{1} << 45;
  h.record(big);
  EXPECT_NEAR(static_cast<double>(h.value_at_quantile(1.0)),
              static_cast<double>(big), static_cast<double>(big) * 0.01);
}

// The recovery bench compares p99-across-respawn numbers, so the quantile
// edge behaviour is pinned here: empty histograms, the exact q=0/q=1
// answers, out-of-range clamping, and single-value degenerate cases.

TEST(Histogram, EmptyReturnsZeroForEveryQuantile) {
  Histogram h;
  for (const double q : {-1.0, 0.0, 0.25, 0.5, 1.0, 2.0}) {
    EXPECT_EQ(h.value_at_quantile(q), 0) << "q=" << q;
  }
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(99.0), 0);
  EXPECT_EQ(h.percentile(100.0), 0);
}

TEST(Histogram, QuantileZeroIsExactMinimum) {
  // Regression: q=0 used to return the *upper edge* of the minimum's
  // bucket — above min() by up to the ~1% bucket width once values leave
  // the exact range.
  Histogram h;
  h.record(1000);
  h.record(2000);
  EXPECT_EQ(h.value_at_quantile(0.0), 1000);
  EXPECT_EQ(h.value_at_quantile(0.0), h.min());
}

TEST(Histogram, QuantileOneIsExactMaximum) {
  Histogram h;
  h.record(123);
  h.record(123'456'789);
  EXPECT_EQ(h.value_at_quantile(1.0), 123'456'789);
  EXPECT_EQ(h.value_at_quantile(1.0), h.max());
  EXPECT_EQ(h.percentile(100.0), h.max());
}

TEST(Histogram, OutOfRangeQuantilesClampToTheEdges) {
  Histogram h;
  h.record(10);
  h.record(1'000'000);
  EXPECT_EQ(h.value_at_quantile(-0.5), h.value_at_quantile(0.0));
  EXPECT_EQ(h.value_at_quantile(1.5), h.value_at_quantile(1.0));
}

TEST(Histogram, SingleValueAnswersEveryQuantileWithThatValue) {
  Histogram h;
  h.record(777'777);
  EXPECT_EQ(h.value_at_quantile(0.0), 777'777);
  EXPECT_EQ(h.value_at_quantile(1.0), 777'777);
  // Interior quantiles stay within bucket precision and never exceed max.
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_LE(h.value_at_quantile(q), h.max()) << "q=" << q;
    EXPECT_GE(h.value_at_quantile(q), h.min()) << "q=" << q;
  }
}

TEST(Histogram, QuantilesNeverExceedRecordedRange) {
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    h.record(static_cast<std::int64_t>(rng.uniform(1'000'000'000)));
  }
  double previous = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const auto v = static_cast<double>(h.value_at_quantile(q));
    EXPECT_GE(v, static_cast<double>(h.min()));
    EXPECT_LE(v, static_cast<double>(h.max()));
    EXPECT_GE(v, previous) << "quantiles must be monotone, q=" << q;
    previous = v;
  }
}

TEST(HistogramDeathTest, LayoutContractsAbortInEveryBuild) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Histogram(0), "must lie in \\[1, 16\\]");
  EXPECT_DEATH(Histogram(17), "must lie in \\[1, 16\\]");
  Histogram coarse(4);
  const Histogram fine(8);
  const auto merge_mismatched = [&] { coarse.merge(fine); };
  EXPECT_DEATH(merge_mismatched(), "share one bucket layout");
}

}  // namespace
}  // namespace xsearch
