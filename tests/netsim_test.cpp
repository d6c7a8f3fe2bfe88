#include "netsim/netsim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace xsearch::netsim {
namespace {

std::vector<Nanos> draw(const LinkModel& link, int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Nanos> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(link.sample(rng));
  std::sort(out.begin(), out.end());
  return out;
}

double percentile(const std::vector<Nanos>& sorted, double p) {
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[idx]);
}

TEST(LinkModel, MedianCalibrated) {
  const LinkModel link{.median_ms = 50.0, .sigma = 0.3, .min_ms = 1.0};
  const auto samples = draw(link, 20000, 1);
  EXPECT_NEAR(percentile(samples, 0.5) / static_cast<double>(kMilli), 50.0, 2.5);
}

TEST(LinkModel, SigmaWidensTail) {
  const LinkModel narrow{.median_ms = 50.0, .sigma = 0.1, .min_ms = 1.0};
  const LinkModel wide{.median_ms = 50.0, .sigma = 0.8, .min_ms = 1.0};
  const auto narrow_samples = draw(narrow, 20000, 2);
  const auto wide_samples = draw(wide, 20000, 2);
  const double narrow_ratio =
      percentile(narrow_samples, 0.99) / percentile(narrow_samples, 0.5);
  const double wide_ratio =
      percentile(wide_samples, 0.99) / percentile(wide_samples, 0.5);
  EXPECT_GT(wide_ratio, narrow_ratio * 2);
}

TEST(LinkModel, CongestionMixtureAddsHeavyTail) {
  LinkModel base{.median_ms = 80.0, .sigma = 0.3, .min_ms = 1.0};
  LinkModel congested = base;
  congested.congestion_probability = 0.1;
  congested.congestion_multiplier = 8.0;

  const auto base_samples = draw(base, 20000, 3);
  const auto congested_samples = draw(congested, 20000, 3);
  // Median barely moves; p99 explodes.
  EXPECT_NEAR(percentile(congested_samples, 0.5), percentile(base_samples, 0.5),
              percentile(base_samples, 0.5) * 0.15);
  EXPECT_GT(percentile(congested_samples, 0.99), percentile(base_samples, 0.99) * 3);
}

TEST(LinkModel, FloorIsRespected) {
  const LinkModel link{.median_ms = 0.5, .sigma = 2.0, .min_ms = 0.4};
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(link.sample(rng),
              static_cast<Nanos>(0.4 * static_cast<double>(kMilli)));
  }
}

TEST(LinkModel, DeterministicGivenSeed) {
  const LinkModel link = links::tor_hop();
  EXPECT_EQ(draw(link, 100, 7), draw(link, 100, 7));
}

TEST(CalibratedLinks, Fig7MediansInOrder) {
  // Direct < X-Search < Tor, as in Figure 7 (medians of full-path sums).
  Rng rng(5);
  const auto engine = links::engine_processing();
  const auto c2e = links::client_to_engine();
  const auto c2p = links::client_to_proxy();
  const auto p2e = links::proxy_to_engine();
  const auto hop = links::tor_hop();

  auto median_of = [&](auto&& path_sample) {
    std::vector<Nanos> totals;
    for (int i = 0; i < 4000; ++i) totals.push_back(path_sample());
    std::sort(totals.begin(), totals.end());
    return totals[totals.size() / 2];
  };

  const Nanos direct = median_of([&] { return 2 * c2e.sample(rng) + engine.sample(rng); });
  const Nanos xsearch = median_of([&] {
    return 2 * c2p.sample(rng) + 2 * p2e.sample(rng) +
           static_cast<Nanos>(1.16 * static_cast<double>(engine.sample(rng)));
  });
  const Nanos tor = median_of([&] {
    Nanos t = engine.sample(rng);
    for (int h = 0; h < 6; ++h) t += hop.sample(rng);
    return t;
  });

  EXPECT_LT(direct, xsearch);
  EXPECT_LT(xsearch, tor);
  // Tor lands near the paper's 1.06 s.
  EXPECT_NEAR(static_cast<double>(tor) / static_cast<double>(kSecond), 1.1, 0.25);
}

}  // namespace
}  // namespace xsearch::netsim
