#include "loadgen/loadgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "netsim/netsim.hpp"

namespace xsearch::loadgen {
namespace {

TEST(LoadGen, CompletesAllRequestsUnderLowLoad) {
  std::atomic<int> handled{0};
  LoadConfig config;
  config.target_rps = 500;
  config.duration = 200 * kMilli;
  config.workers = 2;
  const auto report =
      run_open_loop([&handled](std::size_t) { ++handled; }, config);
  EXPECT_EQ(report.completed, report.issued);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(handled.load(), static_cast<int>(report.completed));
  EXPECT_NEAR(report.achieved_rps, 500, 100);
}

TEST(LoadGen, LatencyLowWhenUnderCapacity) {
  LoadConfig config;
  config.target_rps = 200;
  config.duration = 200 * kMilli;
  config.workers = 2;
  const auto report =
      run_open_loop([](std::size_t) { netsim::busy_wait(100 * kMicro); },
                    config);
  // Service time 0.1 ms at 200 rps on 2 workers: far from saturation.
  EXPECT_LT(report.p50_ms(), 5.0);
}

TEST(LoadGen, LatencyExplodesBeyondCapacity) {
  LoadConfig config;
  config.duration = 250 * kMilli;
  config.workers = 2;
  // Capacity = 2 workers / 1 ms = 2000 rps.
  config.target_rps = 1000;
  const auto busy_1ms = [](std::size_t) { netsim::busy_wait(1 * kMilli); };
  const auto under = run_open_loop(busy_1ms, config);
  config.target_rps = 6000;
  const auto over = run_open_loop(busy_1ms, config);
  EXPECT_GT(over.p50_ms(), 4 * under.p50_ms());
}

TEST(LoadGen, ThroughputCapsAtCapacity) {
  LoadConfig config;
  config.duration = 250 * kMilli;
  config.workers = 2;
  config.target_rps = 8000;  // far beyond 2 workers / 1ms = 2000 rps
  const auto report = run_open_loop(
      [](std::size_t) { netsim::busy_wait(1 * kMilli); }, config);
  // Nominal capacity is workers / 1 ms, but busy-wait workers cannot exceed
  // the machine's core count (minus the spinning dispatcher, when possible).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double effective_workers =
      std::min<double>(config.workers, std::max(1u, hw - (hw > 1 ? 1 : 0)));
  const double capacity_rps = effective_workers * 1000.0;
  EXPECT_LT(report.achieved_rps, 1.5 * capacity_rps);
  EXPECT_GT(report.achieved_rps, 0.6 * capacity_rps);
}

TEST(LoadGen, EveryWorkerIndexIsUsedAndNoOther) {
  LoadConfig config;
  config.target_rps = 2000;
  config.duration = 200 * kMilli;
  config.workers = 3;
  constexpr std::size_t kSlots = 8;  // room to catch out-of-range indices
  std::array<std::atomic<int>, kSlots> calls{};
  std::atomic<int> out_of_range{0};
  const auto report = run_open_loop(
      [&](std::size_t worker) {
        if (worker >= kSlots) {
          ++out_of_range;
          return;
        }
        ++calls[worker];
        // 2000 rps x 1 ms keeps at least two workers busy, so the queue
        // hands requests to all three.
        netsim::busy_wait(1 * kMilli);
      },
      config);
  EXPECT_EQ(out_of_range.load(), 0);
  int total = 0;
  for (std::size_t w = 0; w < kSlots; ++w) {
    if (w < config.workers) {
      EXPECT_GT(calls[w].load(), 0) << "worker " << w << " never ran";
    } else {
      EXPECT_EQ(calls[w].load(), 0) << "index " << w << " is out of range";
    }
    total += calls[w].load();
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total), report.completed);
}

TEST(LoadGen, ZeroRateProducesNothing) {
  LoadConfig config;
  config.target_rps = 0;
  const auto report = run_open_loop([](std::size_t) {}, config);
  EXPECT_EQ(report.issued, 0u);
}

TEST(LoadGen, ReportPercentilesOrdered) {
  LoadConfig config;
  config.target_rps = 1000;
  config.duration = 200 * kMilli;
  const auto report = run_open_loop(
      [](std::size_t) { netsim::busy_wait(50 * kMicro); }, config);
  EXPECT_LE(report.p50_ms(), report.p99_ms());
}

TEST(ClosedLoop, EveryWorkerIndexIsUsedAndNoOther) {
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kSlots = 8;  // room to catch out-of-range indices
  std::array<std::atomic<int>, kSlots> calls{};
  std::atomic<int> out_of_range{0};
  const auto report = run_closed_loop(
      [&](std::size_t worker) {
        if (worker >= kSlots) {
          ++out_of_range;
          return;
        }
        ++calls[worker];
        netsim::busy_wait(100 * kMicro);
      },
      kWorkers, 100 * kMilli);
  EXPECT_EQ(out_of_range.load(), 0);
  int total = 0;
  for (std::size_t w = 0; w < kSlots; ++w) {
    if (w < kWorkers) {
      EXPECT_GT(calls[w].load(), 0) << "worker " << w << " never ran";
    } else {
      EXPECT_EQ(calls[w].load(), 0) << "index " << w << " is out of range";
    }
    total += calls[w].load();
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total), report.completed);
}

TEST(ClosedLoop, RecordsOneLatencyPerCompletedCall) {
  const auto report = run_closed_loop(
      [](std::size_t) { netsim::busy_wait(200 * kMicro); }, 2, 100 * kMilli);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.latency.count(), report.completed);
  EXPECT_EQ(report.dropped, 0u);
  // Each call is timed from its own start, so no latency undercuts the
  // handler's service time.
  EXPECT_GE(report.latency.min(), 200 * kMicro);
  EXPECT_GT(report.achieved_rps, 0.0);
}

TEST(ClosedLoop, EndsWithinDurationPlusOneCall) {
  constexpr Nanos kDuration = 100 * kMilli;
  constexpr Nanos kCall = 30 * kMilli;
  const Nanos start = wall_now();
  const auto report = run_closed_loop(
      [](std::size_t) { netsim::busy_wait(kCall); }, 2, kDuration);
  const Nanos elapsed = wall_now() - start;
  // Slack covers thread start and join, not another call.
  EXPECT_LT(elapsed, kDuration + kCall + 25 * kMilli);
  EXPECT_GE(elapsed, kDuration);
  EXPECT_EQ(report.latency.count(), report.completed);
}

TEST(ClosedLoop, ZeroWorkersOrDurationGiveAnEmptyReport) {
  std::atomic<int> calls{0};
  const auto count = [&calls](std::size_t) { ++calls; };
  for (const auto& report : {run_closed_loop(count, 0, 100 * kMilli),
                             run_closed_loop(count, 2, 0)}) {
    EXPECT_EQ(report.completed, 0u);
    EXPECT_EQ(report.issued, 0u);
    EXPECT_EQ(report.latency.count(), 0u);
    EXPECT_EQ(report.achieved_rps, 0.0);
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(NetSim, LinkModelSamplesAroundMedian) {
  netsim::LinkModel link{.median_ms = 100.0, .sigma = 0.2, .min_ms = 1.0};
  Rng rng(1);
  std::vector<Nanos> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(link.sample(rng));
  std::sort(samples.begin(), samples.end());
  const double median_ms =
      static_cast<double>(samples[samples.size() / 2]) / static_cast<double>(kMilli);
  EXPECT_NEAR(median_ms, 100.0, 5.0);
}

TEST(NetSim, LinkModelRespectsFloor) {
  netsim::LinkModel link{.median_ms = 1.0, .sigma = 2.0, .min_ms = 0.5};
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(link.sample(rng), static_cast<Nanos>(0.5 * static_cast<double>(kMilli)));
  }
}

TEST(NetSim, BusyWaitWaits) {
  const Nanos start = wall_now();
  netsim::busy_wait(2 * kMilli);
  EXPECT_GE(wall_now() - start, 2 * kMilli);
}

TEST(NetSim, BusyWaitZeroReturnsImmediately) {
  const Nanos start = wall_now();
  netsim::busy_wait(0);
  netsim::busy_wait(-5);
  EXPECT_LT(wall_now() - start, 1 * kMilli);
}

}  // namespace
}  // namespace xsearch::loadgen
