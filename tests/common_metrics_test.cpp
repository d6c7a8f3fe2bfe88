// The metrics registry: exact concurrent counts, deterministic snapshots,
// and the composite views built on it — a fleet labels each worker's
// series, its recovery counters outlive the proxies they count, and a
// supervisor-driven respawn is counted once. Runs under ThreadSanitizer in
// CI (label: concurrency).
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/fleet_supervisor.hpp"
#include "net/proxy_fleet.hpp"
#include "sgx/attestation.hpp"
#include "test_util.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch {
namespace {

using metrics::Series;
using metrics::Snapshot;

/// (name, labels) of every series, in snapshot order.
std::vector<std::string> keys(const Snapshot& snapshot) {
  std::vector<std::string> out;
  for (const Series& s : snapshot.series()) {
    out.push_back(s.name + "{" + s.labels + "}");
  }
  return out;
}

TEST(Metrics, ConcurrentIncrementsSumExactly) {
  metrics::Registry registry("test");
  metrics::Counter& events = registry.counter("events");
  metrics::Gauge& level = registry.gauge("level");
  metrics::Gauge& peak = registry.gauge("peak");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIncrements = 100'000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        events.inc();
        level.add(2);
        level.sub();
        peak.raise_to(static_cast<std::uint64_t>(t) * kIncrements + i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t total = kThreads * kIncrements;
  EXPECT_EQ(events.value(), total);
  const Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.value("test.events"), total);
  EXPECT_EQ(snapshot.value("test.level"), total);
  EXPECT_EQ(snapshot.value("test.peak"), total - 1);
}

TEST(Metrics, SnapshotOrderIsTheSameOnEveryRun) {
  // Registration order does not leak into the snapshot: it is sorted.
  metrics::Registry forward("layer");
  (void)forward.counter("alpha");
  (void)forward.gauge("mid");
  (void)forward.counter("zeta");
  metrics::Registry backward("layer");
  (void)backward.counter("zeta");
  (void)backward.gauge("mid");
  (void)backward.counter("alpha");
  EXPECT_EQ(keys(forward.snapshot()),
            (std::vector<std::string>{"layer.alpha{}", "layer.mid{}",
                                      "layer.zeta{}"}));
  EXPECT_EQ(forward.snapshot().series(), backward.snapshot().series());

  // Two identically configured proxies report the same series in the same
  // order, and a repeated snapshot of an idle one is identical.
  sgx::AttestationAuthority authority(to_bytes("metrics-test-root"));
  core::XSearchProxy::Options options;
  options.contact_engine = false;
  options.engine_breaker_enabled = true;
  core::XSearchProxy first(nullptr, authority, options);
  core::XSearchProxy second(nullptr, authority, options);
  const Snapshot a = first.metrics();
  EXPECT_EQ(keys(a), keys(second.metrics()));
  EXPECT_EQ(a.series(), first.metrics().series());
  EXPECT_TRUE(std::is_sorted(a.series().begin(), a.series().end(),
                             [](const Series& x, const Series& y) {
                               return std::tie(x.name, x.labels) <
                                      std::tie(y.name, y.labels);
                             }));
  // Each of the proxy's parts is present exactly once.
  for (const char* name : {"checkpoint.written", "enclave.ecalls",
                           "sessions.created", "breaker.trips"}) {
    EXPECT_EQ(a.sum(name), a.value(name)) << name;
  }
}

TEST(Metrics, MissingSeriesAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Snapshot empty;
  EXPECT_DEATH((void)empty.value("sessions.creatd"), "no series sessions.creatd");
}

core::XSearchProxy::Options worker_options() {
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  options.contact_engine = false;
  return options;
}

TEST(Metrics, FleetSnapshotLabelsEachWorker) {
  sgx::AttestationAuthority authority(to_bytes("metrics-test-root"));
  auto fleet = net::ProxyFleet::create(
      nullptr, authority, {.workers = 3, .proxy = worker_options()});
  ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();
  const crypto::X25519Key client{};
  ASSERT_TRUE(fleet.value()->handshake(client, 0).is_ok());

  const Snapshot snapshot = fleet.value()->metrics();
  for (std::size_t w = 0; w < 3; ++w) {
    const std::string label = net::worker_label(w);
    EXPECT_EQ(label, "worker=\"" + std::to_string(w) + "\"");
    EXPECT_EQ(snapshot.value("worker.live", label), 1u);
    EXPECT_EQ(snapshot.value("worker.respawns", label), 0u);
    // A worker's proxy series carry its label: one handshake ecall on the
    // worker that took the session, none elsewhere.
    EXPECT_EQ(snapshot.value("sessions.created", label),
              snapshot.value("worker.routed", label));
    EXPECT_EQ(snapshot.value("enclave.ecalls", label),
              1 + snapshot.value("worker.routed", label));  // + the init ecall
  }
  EXPECT_EQ(snapshot.sum("sessions.created"), 1u);
  // Only the fleet's own series are unlabelled.
  for (const Series& s : snapshot.series()) {
    EXPECT_EQ(s.labels.empty(), s.name.starts_with("fleet.")) << s.name;
  }
}

class FleetRecoveryMetricsTest : public ::testing::Test {
 protected:
  FleetRecoveryMetricsTest()
      : dir_(std::filesystem::temp_directory_path() /
             ("xs_metrics_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()))) {
    std::filesystem::remove_all(dir_);
  }
  ~FleetRecoveryMetricsTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  sgx::AttestationAuthority authority_{to_bytes("metrics-test-root")};
};

TEST_F(FleetRecoveryMetricsTest, RespawnAndRestoreCountsSurviveRespawn) {
  core::XSearchProxy::Options proxy = worker_options();
  proxy.checkpoint_dir = dir_;
  auto fleet = net::ProxyFleet::create(nullptr, authority_,
                                       {.workers = 2, .proxy = proxy});
  ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();

  // Worker 0 has no checkpoint yet: a cold respawn, one miss.
  ASSERT_TRUE(fleet.value()->respawn(0).is_ok());
  // Worker 1 seals one first: a warm respawn, one hit.
  ASSERT_TRUE(fleet.value()->worker_proxy(1)->checkpoint_now().is_ok());
  ASSERT_TRUE(fleet.value()->respawn(1).is_ok());
  // And worker 0 again, still without a checkpoint of its own.
  ASSERT_TRUE(fleet.value()->respawn(0).is_ok());

  const Snapshot snapshot = fleet.value()->metrics();
  EXPECT_EQ(snapshot.value("fleet.respawns"), 3u);
  EXPECT_EQ(snapshot.value("fleet.restore_hits"), 1u);
  EXPECT_EQ(snapshot.value("fleet.restore_misses"), 2u);
  EXPECT_DOUBLE_EQ(net::warm_start_ratio(snapshot), 1.0 / 3.0);
  EXPECT_EQ(snapshot.value("worker.respawns", net::worker_label(0)), 2u);
  EXPECT_EQ(snapshot.value("worker.respawns", net::worker_label(1)), 1u);
  // The proxy series are the current proxy's: worker 1's replacement
  // restored, worker 0's did not and has written nothing yet.
  EXPECT_EQ(snapshot.value("checkpoint.restore_hits", net::worker_label(1)), 1u);
  EXPECT_EQ(snapshot.value("checkpoint.restore_hits", net::worker_label(0)), 0u);
  EXPECT_EQ(snapshot.value("checkpoint.written", net::worker_label(1)), 0u);
}

TEST_F(FleetRecoveryMetricsTest, SupervisorRespawnIsCountedOnce) {
  auto fleet = net::ProxyFleet::create(
      nullptr, authority_, {.workers = 2, .proxy = worker_options()});
  ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();
  net::FleetSupervisor supervisor(
      *fleet.value(), {.probe_interval = 2 * kMilli, .failure_threshold = 2});
  ASSERT_TRUE(fleet.value()->kill_worker(0).is_ok());
  ASSERT_TRUE(testutil::eventually([&] {
    return supervisor.metrics().value("supervisor.auto_respawns") >= 1;
  }));
  supervisor.stop();

  Snapshot all = fleet.value()->metrics();
  all.merge(supervisor.metrics());
  std::vector<std::string> auto_respawn_series;
  for (const Series& s : all.series()) {
    if (s.name.ends_with(".auto_respawns")) auto_respawn_series.push_back(s.name);
  }
  EXPECT_EQ(auto_respawn_series,
            std::vector<std::string>{"supervisor.auto_respawns"});
  // The respawn itself is one fleet respawn, of the killed worker.
  const std::uint64_t auto_respawns = all.value("supervisor.auto_respawns");
  EXPECT_EQ(all.value("fleet.respawns"), auto_respawns);
  EXPECT_EQ(all.value("worker.respawns", net::worker_label(0)), auto_respawns);
  EXPECT_EQ(all.value("worker.respawns", net::worker_label(1)), 0u);
}

}  // namespace
}  // namespace xsearch
