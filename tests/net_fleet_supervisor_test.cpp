// FleetSupervisor tests: heartbeat probing, automatic drain→respawn→restore
// of a crashed worker, fleet-level recovery counters (auto_respawns,
// restore hits/misses, warm_start_ratio), and the graceful rolling-restart
// path (drain seals a final checkpoint). Run under ThreadSanitizer in CI
// (label: concurrency).
#include "net/fleet_supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "broker_util.hpp"
#include "common/mutex.hpp"
#include "net/proxy_fleet.hpp"
#include "sgx/attestation.hpp"
#include "test_util.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {
namespace {

using testutil::eventually;

class FleetSupervisorTest : public ::testing::Test {
 protected:
  FleetSupervisorTest()
      : dir_(std::filesystem::temp_directory_path() / checkpoint_dir_name()),
        authority_(to_bytes("supervisor-test-root")) {
    std::filesystem::remove_all(dir_);
  }
  ~FleetSupervisorTest() override { std::filesystem::remove_all(dir_); }

  /// Per-test directory name ('/' of parameterized names flattened).
  static std::string checkpoint_dir_name() {
    std::string name = "xs_supervisor_" +
                       std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name());
    std::replace(name.begin(), name.end(), '/', '_');
    return name;
  }

  ProxyFleet::Options fleet_options(std::size_t workers,
                                    bool checkpointing = true) const {
    ProxyFleet::Options options;
    options.workers = workers;
    options.proxy.k = 2;
    options.proxy.history_capacity = 4096;
    options.proxy.contact_engine = false;
    if (checkpointing) {
      options.proxy.checkpoint_dir = dir_;
      options.proxy.checkpoint_interval_queries = 4;
    }
    return options;
  }

  static FleetSupervisor::Options fast_probe() {
    FleetSupervisor::Options options;
    options.probe_interval = 2 * kMilli;
    options.failure_threshold = 2;
    return options;
  }

  std::filesystem::path dir_;
  sgx::AttestationAuthority authority_;
};

TEST_F(FleetSupervisorTest, HealthyFleetIsProbedNotRespawned) {
  auto fleet = ProxyFleet::create(nullptr, authority_, fleet_options(2));
  ASSERT_TRUE(fleet.is_ok());
  FleetSupervisor supervisor(*fleet.value(), fast_probe());
  EXPECT_TRUE(eventually([&] { return supervisor.stats().probes >= 6; }));
  supervisor.stop();
  const auto stats = supervisor.stats();
  EXPECT_EQ(stats.probe_failures, 0u);
  EXPECT_EQ(stats.auto_respawns, 0u);
  EXPECT_EQ(fleet.value()->fleet_stats().auto_respawns, 0u);
}

TEST_F(FleetSupervisorTest, ColdRespawnCountsAsMiss) {
  auto fleet = ProxyFleet::create(nullptr, authority_,
                                  fleet_options(2, /*checkpointing=*/false));
  ASSERT_TRUE(fleet.is_ok());
  FleetSupervisor supervisor(*fleet.value(), fast_probe());
  ASSERT_TRUE(fleet.value()->kill_worker(0).is_ok());
  EXPECT_TRUE(
      eventually([&] { return fleet.value()->fleet_stats().auto_respawns >= 1; }));
  supervisor.stop();
  const auto stats = fleet.value()->fleet_stats();
  EXPECT_EQ(stats.restore_hits, 0u);
  EXPECT_GE(stats.restore_misses, 1u);
  EXPECT_DOUBLE_EQ(stats.warm_start_ratio, 0.0);
  EXPECT_EQ(fleet.value()->worker_history_depth(0), 0u);  // cold
}

// Crash and rolling-restart recovery, seen by a broker over either
// transport: both re-attest onto the restored arc.
using testutil::Transport;

class FleetRecoveryTest : public FleetSupervisorTest,
                          public ::testing::WithParamInterface<Transport> {};

TEST_P(FleetRecoveryTest, CrashedWorkerIsRespawnedWarm) {
  auto fleet = ProxyFleet::create(nullptr, authority_, fleet_options(2));
  ASSERT_TRUE(fleet.is_ok());
  const testutil::ServedProxy served(GetParam(), *fleet.value());

  // Park a session on a known worker and warm its history past the
  // checkpoint interval.
  auto broker = served.broker(authority_, fleet.value()->measurement(), 1);
  ASSERT_TRUE(broker->connect().is_ok());
  const std::size_t victim = fleet.value()->owner_of(broker->session_id());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(broker->search("warmup " + std::to_string(i)).is_ok());
  }
  const std::size_t checkpointed_depth = 8;  // interval 4, 9 queries → seal at 8
  EXPECT_EQ(fleet.value()->worker_stats(victim).checkpoint.written, 2u);

  FleetSupervisor supervisor(*fleet.value(), fast_probe());
  ASSERT_TRUE(fleet.value()->kill_worker(victim).is_ok());

  EXPECT_TRUE(
      eventually([&] { return fleet.value()->fleet_stats().auto_respawns >= 1; }));
  supervisor.stop();
  EXPECT_GE(supervisor.stats().probe_failures, 2u);
  EXPECT_GE(supervisor.stats().auto_respawns, 1u);

  // Warm restart: the respawned worker's history depth equals the
  // checkpointed depth — the acceptance bar of the recovery subsystem.
  const auto stats = fleet.value()->fleet_stats();
  EXPECT_GE(stats.restore_hits, 1u);
  EXPECT_EQ(stats.restore_misses, 0u);
  EXPECT_DOUBLE_EQ(stats.warm_start_ratio, 1.0);
  EXPECT_EQ(fleet.value()->worker_history_depth(victim), checkpointed_depth);
  EXPECT_TRUE(fleet.value()->worker_stats(victim).live);
  EXPECT_EQ(fleet.value()->live_workers(), 2u);

  // The arc re-attests: the broker's next search lands after exactly one
  // transparent re-handshake.
  EXPECT_TRUE(broker->search("after recovery").is_ok());
}

TEST_P(FleetRecoveryTest, DrainSealsFinalCheckpointForRollingRestart) {
  auto fleet = ProxyFleet::create(nullptr, authority_, fleet_options(2));
  ASSERT_TRUE(fleet.is_ok());
  const testutil::ServedProxy served(GetParam(), *fleet.value());
  auto broker = served.broker(authority_, fleet.value()->measurement(), 2);
  ASSERT_TRUE(broker->connect().is_ok());
  const std::size_t target = fleet.value()->owner_of(broker->session_id());
  // 6 queries with interval 4: the periodic path sealed at depth 4 only.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(broker->search("rolling " + std::to_string(i)).is_ok());
  }

  // Graceful drain seals the full depth; the respawn restores all 6 —
  // a rolling restart loses nothing, crash recovery loses at most one
  // interval.
  ASSERT_TRUE(fleet.value()->drain(target).is_ok());
  ASSERT_TRUE(fleet.value()->respawn(target).is_ok());
  EXPECT_EQ(fleet.value()->worker_history_depth(target), 6u);
  EXPECT_GE(fleet.value()->fleet_stats().restore_hits, 1u);
  EXPECT_TRUE(broker->search("after rolling restart").is_ok());
}

INSTANTIATE_TEST_SUITE_P(Transports, FleetRecoveryTest,
                         ::testing::Values(Transport::kTcp,
                                           Transport::kInProcess),
                         testutil::transport_name);

TEST_F(FleetSupervisorTest, HungWorkerProbeTimesOutAndIsRespawned) {
  // A HUNG enclave (wedged ecall, not a crashed one) used to block the
  // probe loop forever. The probe deadline turns it into a detectable
  // failure: timeout-counted probes, a drain WITHOUT the final seal, and a
  // respawn — while the healthy worker keeps answering.
  auto fleet = ProxyFleet::create(nullptr, authority_,
                                  fleet_options(2, /*checkpointing=*/false));
  ASSERT_TRUE(fleet.is_ok());

  // Wedge worker 0's `request` ecall (heartbeats route through it): every
  // probe parks until the gate releases. Host-side fault injection via the
  // same re-register seam the failure-injection tests use.
  struct HangGate {
    Mutex mutex;
    CondVar cv;
    bool released = false;
  };
  auto gate = std::make_shared<HangGate>();
  auto victim = fleet.value()->worker_proxy(0);
  ASSERT_NE(victim, nullptr);
  victim->host_enclave().register_ecall(
      sgx::EcallId::kRequest, [gate](ByteSpan) -> Result<Bytes> {
        MutexLock lock(gate->mutex);
        while (!gate->released) gate->cv.wait(gate->mutex);
        return unavailable("wedged enclave released");
      });

  auto options = fast_probe();
  options.probe_budget = 20 * kMilli;
  FleetSupervisor supervisor(*fleet.value(), options);

  EXPECT_TRUE(
      eventually([&] { return fleet.value()->fleet_stats().auto_respawns >= 1; }));
  EXPECT_TRUE(
      eventually([&] { return supervisor.stats().probe_timeouts >= 2; }));

  // The replacement answers probes; the healthy worker was never starved
  // behind the hung probe.
  EXPECT_TRUE(eventually([&] { return fleet.value()->heartbeat(0).is_ok(); }));
  EXPECT_TRUE(fleet.value()->heartbeat(1).is_ok());
  EXPECT_TRUE(fleet.value()->worker_stats(0).live);
  EXPECT_EQ(fleet.value()->live_workers(), 2u);

  // Release the wedged ecall BEFORE stopping: stop() joins the abandoned
  // prober, which is still parked inside it.
  {
    MutexLock lock(gate->mutex);
    gate->released = true;
    gate->cv.notify_all();
  }
  supervisor.stop();
  const auto stats = supervisor.stats();
  EXPECT_GE(stats.probe_timeouts, 2u);
  EXPECT_GE(stats.probe_failures, stats.probe_timeouts);
  EXPECT_GE(stats.auto_respawns, 1u);
}

TEST_F(FleetSupervisorTest, FleetRestartOverExistingCheckpointsIsWarm) {
  {
    auto fleet = ProxyFleet::create(nullptr, authority_, fleet_options(2));
    ASSERT_TRUE(fleet.is_ok());
    auto broker = testutil::in_process_broker(*fleet.value(), authority_,
                                              fleet.value()->measurement(), 3);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(broker.search("persisted " + std::to_string(i)).is_ok());
    }
    // Graceful fleet shutdown: drain is refused for the last live worker,
    // so seal explicitly through the per-worker stats... the workers'
    // periodic checkpoints (interval 4) are already on disk.
  }
  auto fleet = ProxyFleet::create(nullptr, authority_, fleet_options(2));
  ASSERT_TRUE(fleet.is_ok());
  // The worker that served the session restored its periodic checkpoint.
  std::size_t restored_total = 0;
  for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
    restored_total += fleet.value()->worker_history_depth(w);
  }
  EXPECT_EQ(restored_total, 8u);  // newest periodic seal (interval 4)
  EXPECT_GE(fleet.value()->fleet_stats().restore_hits, 1u);
}

}  // namespace
}  // namespace xsearch::net
