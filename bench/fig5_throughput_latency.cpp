// Figure 5 — latency vs offered throughput for X-Search, PEAS and Tor.
//
// Paper claims (§6.3): X-Search serves ~25,000 req/s with sub-second
// latency; PEAS saturates around 1,000 req/s; Tor around 100 req/s — one
// and two orders of magnitude apart. Measurements are taken with a
// wrk2-style open-loop generator and the proxies configured to reply
// immediately (no live engine), isolating proxy capacity.
//
// Every mechanism is driven through the unified PrivateSearchClient API:
// the client is built by name from the MechanismRegistry, and the load is
// offered through the asynchronous batch path (submit/poll on the client's
// own worker lanes), so any registered mechanism — including a sixth one —
// is benchable by passing its name on the command line.
//
// What is real here: every request executes the full proxy compute path
// (X-Search: channel AEAD open/seal + Algorithm 1 + history update inside
// the enclave boundary; PEAS: hybrid envelope decryption + co-occurrence
// fake generation; Tor: three onion layers each way). What is calibrated:
// a per-request stack/network service cost per system
// (netsim::service_costs::for_mechanism) sized so the saturation knees land
// at the paper's magnitudes — documented in EXPERIMENTS.md.
//
// The special name "xsearch-remote" drives the same saturation load over
// real TCP: an in-process ProxyServer fronts the proxy, the unified client
// is api::make_remote_client, and each batch lane holds its own attested
// session — so the bench exercises the bounded SessionTable and the
// pool-served connection path concurrently, end to end, and reports the
// session-lifecycle counters afterwards.
//
// The special name "xsearch-sessions" is the concurrent-scaling mode: one
// shared saturation proxy, S closed-loop client sessions on S threads for
// S in {1,2,4,8}. With per-session RNG streams and reader/writer history
// there is no global lock on the query path, so aggregate throughput should
// track the hardware parallelism available instead of flattening against a
// serialization point (on a 1-core container it stays level; the thing to
// check is that it does not *collapse* as sessions are added).
//
// The special name "xsearch-fleet" is the scale-out mode: a ProxyFleet of
// {1,2,4} consistent-hash-routed workers behind one ProxyServer, swept
// against wire batch sizes {1,4,16} (one AEAD seal/open and one TCP round
// trip per batched frame). See run_fleet_sweep below.
//
// The special name "xsearch-recovery" (also reachable as
// --mode=xsearch-recovery) is the kill-and-recover mode: a 2-worker fleet
// under a FleetSupervisor, closed-loop TCP load, one worker's enclave
// killed mid-run. Measured per phase (pre-kill / recovery / post-recovery):
// qps and the victim's history depth — decoy quality — right after the
// automatic respawn. Run twice: warm (sealed checkpoints on, the respawn
// restores the history) vs cold (no checkpoints, the respawn reopens the
// paper's cold-start obfuscation window). See run_recovery_sweep below.
//
// The special name "xsearch-idle-sweep" is the connection-scaling mode:
// N mostly-idle attested sessions (N in {1k,10k,50k}, clamped to the fd
// rlimit) held concurrently against the same saturation ProxyHandler
// behind two server architectures — the epoll reactor (ProxyServer) and a
// thread-per-connection baseline resurrected in this bench. Reported per
// leg: RSS growth per held session and the p50/p99 wakeup-to-reply time of
// a query sent on an already-idle session. A leg that cannot reach N
// (thread spawn failure, refused connections) is marked "cannot". See
// run_idle_sweep below.
//
// The special name "xsearch-degraded" is the brownout mode: a 2-worker
// fleet with a live engine whose calls are degraded mid-run through the
// proxies' host-side fault hook (FaultPlan::engine_call — injected latency
// + failures). The per-proxy engine circuit breaker trips, sheds the
// engine path fast, and half-open probes restore it once the fault window
// closes. Measured per phase (healthy / degraded / recovered): goodput,
// failed searches (shed), and p99 latency. See run_degraded_sweep below.
//
// Besides the stdout table, every run writes machine-readable JSON (default
// BENCH_fig5.json, or pass --json=PATH) with one object per measured row,
// uploaded by the CI release-bench job so perf numbers accumulate per PR.
//
// Run: ./build/bench/fig5_throughput_latency [--json=PATH] [--mode=NAME]
//      [mechanism...]
//      (default: xsearch peas tor; any registered name, xsearch-remote,
//      xsearch-sessions, xsearch-fleet, xsearch-recovery,
//      xsearch-degraded or xsearch-idle-sweep;
//      --mode=NAME is shorthand for appending NAME to the mechanism list)
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/load_driver.hpp"
#include "api/registry.hpp"
#include "api/remote.hpp"
#include "api/xsearch_options.hpp"
#include "bench_common.hpp"
#include "crypto/x25519.hpp"
#include "loadgen/loadgen.hpp"
#include "net/chaos.hpp"
#include "net/fleet_supervisor.hpp"
#include "net/frame_protocol.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "net/frame.hpp"
#include "netsim/netsim.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace {

using namespace xsearch;  // NOLINT

constexpr std::size_t kWorkers = 4;

/// One measured row, kept for the JSON dump. `sessions` is only meaningful
/// for the xsearch-sessions sweep, `workers`/`batch` for the xsearch-fleet
/// sweep, `mode`/`phase`/`history_depth` for the xsearch-recovery sweep
/// (0/empty elsewhere).
struct JsonRow {
  std::string system;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t dropped = 0;
  std::size_t sessions = 0;
  std::size_t workers = 0;
  std::size_t batch = 0;
  std::string mode;   // "warm" / "cold" (recovery) or "reactor" / "threads"
  std::string phase;  // "pre-kill" / ... (recovery) or "ok" / "cannot" (idle)
  std::size_t history_depth = 0;
  /// xsearch-idle-sweep only: resident-memory growth per held session.
  double rss_kb = 0.0;
};

std::vector<JsonRow> g_rows;

void print_row(const std::string& system, const loadgen::LoadReport& report) {
  std::printf("%-16s %10.0f %12.1f %10.3f %10.3f %10.3f %8llu\n",
              system.c_str(), report.offered_rps, report.achieved_rps,
              report.mean_ms(), report.p50_ms(), report.p99_ms(),
              static_cast<unsigned long long>(report.dropped));
  g_rows.push_back({system, report.offered_rps, report.achieved_rps,
                    report.mean_ms(), report.p50_ms(), report.p99_ms(),
                    report.dropped, 0, 0, 0});
}

/// Minimal JSON string escaping (mechanism names come from argv).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"figure\": \"fig5_throughput_latency\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const JsonRow& r = g_rows[i];
    std::fprintf(f,
                 "    {\"system\": \"%s\", \"offered_rps\": %.1f, "
                 "\"achieved_rps\": %.1f, \"mean_ms\": %.3f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"dropped\": %llu, \"sessions\": %zu, "
                 "\"workers\": %zu, \"batch\": %zu, \"mode\": \"%s\", "
                 "\"phase\": \"%s\", \"history_depth\": %zu, "
                 "\"rss_kb_per_session\": %.2f}%s\n",
                 json_escape(r.system).c_str(), r.offered_rps, r.achieved_rps, r.mean_ms,
                 r.p50_ms, r.p99_ms, static_cast<unsigned long long>(r.dropped),
                 r.sessions, r.workers, r.batch, json_escape(r.mode).c_str(),
                 json_escape(r.phase).c_str(), r.history_depth, r.rss_kb,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Concurrent-session closed-loop sweep over one shared saturation proxy.
void run_session_sweep(const api::ClientConfig& config) {
  xsearch::sgx::AttestationAuthority authority(
      xsearch::to_bytes("fig5-sessions-root"));
  core::XSearchProxy::Options options = api::xsearch_proxy_options(config);
  options.contact_engine = false;
  auto proxy = core::XSearchProxy::create(nullptr, authority, options);
  if (!proxy.is_ok()) {
    std::fprintf(stderr, "xsearch-sessions proxy: %s\n",
                 proxy.status().to_string().c_str());
    return;
  }

  constexpr auto kDuration = std::chrono::milliseconds(400);
  for (const std::size_t sessions : {1u, 2u, 4u, 8u}) {
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> ready{0};
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        net::RemoteBroker broker(net::in_process_connector(*proxy.value()),
                                 authority, proxy.value()->measurement(),
                                 9000 + s);
        // Handshake before the clock starts: attestation serializes on
        // handshake_mutex_ and would bias S=1 vs S=8 if timed.
        const bool connected = broker.connect().is_ok();
        ready.fetch_add(1, std::memory_order_release);
        if (!connected) return;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::uint64_t done = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (broker.search("concurrent scaling probe").is_ok()) ++done;
        }
        completed.fetch_add(done, std::memory_order_relaxed);
      });
    }
    while (ready.load(std::memory_order_acquire) < sessions)
      std::this_thread::yield();
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(kDuration);
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double rps = static_cast<double>(completed.load()) / secs;
    std::printf("%-16s %9zu* %12.1f %10s %10s %10s %8s\n", "xsearch-sessions",
                sessions, rps, "-", "-", "-", "-");
    g_rows.push_back({"xsearch-sessions", 0.0, rps, 0.0, 0.0, 0.0, 0,
                      sessions});
  }
  std::printf("# *closed-loop: column is concurrent sessions, not offered rps\n");
}

/// Fleet scale-out sweep: {1,2,4} consistent-hash-routed proxy workers
/// behind one ProxyServer × wire batch sizes {1,4,16}, driven closed-loop
/// by 4 concurrent TCP sessions. Fixed offered load (every client thread
/// saturates), so the figure of merit is aggregate qps as workers grow and
/// per-query wire cost as batches grow: each batched frame pays ONE AEAD
/// seal/open + TCP round trip for `batch` queries. On a single-core runner
/// worker scaling reads as "does not collapse"; the batch column shows the
/// real amortization either way (aead_per_query = 2/batch).
void run_fleet_sweep(const api::ClientConfig& config) {
  xsearch::sgx::AttestationAuthority authority(
      xsearch::to_bytes("fig5-fleet-root"));
  constexpr std::size_t kClientSessions = 4;
  constexpr auto kDuration = std::chrono::milliseconds(300);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    net::ProxyFleet::Options fleet_options =
        api::fleet_options(config, {.workers = workers, .virtual_nodes = 64});
    fleet_options.proxy.contact_engine = false;  // saturation mode
    auto fleet = net::ProxyFleet::create(nullptr, authority, fleet_options);
    if (!fleet.is_ok()) {
      std::fprintf(stderr, "xsearch-fleet: %s\n",
                   fleet.status().to_string().c_str());
      return;
    }
    auto server = net::ProxyServer::start(*fleet.value());
    if (!server.is_ok()) {
      std::fprintf(stderr, "xsearch-fleet server: %s\n",
                   server.status().to_string().c_str());
      return;
    }

    for (const std::size_t batch : {1u, 4u, 16u}) {
      std::atomic<bool> go{false};
      std::atomic<bool> stop{false};
      std::atomic<std::size_t> ready{0};
      std::atomic<std::uint64_t> completed{0};
      std::vector<std::thread> threads;
      threads.reserve(kClientSessions);
      for (std::size_t s = 0; s < kClientSessions; ++s) {
        threads.emplace_back([&, s] {
          net::RemoteBroker broker("127.0.0.1", server.value()->port(),
                                   authority, fleet.value()->measurement(),
                                   7000 + 13 * s + batch);
          const bool connected = broker.connect().is_ok();
          ready.fetch_add(1, std::memory_order_release);
          if (!connected) return;
          std::vector<std::string> queries(batch, "fleet scaling probe");
          while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
          std::uint64_t done = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            if (batch == 1) {
              if (broker.search(queries[0]).is_ok()) ++done;
            } else {
              auto outcomes = broker.search_batch(queries);
              if (outcomes.is_ok()) done += outcomes.value().size();
            }
          }
          completed.fetch_add(done, std::memory_order_relaxed);
        });
      }
      while (ready.load(std::memory_order_acquire) < kClientSessions)
        std::this_thread::yield();
      const auto t0 = std::chrono::steady_clock::now();
      go.store(true, std::memory_order_release);
      std::this_thread::sleep_for(kDuration);
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : threads) t.join();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double qps = static_cast<double>(completed.load()) / secs;
      const double mean_ms =
          completed.load() == 0
              ? 0.0
              : 1e3 * secs * kClientSessions / static_cast<double>(completed.load());
      std::printf("%-16s %4zuw %4zub %12.1f %10.3f %10s %10s %8s\n",
                  "xsearch-fleet", workers, batch, qps, mean_ms, "-", "-", "-");
      g_rows.push_back({"xsearch-fleet", 0.0, qps, mean_ms, 0.0, 0.0, 0, 0,
                        workers, batch});
    }

    std::uint64_t routed_total = 0;
    std::size_t workers_hit = 0;
    for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
      const auto stats = fleet.value()->worker_stats(w);
      routed_total += stats.routed;
      workers_hit += stats.sessions.created > 0 ? 1 : 0;
    }
    std::printf("# xsearch-fleet workers=%zu: routed=%llu workers_with_sessions=%zu\n",
                workers, static_cast<unsigned long long>(routed_total),
                workers_hit);
    server.value()->stop();
  }
  std::printf("# *closed-loop: columns are workers/batch; mean_ms is per query\n");
}

/// Kill-and-recover sweep: 2 fleet workers behind one ProxyServer, 2
/// closed-loop TCP sessions, a FleetSupervisor probing heartbeats. After a
/// pre-kill measurement window one worker's enclave is crashed; the
/// supervisor detects it, drains the arc and respawns. Measured per phase:
/// aggregate qps, plus the victim's history depth right after the respawn —
/// the decoy-quality number that separates warm (checkpointed) from cold
/// restarts. Run twice, warm then cold.
void run_recovery_sweep(const api::ClientConfig& base_config) {
  constexpr std::size_t kClientSessions = 2;
  constexpr auto kPhaseWindow = std::chrono::milliseconds(300);
  constexpr const char* kPhaseNames[] = {"pre-kill", "recovery", "post-recovery"};

  for (const bool warm : {true, false}) {
    api::ClientConfig config = base_config;
    std::filesystem::path checkpoint_dir;
    if (warm) {
      checkpoint_dir =
          std::filesystem::temp_directory_path() / "fig5_recovery_ckpt";
      std::filesystem::remove_all(checkpoint_dir);
      config.recovery.checkpoint_dir = checkpoint_dir.string();
      // Closed-loop in-process rates reach tens of kqps: a tighter interval
      // would turn the row into a checkpoint-write bench instead of a
      // recovery one (each seal snapshots the whole history).
      config.recovery.checkpoint_interval_queries = 512;
    } else {
      config.recovery.checkpoint_dir.clear();
    }
    config.recovery.probe_interval = 5 * kMilli;
    config.recovery.failure_threshold = 2;

    xsearch::sgx::AttestationAuthority authority(
        xsearch::to_bytes("fig5-recovery-root"));
    net::ProxyFleet::Options fleet_options =
        api::fleet_options(config, {.workers = 2, .virtual_nodes = 64});
    fleet_options.proxy.contact_engine = false;  // saturation mode
    auto fleet = net::ProxyFleet::create(nullptr, authority, fleet_options);
    if (!fleet.is_ok()) {
      std::fprintf(stderr, "xsearch-recovery: %s\n",
                   fleet.status().to_string().c_str());
      return;
    }
    auto server = net::ProxyServer::start(*fleet.value());
    if (!server.is_ok()) {
      std::fprintf(stderr, "xsearch-recovery server: %s\n",
                   server.status().to_string().c_str());
      return;
    }
    net::FleetSupervisor supervisor(*fleet.value(),
                                    api::supervisor_options(config));

    std::atomic<int> phase{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> ready{0};
    std::array<std::atomic<std::uint64_t>, 3> completed{};
    std::array<std::atomic<std::uint64_t>, 3> failed{};
    std::vector<std::uint64_t> session_ids(kClientSessions, 0);
    std::vector<std::thread> threads;
    threads.reserve(kClientSessions);
    for (std::size_t s = 0; s < kClientSessions; ++s) {
      threads.emplace_back([&, s] {
        net::RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                                 fleet.value()->measurement(), 4200 + 17 * s);
        const bool connected = broker.connect().is_ok();
        if (connected) session_ids[s] = broker.session_id();
        ready.fetch_add(1, std::memory_order_release);
        if (!connected) return;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        while (!stop.load(std::memory_order_relaxed)) {
          const int p = phase.load(std::memory_order_relaxed);
          if (broker.search("recovery probe").is_ok()) {
            completed[static_cast<std::size_t>(p)].fetch_add(
                1, std::memory_order_relaxed);
          } else {
            failed[static_cast<std::size_t>(p)].fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      });
    }
    while (ready.load(std::memory_order_acquire) < kClientSessions)
      std::this_thread::yield();
    // Kill the worker that owns session 0 so the dip is visible from a
    // client actually parked on the dead arc.
    const std::size_t victim = fleet.value()->owner_of(session_ids[0]);

    std::array<double, 3> phase_secs{};
    const auto run_phase = [&](int index, auto&& mid) {
      const auto t0 = std::chrono::steady_clock::now();
      phase.store(index, std::memory_order_relaxed);
      mid();
      std::this_thread::sleep_for(kPhaseWindow);
      phase_secs[static_cast<std::size_t>(index)] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    };

    go.store(true, std::memory_order_release);
    run_phase(0, [] {});
    const std::size_t depth_before_kill =
        fleet.value()->worker_history_depth(victim);
    run_phase(1, [&] { (void)fleet.value()->kill_worker(victim); });
    // The decoy table the respawned worker STARTED from (warm = last
    // checkpoint, cold = 0). checkpoint.restored_entries is immutable for
    // the revived proxy — the live history_depth would already include
    // post-respawn traffic that re-hashed onto the arc, which in cold mode
    // can erase the warm/cold gap this sweep exists to show.
    const std::size_t depth_after_respawn =
        fleet.value()->worker_stats(victim).checkpoint.restored_entries;
    run_phase(2, [] {});
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();

    const char* mode = warm ? "warm" : "cold";
    const auto stats = fleet.value()->fleet_stats();
    for (int p = 0; p < 3; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      const double qps =
          static_cast<double>(completed[idx].load()) / phase_secs[idx];
      const std::size_t depth = p == 0 ? depth_before_kill : depth_after_respawn;
      std::printf("%-16s %5s %13s %12.1f %10s %10s %10s %8llu depth=%zu\n",
                  "xsearch-recovery", mode, kPhaseNames[idx], qps, "-", "-", "-",
                  static_cast<unsigned long long>(failed[idx].load()), depth);
      JsonRow row;
      row.system = "xsearch-recovery";
      row.achieved_rps = qps;
      row.dropped = failed[idx].load();
      row.workers = 2;
      row.mode = mode;
      row.phase = kPhaseNames[idx];
      row.history_depth = depth;
      g_rows.push_back(row);
    }
    std::printf("# xsearch-recovery %s: auto_respawns=%llu restore_hits=%llu "
                "restore_misses=%llu warm_start_ratio=%.2f\n",
                mode, static_cast<unsigned long long>(stats.auto_respawns),
                static_cast<unsigned long long>(stats.restore_hits),
                static_cast<unsigned long long>(stats.restore_misses),
                stats.warm_start_ratio);
    server.value()->stop();
    if (warm) std::filesystem::remove_all(checkpoint_dir);
  }
  std::printf("# *kill-and-recover: dropped column is failed searches in the "
              "phase; depth is the victim's pre-kill history, then its "
              "restored-checkpoint depth\n");
}

/// Brownout sweep: a 2-worker fleet with a live engine, 2 closed-loop TCP
/// sessions with end-to-end request budgets, and a mid-run window where
/// FaultPlan::engine_call degrades every engine round trip (injected delay
/// + a failure rate past the breaker's trip ratio). The per-proxy engine
/// circuit breaker converts the brownout into fast typed failures instead
/// of budget-burning slow ones, then half-open probes re-close it once the
/// window ends. Reported per phase: goodput (successful qps), failed
/// searches, and the client-observed p99.
void run_degraded_sweep(const api::ClientConfig& base_config,
                        const engine::SearchEngine& engine) {
  constexpr std::size_t kClientSessions = 2;
  constexpr auto kPhaseWindow = std::chrono::milliseconds(300);
  constexpr const char* kPhaseNames[] = {"healthy", "degraded", "recovered"};

  api::ClientConfig config = base_config;
  config.contact_engine = true;  // the engine path is the subject here

  // Engine-path fault plan, gated on the degraded phase below: 60% of
  // engine calls fail (past the 50% trip ratio), the rest eat a 2ms stall.
  net::FaultPlan::Options plan_options;
  plan_options.seed = 42;
  plan_options.fault_ops = 1'000'000;  // never exhausts inside the window
  plan_options.delay_p = plan_options.partial_p = plan_options.drop_p = 0.0;
  plan_options.reset_p = plan_options.garbage_p = 0.0;
  plan_options.engine_delay_p = 0.3;
  plan_options.engine_delay = 2 * kMilli;
  plan_options.engine_fail_p = 0.6;
  auto plan = std::make_shared<net::FaultPlan>(plan_options);
  auto degraded = std::make_shared<std::atomic<bool>>(false);

  xsearch::sgx::AttestationAuthority authority(
      xsearch::to_bytes("fig5-degraded-root"));
  net::ProxyFleet::Options fleet_options =
      api::fleet_options(config, {.workers = 2, .virtual_nodes = 64});
  fleet_options.proxy.contact_engine = true;
  fleet_options.proxy.engine_fault_hook = [plan, degraded]() -> Status {
    if (!degraded->load(std::memory_order_relaxed)) return {};
    return plan->engine_call();
  };
  fleet_options.proxy.engine_breaker_enabled = true;
  fleet_options.proxy.engine_breaker.window = 32;
  fleet_options.proxy.engine_breaker.min_samples = 8;
  fleet_options.proxy.engine_breaker.failure_ratio = 0.5;
  fleet_options.proxy.engine_breaker.open_cooldown = 50 * kMilli;
  fleet_options.proxy.engine_breaker.half_open_probes = 2;
  auto fleet = net::ProxyFleet::create(&engine, authority, fleet_options);
  if (!fleet.is_ok()) {
    std::fprintf(stderr, "xsearch-degraded: %s\n",
                 fleet.status().to_string().c_str());
    return;
  }
  auto server = net::ProxyServer::start(*fleet.value());
  if (!server.is_ok()) {
    std::fprintf(stderr, "xsearch-degraded server: %s\n",
                 server.status().to_string().c_str());
    return;
  }

  std::atomic<int> phase{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  std::array<std::atomic<std::uint64_t>, 3> completed{};
  std::array<std::atomic<std::uint64_t>, 3> failed{};
  // Client-observed per-phase latencies, one slab per session (merged after
  // the join, so the measuring threads never share a vector).
  std::vector<std::array<std::vector<double>, 3>> latencies(kClientSessions);
  std::vector<std::thread> threads;
  threads.reserve(kClientSessions);
  for (std::size_t s = 0; s < kClientSessions; ++s) {
    threads.emplace_back([&, s] {
      net::RemoteBroker::Options broker_options;
      broker_options.request_budget = 500 * kMilli;
      broker_options.connect_budget = kSecond;
      broker_options.retry.max_attempts = 2;
      broker_options.retry.initial_backoff = kMilli;
      broker_options.retry.max_backoff = 10 * kMilli;
      net::RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                               fleet.value()->measurement(), 6100 + 19 * s,
                               broker_options);
      const bool connected = broker.connect().is_ok();
      ready.fetch_add(1, std::memory_order_release);
      if (!connected) return;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const int p = phase.load(std::memory_order_relaxed);
        const auto idx = static_cast<std::size_t>(p);
        const auto t0 = std::chrono::steady_clock::now();
        const bool ok = broker.search("brownout probe").is_ok();
        const double ms =
            1e3 *
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        latencies[s][idx].push_back(ms);
        (ok ? completed : failed)[idx].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < kClientSessions)
    std::this_thread::yield();

  std::array<double, 3> phase_secs{};
  const auto run_phase = [&](int index, auto&& mid) {
    const auto t0 = std::chrono::steady_clock::now();
    phase.store(index, std::memory_order_relaxed);
    mid();
    std::this_thread::sleep_for(kPhaseWindow);
    phase_secs[static_cast<std::size_t>(index)] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };

  go.store(true, std::memory_order_release);
  run_phase(0, [] {});
  run_phase(1, [&] { degraded->store(true, std::memory_order_relaxed); });
  run_phase(2, [&] { degraded->store(false, std::memory_order_relaxed); });
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  for (int p = 0; p < 3; ++p) {
    const auto idx = static_cast<std::size_t>(p);
    std::vector<double> merged;
    for (std::size_t s = 0; s < kClientSessions; ++s) {
      merged.insert(merged.end(), latencies[s][idx].begin(),
                    latencies[s][idx].end());
    }
    std::sort(merged.begin(), merged.end());
    const double p99 =
        merged.empty() ? 0.0 : merged[merged.size() * 99 / 100];
    const double goodput =
        static_cast<double>(completed[idx].load()) / phase_secs[idx];
    std::printf("%-16s %13s %12.1f %10s %10s %10.3f %8llu\n",
                "xsearch-degraded", kPhaseNames[idx], goodput, "-", "-", p99,
                static_cast<unsigned long long>(failed[idx].load()));
    JsonRow row;
    row.system = "xsearch-degraded";
    row.achieved_rps = goodput;
    row.p99_ms = p99;
    row.dropped = failed[idx].load();
    row.workers = 2;
    row.mode = "engine-chaos";
    row.phase = kPhaseNames[idx];
    g_rows.push_back(row);
  }
  std::uint64_t trips = 0;
  std::uint64_t rejected = 0;
  for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
    const auto proxy = fleet.value()->worker_proxy(w);
    if (proxy == nullptr) continue;
    const auto stats = proxy->engine_breaker_stats();
    trips += stats.trips;
    rejected += stats.rejected;
  }
  std::printf("# xsearch-degraded: engine_faults=%llu breaker_trips=%llu "
              "breaker_rejected=%llu\n",
              static_cast<unsigned long long>(plan->faults_injected()),
              static_cast<unsigned long long>(trips),
              static_cast<unsigned long long>(rejected));
  server.value()->stop();
  std::printf("# *brownout: dropped column is failed searches in the phase; "
              "p99 is client-observed\n");
}

// ---- idle-session sweep -----------------------------------------------------

/// Current VmRSS in kB from /proc/self/status (0 if unreadable).
std::size_t vm_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Minimal thread-per-connection frame server over the same ProxyHandler —
/// the pre-reactor architecture, resurrected as the idle sweep's baseline
/// leg. One blocking thread per accepted connection, parked in read_frame()
/// while its session idles: the per-session cost is a whole thread (stack +
/// kernel task) instead of the reactor's buffer-and-table-entry.
class ThreadPerConnectionServer {
 public:
  static std::unique_ptr<ThreadPerConnectionServer> start(
      core::ProxyHandler& proxy) {
    auto listener = net::TcpListener::bind(0);
    if (!listener) return nullptr;
    return std::unique_ptr<ThreadPerConnectionServer>(
        new ThreadPerConnectionServer(proxy, std::move(listener).value()));
  }

  ~ThreadPerConnectionServer() { stop(); }

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] bool spawn_failed() const {
    return spawn_failed_.load(std::memory_order_relaxed);
  }

  void stop() {
    if (stopping_.exchange(true)) return;
    listener_.close();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::shared_ptr<net::TcpStream>> live;
    std::vector<std::thread> threads;
    {
      MutexLock lock(mutex_);
      live.swap(live_);
      threads.swap(threads_);
    }
    for (const auto& stream : live) stream->shutdown_both();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
    listener_.release();
  }

 private:
  ThreadPerConnectionServer(core::ProxyHandler& proxy,
                            net::TcpListener listener)
      : proxy_(&proxy), listener_(std::move(listener)) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  void accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      auto accepted = listener_.accept();
      if (!accepted) break;  // listener closed
      auto stream =
          std::make_shared<net::TcpStream>(std::move(accepted).value());
      try {
        std::thread worker([this, stream] { serve(*stream); });
        MutexLock lock(mutex_);
        live_.push_back(stream);
        threads_.push_back(std::move(worker));
      } catch (const std::system_error&) {
        // The architecture's hard wall: no thread, no connection.
        spawn_failed_.store(true, std::memory_order_relaxed);
        (void)net::write_frame(
            *stream, net::FrameType::kErrorStatus,
            net::encode_error_status(
                overloaded("thread-per-connection: cannot spawn")));
        stream->shutdown_both();
      }
    }
  }

  void serve(net::TcpStream& stream) {
    // The reactor's frame protocol, driven by this connection's thread:
    // each frame read off the socket runs through an in-process connection
    // to the proxy, and its one reply frame goes back out.
    auto connection = net::in_process_connector(*proxy_)();
    if (!connection) return;
    net::ByteStream& protocol = *connection.value();
    while (!stopping_.load(std::memory_order_relaxed)) {
      auto frame = net::read_frame(stream);
      if (!frame) return;  // clean close or broken peer
      net::FrameWriteOptions forward;
      forward.budget_millis = frame.value().budget_millis;
      if (!net::write_frame(protocol, frame.value().type,
                            frame.value().payload, forward)
               .is_ok()) {
        return;
      }
      auto reply = net::read_frame(protocol);
      if (!reply || !net::write_frame(stream, reply.value().type,
                                      reply.value().payload)
                         .is_ok()) {
        return;
      }
      if (!protocol.valid()) return;  // the protocol closed the connection
    }
  }

  core::ProxyHandler* proxy_;
  net::TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> spawn_failed_{false};
  std::thread accept_thread_;
  Mutex mutex_;
  std::vector<std::shared_ptr<net::TcpStream>> live_ XS_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_ XS_GUARDED_BY(mutex_);
};

/// One idle-sweep leg: hold `sessions` attested, mostly-idle connections
/// against `port`, then measure RSS growth per session and wakeup-to-reply
/// on a sample of the held population.
/// Returns the leg's RSS growth per held session (kB).
double run_idle_leg(const xsearch::sgx::AttestationAuthority& authority,
                    const sgx::Measurement& measurement, std::uint16_t port,
                    std::size_t sessions, const char* mode,
                    const std::function<bool()>& architecture_failed) {
  const std::size_t rss_before = vm_rss_kb();

  std::vector<std::unique_ptr<net::RemoteBroker>> brokers;
  brokers.reserve(sessions);
  std::uint64_t connect_failures = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    auto broker = std::make_unique<net::RemoteBroker>(
        "127.0.0.1", port, authority, measurement, 8'000'000 + s);
    if (broker->connect().is_ok()) {
      brokers.push_back(std::move(broker));
    } else if (++connect_failures > 64) {
      break;  // systematic refusal: the leg cannot hold this population
    }
  }
  const std::size_t held = brokers.size();
  const std::size_t rss_after = vm_rss_kb();
  const double rss_kb_per_session =
      held == 0 || rss_after <= rss_before
          ? 0.0
          : static_cast<double>(rss_after - rss_before) /
                static_cast<double>(held);

  // Wakeup-to-reply: one query per sampled session, sent while the whole
  // population sits idle — the number a mostly-idle client actually feels.
  std::vector<double> wake_ms;
  std::uint64_t query_failures = 0;
  const std::size_t sample = std::min<std::size_t>(1000, held);
  if (sample > 0) {
    const std::size_t stride = held / sample;
    wake_ms.reserve(sample);
    for (std::size_t i = 0; i < sample; ++i) {
      auto& broker = *brokers[i * stride];
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = broker.search("idle wakeup probe").is_ok();
      const double ms =
          1e3 *
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (ok) {
        wake_ms.push_back(ms);
      } else {
        ++query_failures;
      }
    }
  }
  std::sort(wake_ms.begin(), wake_ms.end());
  const double p50 = wake_ms.empty() ? 0.0 : wake_ms[wake_ms.size() / 2];
  const double p99 =
      wake_ms.empty() ? 0.0 : wake_ms[wake_ms.size() * 99 / 100];

  const bool complete = held == sessions && query_failures == 0 &&
                        !architecture_failed();
  const std::uint64_t dropped = connect_failures + query_failures;
  std::printf("%-16s %6zu/%-6zu %8s %10.3f %10.3f %7.1fkB %8llu%s\n",
              "xsearch-idle", held, sessions, mode, p50, p99,
              rss_kb_per_session, static_cast<unsigned long long>(dropped),
              complete ? "" : "  CANNOT");
  JsonRow row;
  row.system = "xsearch-idle";
  row.sessions = held;
  row.p50_ms = p50;
  row.p99_ms = p99;
  row.dropped = dropped;
  row.mode = mode;
  row.phase = complete ? "ok" : "cannot";
  row.rss_kb = rss_kb_per_session;
  g_rows.push_back(row);
  return rss_kb_per_session;
}

/// Connection-scaling sweep: the reactor data plane vs thread-per-
/// connection, each holding N mostly-idle attested sessions in one
/// process (2 fds per session: client end + server end). The reactor's
/// idle session costs a receive buffer and a table entry; the baseline's
/// costs a parked thread — RSS per session and the ability to reach N at
/// all are the figures of merit (the paper's tens-of-thousands-of-users
/// claim, measured architecturally).
void run_idle_sweep(const api::ClientConfig& base_config) {
  // Lift the soft fd limit to the hard cap and size the targets to fit.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    rlimit raised = nofile;
    raised.rlim_cur = nofile.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &raised);
  }
  (void)::getrlimit(RLIMIT_NOFILE, &nofile);
  const std::size_t fd_budget =
      nofile.rlim_cur == RLIM_INFINITY
          ? (1u << 20)
          : static_cast<std::size_t>(nofile.rlim_cur);
  const std::size_t session_budget =
      fd_budget > 400 ? (fd_budget - 200) / 2 : 100;

  std::vector<std::size_t> targets;
  for (const std::size_t want : {1'000u, 10'000u, 50'000u}) {
    const std::size_t n = std::min<std::size_t>(want, session_budget);
    if (n < want) {
      std::printf("# xsearch-idle: target %zu clamped to %zu "
                  "(RLIMIT_NOFILE=%zu, 2 fds/session in-process)\n",
                  want, n, fd_budget);
    }
    if (targets.empty() || targets.back() != n) targets.push_back(n);
  }

  api::ClientConfig config = base_config;
  // Every held session lives in the enclave's session table concurrently.
  config.session_capacity = targets.back() + 64;

  std::printf("%-16s %13s %8s %10s %10s %9s %8s\n", "system", "held/target",
              "arch", "p50_ms", "p99_ms", "rss/sess", "dropped");
  for (const std::size_t sessions : targets) {
    double reactor_rss = 0.0;
    double threads_rss = 0.0;
    for (const bool reactor : {true, false}) {
      xsearch::sgx::AttestationAuthority authority(
          xsearch::to_bytes("fig5-idle-root"));
      core::XSearchProxy::Options options = api::xsearch_proxy_options(config);
      options.contact_engine = false;  // saturation mode
      auto proxy = core::XSearchProxy::create(nullptr, authority, options);
      if (!proxy.is_ok()) {
        std::fprintf(stderr, "xsearch-idle proxy: %s\n",
                     proxy.status().to_string().c_str());
        return;
      }
      if (reactor) {
        net::ProxyServer::Options server_options;
        server_options.workers = 2;  // per *request*, not per connection
        auto server =
            net::ProxyServer::start(*proxy.value(), 0, server_options);
        if (!server.is_ok()) {
          std::fprintf(stderr, "xsearch-idle server: %s\n",
                       server.status().to_string().c_str());
          return;
        }
        reactor_rss = run_idle_leg(authority, proxy.value()->measurement(),
                                   server.value()->port(), sessions, "reactor",
                                   [] { return false; });
        server.value()->stop();
      } else {
        auto server = ThreadPerConnectionServer::start(*proxy.value());
        if (server == nullptr) {
          std::fprintf(stderr, "xsearch-idle threaded server: bind failed\n");
          return;
        }
        threads_rss = run_idle_leg(authority, proxy.value()->measurement(),
                                   server->port(), sessions, "threads",
                                   [&server] { return server->spawn_failed(); });
        server->stop();
      }
    }
    // Both legs pay the same client-side cost (one RemoteBroker + one
    // enclave session each), so the difference is the server's idle cost:
    // a parked thread vs a receive buffer + connection entry.
    std::printf("# xsearch-idle %zu: threads leg pays +%.1fkB/session over "
                "the reactor (the parked per-connection thread)\n",
                sessions, threads_rss - reactor_rss);
  }
  std::printf("# *idle sweep: rss/sess is RSS growth per held session "
              "(client+server in-process); CANNOT = leg could not hold or "
              "serve the population\n");
}

loadgen::LoadConfig config_for(double rps) {
  loadgen::LoadConfig config;
  config.target_rps = rps;
  config.duration = 400 * kMilli;
  return config;
}

/// Offered-rate grids bracketing each system's saturation knee.
const std::vector<double>& rate_grid(const std::string& mechanism) {
  static const std::map<std::string, std::vector<double>> grids = {
      {"xsearch", {1000.0, 5000.0, 10000.0, 15000.0, 20000.0, 24000.0,
                   27000.0, 30000.0}},
      {"peas", {100.0, 300.0, 600.0, 800.0, 1000.0, 1200.0, 1500.0}},
      {"tor", {10.0, 25.0, 50.0, 75.0, 100.0, 120.0, 150.0}},
      // Real TCP round trips: the knee sits well below the in-process one.
      {"xsearch-remote", {500.0, 1000.0, 2000.0, 4000.0, 8000.0}},
  };
  static const std::vector<double> generic = {1000.0, 5000.0, 10000.0,
                                              20000.0, 40000.0};
  const auto it = grids.find(mechanism);
  return it != grids.end() ? it->second : generic;
}

/// Networked X-Search deployment for "xsearch-remote": a saturation-mode
/// proxy behind a pool-served ProxyServer on an ephemeral loopback port.
struct RemoteDeployment {
  RemoteDeployment() : authority(xsearch::to_bytes("fig5-remote-root")) {}

  xsearch::sgx::AttestationAuthority authority;
  std::unique_ptr<xsearch::core::XSearchProxy> proxy;
  std::unique_ptr<xsearch::net::ProxyServer> server;
};

std::unique_ptr<RemoteDeployment> start_remote_deployment(
    const api::ClientConfig& config) {
  auto deployment = std::make_unique<RemoteDeployment>();
  // Same translation as the in-process "xsearch" mechanism — the two must
  // not drift, or remote and in-process measurements stop being comparable.
  core::XSearchProxy::Options options = api::xsearch_proxy_options(config);
  options.contact_engine = false;  // saturation mode, no engine deployed
  auto proxy =
      core::XSearchProxy::create(nullptr, deployment->authority, options);
  if (!proxy.is_ok()) {
    std::fprintf(stderr, "xsearch-remote proxy: %s\n",
                 proxy.status().to_string().c_str());
    return nullptr;
  }
  deployment->proxy = std::move(proxy).value();
  auto server = net::ProxyServer::start(*deployment->proxy);
  if (!server.is_ok()) {
    std::fprintf(stderr, "xsearch-remote server: %s\n",
                 server.status().to_string().c_str());
    return nullptr;
  }
  deployment->server = std::move(server).value();
  return deployment;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("# Figure 5: latency vs offered throughput (proxy saturation)\n");

  std::string json_path = "BENCH_fig5.json";
  std::vector<std::string> mechanisms;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mechanisms.push_back(arg.substr(7));
    } else {
      mechanisms.push_back(arg);
    }
  }
  if (mechanisms.empty()) mechanisms = {"xsearch", "peas", "tor"};

  const auto bed = bench::make_testbed(
      {.num_users = 100, .total_queries = 10'000, .num_documents = 100});
  const std::string sample_query = bed->split.test.records()[0].text;

  std::printf("%-16s %10s %12s %10s %10s %10s %8s\n", "system", "offered",
              "achieved", "mean_ms", "p50_ms", "p99_ms", "dropped");

  std::uint64_t seed = 100;
  for (const auto& name : mechanisms) {
    api::ClientConfig config;
    config.contact_engine = false;  // reply-immediately saturation mode
    config.k = 3;
    config.top_k = 20;
    config.history_capacity = 100'000;
    config.batch_workers = kWorkers;
    config.seed = seed += 100;

    if (name == "xsearch-sessions") {
      run_session_sweep(config);
      continue;
    }
    if (name == "xsearch-fleet") {
      run_fleet_sweep(config);
      continue;
    }
    if (name == "xsearch-recovery") {
      run_recovery_sweep(config);
      continue;
    }
    if (name == "xsearch-degraded") {
      run_degraded_sweep(config, *bed->engine);
      continue;
    }
    if (name == "xsearch-idle-sweep") {
      run_idle_sweep(config);
      continue;
    }

    const bool remote = name == "xsearch-remote";
    std::unique_ptr<RemoteDeployment> deployment;
    api::ClientPtr client_ptr;
    if (remote) {
      // Real sockets supply the stack cost the in-process run calibrates.
      deployment = start_remote_deployment(config);
      if (deployment == nullptr) continue;
      client_ptr = api::make_remote_client(
          "127.0.0.1", deployment->server->port(), deployment->authority,
          deployment->proxy->measurement(), config);
    } else {
      config.stack_cost_per_request =
          netsim::service_costs::for_mechanism(name).cost_per_request;
      api::Backend backend;  // no engine: proxies answer without retrieval
      backend.fake_source = &bed->split.train;
      auto client = api::make_client(name, backend, config);
      if (!client.is_ok()) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(),
                     client.status().to_string().c_str());
        continue;
      }
      client_ptr = std::move(client).value();
    }
    if (const auto status = client_ptr->connect(); !status.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), status.to_string().c_str());
      continue;
    }

    for (const double rps : rate_grid(name)) {
      const auto report = api::run_open_loop_batch(
          *client_ptr, [&] { return sample_query; }, config_for(rps));
      print_row(name, report);
    }
    client_ptr->close();

    if (remote) {
      // One attested session per batch lane, all concurrently live: the
      // multi-threaded shared-table claim of §4.1, measured.
      const auto stats = deployment->proxy->session_stats();
      std::printf("# %s sessions: peak=%zu created=%llu evicted=%llu "
                  "connections=%llu reaped=%llu\n",
                  name.c_str(), stats.peak_active,
                  static_cast<unsigned long long>(stats.created),
                  static_cast<unsigned long long>(stats.evicted_lru +
                                                  stats.expired_ttl),
                  static_cast<unsigned long long>(
                      deployment->server->connections_served()),
                  static_cast<unsigned long long>(
                      deployment->server->connections_reaped()));
      deployment->server->stop();
    }
  }

  if (write_json(json_path)) {
    std::printf("# wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }
  std::printf("\n# paper: X-Search ~25k req/s sub-second; PEAS ~1k; Tor ~100\n");
  return 0;
}
