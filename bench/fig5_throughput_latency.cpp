// Figure 5 — latency vs offered throughput for X-Search, PEAS and Tor, and
// the deployment scenarios built on the same proxy.
//
// Paper claims (§6.3): X-Search serves ~25,000 req/s with sub-second
// latency; PEAS saturates around 1,000 req/s; Tor around 100 req/s. The
// paper measures with wrk2, an open-loop generator, over real users'
// queries, with the proxies replying immediately (no live engine).
//
// One table, one runner. Each entry of `kScenarios` names where the proxy
// runs (an in-process mechanism by registry name, one proxy behind a
// ProxyServer, or an N-worker ProxyFleet behind one, optionally supervised),
// how load arrives (an open-loop rate grid, loadgen::run_open_loop, or C
// closed-loop clients, loadgen::run_closed_loop), its sweep axes (rates,
// held sessions, fleet workers × batch size), named phases with an action
// run before each (kill a worker, degrade the engine), and the extra fields
// only it reports. A name not in the table runs as a registered mechanism
// on the generic open-loop grid, so a sixth mechanism is benchable by name.
//
// Every client is a spawn_sibling of one api::ClientPtr (make_client
// in-process, make_remote_client against the scenario's ProxyServer) and
// replays the testbed's held-out queries from its own offset. Every X-Search
// proxy is first primed with the training queries, so decoys come from real
// past queries. A worker the supervisor respawns is not primed: the
// recovery scenario contrasts a checkpointed (warm) restart with a cold one.
//
// Measured: X-Search's Figure 5 rows run over the real TCP stack — a
// ProxyServer's reactor, frame parsing, dispatch and channel AEAD around
// Algorithm 1 and the history update inside the enclave boundary. `xsearch`
// is the paper's configuration (the proxy replies without an engine);
// `xsearch-engine` adds the engine round trip and the Algorithm-2 filter to
// every request. Modelled: PEAS and Tor have no real relay hops here. Their
// rows execute the mechanisms' compute (envelope decryption + co-occurrence
// fakes; three onion layers each way) and then charge a calibrated per-call
// cost (`Scenario::modelled`, busy CPU on the load worker), which every such
// row reports as `modelled_us`.
//
// Every row carries `system` (the scenario name), its sweep labels,
// completed and failed queries (failed includes open-loop drops),
// achieved_rps (successful queries per second) and mean/p50/p99 latency per
// call (one query, or one batch), then the scenario's extras. Rows go to
// stdout and to JSON (BENCH_fig5.json, or --json=PATH). The run exits
// non-zero if a scenario cannot be deployed or a row completed nothing or
// reports a zero p99.
//
// Run: ./build-release/bench/fig5_throughput_latency [--json=PATH]
//      [scenario...]   (default: every scenario in kScenarios)
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "api/registry.hpp"
#include "api/remote.hpp"
#include "api/xsearch_options.hpp"
#include "bench_common.hpp"
#include "loadgen/loadgen.hpp"
#include "net/chaos.hpp"
#include "net/fleet_supervisor.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "netsim/netsim.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace {

using namespace xsearch;  // NOLINT

/// One measured phase.
constexpr Nanos kWindow = 400 * kMilli;
/// Load workers (and client sessions) of the open-loop scenarios.
constexpr std::size_t kOpenLoopWorkers = 4;

// ---- rows -------------------------------------------------------------------

/// One output field; `value` is already JSON (a number or a quoted string).
struct Field {
  std::string key;
  std::string value;
};

Field num(std::string key, double value, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return {std::move(key), buf};
}

Field count(std::string key, std::uint64_t value) {
  return num(std::move(key), static_cast<double>(value), 0);
}

Field text(std::string key, const std::string& value) {
  return {std::move(key), "\"" + value + "\""};
}

struct Row {
  std::string system;
  std::vector<Field> fields;  // sweep labels, shared counts, extras
  std::uint64_t completed = 0;
  double p99_ms = 0.0;
};

std::vector<Row> g_rows;
bool g_deploy_failed = false;

void print_row(const Row& row) {
  std::printf("%-17s", row.system.c_str());
  for (const Field& f : row.fields) {
    std::printf(" %s=%s", f.key.c_str(), f.value.c_str());
  }
  std::printf("\n");
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"figure\": \"fig5_throughput_latency\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    std::fprintf(f, "    {\"system\": \"%s\"", g_rows[i].system.c_str());
    for (const Field& field : g_rows[i].fields) {
      std::fprintf(f, ", \"%s\": %s", field.key.c_str(), field.value.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

// ---- deployments ------------------------------------------------------------

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

/// Removes its directory (if any) on destruction.
struct TempDir {
  std::filesystem::path path;
  ~TempDir() { if (!path.empty()) std::filesystem::remove_all(path); }
};

/// Everything one sweep point runs against. Scenario state comes first: the
/// proxies' fault hook reads it, so it must outlive them.
struct Deployment {
  TempDir checkpoints;
  std::atomic<bool> engine_degraded{false};
  std::shared_ptr<net::FaultPlan> engine_faults;
  std::size_t victim = 0;
  std::size_t rss_before_kb = 0;  // around connecting the held sessions
  std::size_t rss_held_kb = 0;

  sgx::AttestationAuthority authority{to_bytes("fig5-root")};
  std::unique_ptr<core::XSearchProxy> proxy;
  std::unique_ptr<net::ProxyFleet> fleet;
  std::unique_ptr<net::ProxyServer> server;
  std::unique_ptr<net::FleetSupervisor> supervisor;
  api::ClientPtr client;
  /// Held client sessions (siblings of `client`), connected before the run.
  std::vector<api::ClientPtr> sessions;
};

enum class Topology { kMechanism, kProxy, kFleet };

struct Phase {
  std::string name;
  std::function<void(Deployment&)> before;  // may be empty
};

struct Scenario {
  /// The JSON `system` value and the command-line name.
  std::string name;
  Topology topology = Topology::kMechanism;
  /// kMechanism: registry name (empty = `name`).
  std::string mechanism;
  /// kFleet: a FleetSupervisor probes the workers and respawns dead ones.
  bool supervised = false;
  /// Proxies contact the testbed engine instead of replying immediately.
  bool live_engine = false;
  /// Calibrated cost charged as busy CPU once per call, before the search:
  /// relay-stack work nothing here executes (0 = none; rows then carry no
  /// `modelled_us`).
  Nanos modelled = 0;
  /// Open-loop offered rates (req/s); empty = closed loop.
  std::vector<double> rates;
  /// Load workers; 0 = one per held session.
  std::size_t clients = 0;
  /// Sweep axes. `sessions` is how many client sessions are held connected
  /// (0 = `clients`); workers drive them round-robin.
  std::vector<std::size_t> sessions = {0};
  std::vector<std::size_t> workers = {1};
  std::vector<std::size_t> batches = {1};
  std::vector<Phase> phases = {{"", {}}};
  /// Labels every row of this scenario carries.
  std::vector<Field> labels;
  /// Adjusts the client config and the proxy options before deployment.
  std::function<void(Deployment&, api::ClientConfig&,
                     core::XSearchProxy::Options&)>
      configure;
  /// Fields only this scenario reports, read after each phase.
  std::function<std::vector<Field>(Deployment&, std::size_t phase)> extras;
};

std::vector<std::string> texts(const dataset::QueryLog& log) {
  std::vector<std::string> out;
  out.reserve(log.size());
  for (const auto& record : log.records()) out.push_back(record.text);
  return out;
}

bool ok_or_report(const Scenario& s, const Status& status) {
  if (status.is_ok()) return true;
  std::fprintf(stderr, "%s: %s\n", s.name.c_str(), status.to_string().c_str());
  g_deploy_failed = true;
  return false;
}

/// Builds, primes and connects one sweep point's deployment; nullptr (after
/// reporting why) when any step fails.
std::unique_ptr<Deployment> deploy(const Scenario& s, const bench::Testbed& bed,
                                   std::size_t workers, std::size_t held) {
  auto d = std::make_unique<Deployment>();
  api::ClientConfig config;
  config.contact_engine = s.live_engine;
  config.k = 3;
  config.top_k = 20;
  config.history_capacity = 100'000;
  config.seed = 100;
  // Every held session lives in the enclave's session table at once.
  config.session_capacity = std::max(config.session_capacity, held + 64);
  core::XSearchProxy::Options options = api::xsearch_proxy_options(config);
  if (s.configure) s.configure(*d, config, options);

  const engine::SearchEngine* engine = s.live_engine ? bed.engine.get() : nullptr;
  const std::vector<std::string> past = texts(bed.split.train);
  if (s.topology == Topology::kMechanism) {
    api::Backend backend{.engine = engine, .fake_source = &bed.split.train};
    auto client = api::make_client(s.mechanism.empty() ? s.name : s.mechanism,
                                   backend, config);
    if (!ok_or_report(s, client.status())) return nullptr;
    d->client = std::move(client).value();
    if (!ok_or_report(s, d->client->prime(past))) return nullptr;
  } else {
    core::ProxyHandler* handler = nullptr;
    if (s.topology == Topology::kProxy) {
      auto proxy = core::XSearchProxy::create(engine, d->authority, options);
      if (!ok_or_report(s, proxy.status())) return nullptr;
      d->proxy = std::move(proxy).value();
      d->proxy->warm_history(past);
      handler = d->proxy.get();
    } else {
      auto fleet = net::ProxyFleet::create(
          engine, d->authority, {.workers = workers, .proxy = options});
      if (!ok_or_report(s, fleet.status())) return nullptr;
      d->fleet = std::move(fleet).value();
      for (std::size_t w = 0; w < workers; ++w) {
        d->fleet->worker_proxy(w)->warm_history(past);
      }
      handler = d->fleet.get();
    }
    auto server = net::ProxyServer::start(*handler);
    if (!ok_or_report(s, server.status())) return nullptr;
    d->server = std::move(server).value();
    if (s.supervised) {
      d->supervisor = std::make_unique<net::FleetSupervisor>(
          *d->fleet, api::supervisor_options(config));
    }
    d->client = api::make_remote_client("127.0.0.1", d->server->port(),
                                        d->authority, handler->measurement(),
                                        config);
  }

  // Connected serially, before the clock starts: some mechanisms mutate
  // shared backend state on session establishment (Tor circuit extension),
  // and attestation would otherwise be part of the measurement.
  d->rss_before_kb = vm_rss_kb();
  for (std::size_t i = 0; i < held; ++i) {
    d->sessions.push_back(d->client->spawn_sibling(config.seed + 1000 + i));
    if (!ok_or_report(s, d->sessions.back()->connect())) return nullptr;
  }
  d->rss_held_kb = vm_rss_kb();
  return d;
}

// ---- the runner -------------------------------------------------------------

/// Per-load-worker state; each worker touches only its own slot.
struct Driver {
  std::size_t cursor = 0;   // next query in the replayed stream
  std::size_t session = 0;  // next held session to search through
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

/// One sweep point: deploy, then run every phase on the same held clients.
/// False when the deployment failed.
bool run_point(const Scenario& s, const bench::Testbed& bed,
               const std::vector<std::string>& stream, std::size_t workers,
               std::size_t batch, std::size_t held, double rate,
               const std::vector<Field>& labels) {
  const auto d = deploy(s, bed, workers, held);
  if (d == nullptr) return false;
  const std::size_t drivers = std::min(s.clients == 0 ? held : s.clients, held);
  std::vector<Driver> state(drivers);
  for (std::size_t w = 0; w < drivers; ++w) {
    state[w] = {.cursor = w * stream.size() / drivers, .session = w};
  }
  const auto handler = [&](std::size_t w) {
    netsim::busy_wait(s.modelled);
    Driver& driver = state[w];
    api::PrivateSearchClient& client = *d->sessions[driver.session];
    driver.session += drivers;
    if (driver.session >= held) driver.session = w;
    std::vector<api::PrivateSearchClient::BatchQuery> queries(batch);
    for (auto& q : queries) q.query = stream[driver.cursor++ % stream.size()];
    for (const auto& outcome : client.search_batch(std::move(queries))) {
      ++(outcome.is_ok() ? driver.ok : driver.failed);
    }
  };

  for (std::size_t p = 0; p < s.phases.size(); ++p) {
    const Phase& phase = s.phases[p];
    if (phase.before) phase.before(*d);
    for (Driver& driver : state) driver.ok = driver.failed = 0;
    const loadgen::LoadReport report =
        s.rates.empty()
            ? loadgen::run_closed_loop(handler, drivers, kWindow)
            : loadgen::run_open_loop(handler, {.target_rps = rate,
                                               .duration = kWindow,
                                               .workers = drivers,
                                               .queue_capacity = 4096});
    std::uint64_t ok = 0;
    std::uint64_t failed = report.dropped;
    for (const Driver& driver : state) {
      ok += driver.ok;
      failed += driver.failed;
    }
    Row row{.system = s.name, .fields = labels, .completed = ok,
            .p99_ms = report.p99_ms()};
    if (s.phases.size() > 1) row.fields.push_back(text("phase", phase.name));
    // achieved_rps counts calls; scale it to successful queries.
    const double ok_rps =
        report.achieved_rps * static_cast<double>(ok) /
        static_cast<double>(std::max<std::uint64_t>(report.completed, 1));
    for (Field f : {count("completed", ok), count("failed", failed),
                    num("achieved_rps", ok_rps, 1),
                    num("mean_ms", report.mean_ms()),
                    num("p50_ms", report.p50_ms()),
                    num("p99_ms", report.p99_ms())}) {
      row.fields.push_back(std::move(f));
    }
    if (s.extras) {
      for (Field& f : s.extras(*d, p)) row.fields.push_back(std::move(f));
    }
    print_row(row);
    g_rows.push_back(std::move(row));
  }
  return true;
}

/// Sessions one process can hold: 2 fds each (client end + server end).
std::size_t g_session_budget = 0;

void run_scenario(const Scenario& s, const bench::Testbed& bed,
                  const std::vector<std::string>& stream) {
  const std::vector<double> rates =
      s.rates.empty() ? std::vector<double>{0.0} : s.rates;
  for (const std::size_t workers : s.workers) {
    for (const std::size_t batch : s.batches) {
      std::size_t last_held = 0;
      for (const std::size_t sessions : s.sessions) {
        const std::size_t wanted = sessions == 0 ? s.clients : sessions;
        const std::size_t held = std::min(wanted, g_session_budget);
        if (held < wanted) {
          std::printf("# %s: %zu sessions clamped to %zu by RLIMIT_NOFILE\n",
                      s.name.c_str(), wanted, held);
          if (held == last_held) continue;
        }
        last_held = held;
        for (const double rate : rates) {
          std::vector<Field> labels = s.labels;
          if (s.modelled > 0) {
            labels.push_back(num("modelled_us",
                                 static_cast<double>(s.modelled) / kMicro, 0));
          }
          if (!s.rates.empty()) labels.push_back(num("offered_rps", rate, 0));
          if (s.sessions.size() > 1) labels.push_back(count("sessions", held));
          if (s.workers.size() > 1) labels.push_back(count("workers", workers));
          if (s.batches.size() > 1) labels.push_back(count("batch", batch));
          if (!run_point(s, bed, stream, workers, batch, held, rate, labels)) {
            return;  // the deployment failed; later points would too
          }
        }
      }
    }
  }
}

// ---- the scenarios ----------------------------------------------------------

std::size_t busiest_worker(const net::ProxyFleet& fleet) {
  const metrics::Snapshot stats = fleet.metrics();
  const auto routed = [&](std::size_t w) {
    return stats.value("worker.routed", net::worker_label(w));
  };
  std::size_t best = 0;
  for (std::size_t w = 1; w < fleet.worker_count(); ++w) {
    if (routed(w) > routed(best)) best = w;
  }
  return best;
}

/// Kill-and-recover: two supervised workers under closed-loop TCP load; the
/// busiest worker's enclave is crashed at the start of the "recovery"
/// phase, and the supervisor detects and respawns it. `history_depth` is
/// the victim's depth before the kill, then the depth its replacement
/// restored — the checkpoint when warm, 0 when cold.
Scenario recovery(bool warm) {
  Scenario s{.name = "xsearch-recovery",
             .topology = Topology::kFleet,
             .supervised = true,
             .clients = 2,
             .workers = {2},
             .phases = {{"pre-kill", {}},
                        {"recovery",
                         [](Deployment& d) {
                           d.victim = busiest_worker(*d.fleet);
                           (void)d.fleet->kill_worker(d.victim);
                         }},
                        {"post-recovery", {}}},
             .labels = {text("mode", warm ? "warm" : "cold")}};
  s.configure = [warm](Deployment& d, api::ClientConfig& config,
                       core::XSearchProxy::Options& proxy) {
    config.recovery.probe_interval = 5 * kMilli;
    config.recovery.failure_threshold = 2;
    if (!warm) return;
    d.checkpoints.path = std::filesystem::temp_directory_path() /
                         ("fig5_recovery_" + std::to_string(::getpid()));
    std::filesystem::remove_all(d.checkpoints.path);
    proxy.checkpoint_dir = d.checkpoints.path;
    // Closed-loop rates reach thousands of queries per second: a tighter
    // interval would turn the row into a checkpoint-write bench (each seal
    // snapshots the whole history).
    proxy.checkpoint_interval_queries = 512;
  };
  s.extras = [](Deployment& d, std::size_t phase) -> std::vector<Field> {
    const net::ProxyFleet& fleet = *d.fleet;
    const std::size_t depth =
        phase == 0 ? fleet.worker_history_depth(busiest_worker(fleet))
                   : fleet.metrics().value("checkpoint.restored_entries",
                                           net::worker_label(d.victim));
    return {count("history_depth", depth),
            count("auto_respawns",
                  d.supervisor->metrics().value("supervisor.auto_respawns"))};
  };
  return s;
}

/// Engine brownout: two workers with a live engine and closed-loop TCP
/// clients under request budgets. In the "degraded" phase the proxies'
/// host-side fault hook fails 60% of engine calls (past the breaker's 50%
/// trip ratio) and stalls 30% by 2 ms; the per-proxy engine breaker turns
/// that into fast typed failures, and half-open probes re-close it once
/// the fault is lifted.
Scenario degraded() {
  const auto set_fault = [](bool on) {
    return [on](Deployment& d) { d.engine_degraded.store(on); };
  };
  Scenario s{.name = "xsearch-degraded",
             .topology = Topology::kFleet,
             .live_engine = true,
             .clients = 2,
             .workers = {2},
             .phases = {{"healthy", {}},
                        {"degraded", set_fault(true)},
                        {"recovered", set_fault(false)}}};
  s.configure = [](Deployment& d, api::ClientConfig& config,
                   core::XSearchProxy::Options& proxy) {
    config.robustness = {.request_budget = 500 * kMilli,
                         .connect_budget = kSecond,
                         .retry_attempts = 2,
                         .retry_initial_backoff = kMilli,
                         .retry_max_backoff = 10 * kMilli};
    net::FaultPlan::Options plan;
    plan.seed = 42;
    plan.fault_ops = 1'000'000;  // never exhausts inside the window
    plan.delay_p = plan.partial_p = plan.drop_p = 0.0;
    plan.reset_p = plan.garbage_p = 0.0;
    plan.engine_delay_p = 0.3;
    plan.engine_delay = 2 * kMilli;
    plan.engine_fail_p = 0.6;
    d.engine_faults = std::make_shared<net::FaultPlan>(plan);
    proxy.engine_fault_hook = [&d]() -> Status {
      if (!d.engine_degraded.load(std::memory_order_relaxed)) return {};
      return d.engine_faults->engine_call();
    };
    proxy.engine_breaker_enabled = true;
    proxy.engine_breaker.window = 32;
    proxy.engine_breaker.min_samples = 8;
    proxy.engine_breaker.failure_ratio = 0.5;
    proxy.engine_breaker.open_cooldown = 50 * kMilli;
    proxy.engine_breaker.half_open_probes = 2;
  };
  s.extras = [](Deployment& d, std::size_t) -> std::vector<Field> {
    const metrics::Snapshot stats = d.fleet->metrics();
    return {count("engine_faults", d.engine_faults->faults_injected()),
            count("breaker_trips", stats.sum("breaker.trips")),
            count("breaker_rejected", stats.sum("breaker.rejected"))};
  };
  return s;
}

// Modelled relay-stack cost per call. With kOpenLoopWorkers load workers,
// capacity = workers / cost, landing the saturation knees at the paper's
// ~1k (PEAS: two proxy processes, store-and-forward, group decryption) and
// ~100 (Tor: three bandwidth-limited volunteer relays) req/s.
constexpr Nanos kPeasModelled = 3'800 * kMicro;
constexpr Nanos kTorModelled = 38 * kMilli;

const std::vector<Scenario> kScenarios = {
    // Proxy capacity over real TCP, replying without an engine.
    {.name = "xsearch",
     .topology = Topology::kProxy,
     .rates = {1000, 4000, 8000, 16000, 24000, 32000, 48000},
     .clients = kOpenLoopWorkers},
    // The same deployment with the engine round trip and the filter.
    {.name = "xsearch-engine",
     .topology = Topology::kProxy,
     .live_engine = true,
     .rates = {1000, 2000, 4000, 8000, 12000, 16000},
     .clients = kOpenLoopWorkers},
    {.name = "peas",
     .modelled = kPeasModelled,
     .rates = {100, 300, 600, 800, 1000, 1200, 1500},
     .clients = kOpenLoopWorkers},
    {.name = "tor",
     .modelled = kTorModelled,
     .rates = {10, 25, 50, 75, 100, 120, 150},
     .clients = kOpenLoopWorkers},
    // S closed-loop sessions against one shared in-process proxy: what the
    // enclave path itself does as sessions are added.
    {.name = "xsearch-sessions", .mechanism = "xsearch", .sessions = {1, 2, 4, 8}},
    // Scale-out: consistent-hash-routed workers × wire batch size, four
    // closed-loop TCP clients. A batch pays one AEAD seal/open and one
    // round trip for all its queries.
    {.name = "xsearch-fleet",
     .topology = Topology::kFleet,
     .clients = 4,
     .workers = {1, 2, 4},
     .batches = {1, 4, 16},
     .extras = [](Deployment& d, std::size_t) -> std::vector<Field> {
       const metrics::Snapshot stats = d.fleet->metrics();
       std::uint64_t with_sessions = 0;
       for (std::size_t w = 0; w < d.fleet->worker_count(); ++w) {
         with_sessions +=
             stats.value("sessions.created", net::worker_label(w)) > 0 ? 1 : 0;
       }
       return {count("routed", stats.sum("worker.routed")),
               count("workers_with_sessions", with_sessions)};
     }},
    recovery(true),
    recovery(false),
    degraded(),
    // Connection scaling: N mostly-idle attested sessions held on the
    // reactor, one client waking them in turn. Reports RSS growth per held
    // session (client and server ends, in one process) and the
    // wakeup-to-reply latency of a query on an idle session.
    {.name = "xsearch-idle",
     .topology = Topology::kProxy,
     .clients = 1,
     .sessions = {1000, 10000, 50000},
     .extras = [](Deployment& d, std::size_t) -> std::vector<Field> {
       const double grown = static_cast<double>(d.rss_held_kb) -
                            static_cast<double>(d.rss_before_kb);
       return {num("rss_kb_per_session",
                   std::max(0.0, grown) / static_cast<double>(d.sessions.size()),
                   2)};
     }},
};

/// Lifts the soft fd limit to the hard cap; returns the sessions it allows.
std::size_t raise_fd_limit() {
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 && nofile.rlim_cur < nofile.rlim_max) {
    rlimit raised = nofile;
    raised.rlim_cur = nofile.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &raised);
  }
  (void)::getrlimit(RLIMIT_NOFILE, &nofile);
  const std::size_t fds = nofile.rlim_cur == RLIM_INFINITY
                              ? (1u << 20)
                              : static_cast<std::size_t>(nofile.rlim_cur);
  return fds > 400 ? (fds - 200) / 2 : 100;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("# Figure 5: latency vs offered throughput (proxy saturation)\n");

  std::string json_path = "BENCH_fig5.json";
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    for (const Scenario& s : kScenarios) {
      if (names.empty() || names.back() != s.name) names.push_back(s.name);
    }
  }
  g_session_budget = raise_fd_limit();

  const auto bed = bench::make_testbed(
      {.num_users = 100, .total_queries = 10'000, .num_documents = 100});
  const std::vector<std::string> stream = texts(bed->split.test);

  for (const auto& name : names) {
    bool in_table = false;
    for (const Scenario& s : kScenarios) {
      if (s.name != name) continue;
      in_table = true;
      run_scenario(s, *bed, stream);
    }
    if (!in_table) {
      run_scenario({.name = name,
                    .rates = {1000, 5000, 10000, 20000, 40000},
                    .clients = kOpenLoopWorkers},
                   *bed, stream);
    }
  }

  bool ok = !g_deploy_failed;
  for (const Row& row : g_rows) {
    if (row.completed == 0 || row.p99_ms <= 0.0) {
      std::fprintf(stderr, "fig5: %s row completed %llu queries, p99 %.3f ms\n",
                   row.system.c_str(),
                   static_cast<unsigned long long>(row.completed), row.p99_ms);
      ok = false;
    }
  }
  if (write_json(json_path)) {
    std::printf("# wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    ok = false;
  }
  std::printf("\n# paper: X-Search ~25k req/s sub-second; PEAS ~1k; Tor ~100\n");
  return ok ? 0 : 1;
}
