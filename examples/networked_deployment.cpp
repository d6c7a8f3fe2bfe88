// Networked deployment: the proxy as a real TCP server.
//
// Starts an X-Search ProxyServer on a loopback port (the untrusted host
// process of a cloud deployment) and drives it through the unified client
// API: api::make_remote_client wraps the per-user local daemon of §4.2,
// speaking the framed protocol over actual sockets — the same
// PrivateSearchClient surface as every in-process mechanism.
//
// The second act is kill-and-recover: a 2-worker ProxyFleet with sealed
// checkpointing (api::RecoveryConfig) under a FleetSupervisor. One worker's
// enclave is crashed mid-session; the supervisor's heartbeat probes notice,
// drain its ring arc and respawn it — and the replacement restores the
// crashed worker's decoy table from its sealed checkpoint, so the restart
// is warm. The host only ever handles the opaque sealed blob.
//
// Run: ./build/examples/networked_deployment
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "api/client.hpp"
#include "api/remote.hpp"
#include "api/xsearch_options.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/fleet_supervisor.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

using namespace xsearch;  // NOLINT

int main() {
  dataset::SyntheticLogConfig log_config;
  log_config.num_users = 60;
  log_config.total_queries = 8'000;
  const auto log = dataset::generate_synthetic_log(log_config);
  engine::Corpus corpus(log, engine::CorpusConfig{.num_documents = 3'000});
  engine::SearchEngine search_engine(corpus);

  sgx::AttestationAuthority intel(to_bytes("simulated-intel-epid-root"));
  core::XSearchProxy::Options options;
  options.k = 3;
  auto proxy = core::XSearchProxy::create(&search_engine, intel, options);
  if (!proxy.is_ok()) {
    std::fprintf(stderr, "proxy config rejected: %s\n",
                 proxy.status().to_string().c_str());
    return 1;
  }

  auto server = net::ProxyServer::start(*proxy.value());
  if (!server) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().to_string().c_str());
    return 1;
  }
  std::printf("proxy server listening on 127.0.0.1:%u\n", server.value()->port());

  // Two independent users, each an attested PrivateSearchClient over TCP.
  api::ClientConfig alice_config;
  alice_config.k = options.k;
  alice_config.seed = 1;
  api::ClientConfig bob_config = alice_config;
  bob_config.seed = 2;
  const auto alice = api::make_remote_client("127.0.0.1", server.value()->port(),
                                             intel, proxy.value()->measurement(),
                                             alice_config);
  const auto bob = api::make_remote_client("127.0.0.1", server.value()->port(),
                                           intel, proxy.value()->measurement(),
                                           bob_config);

  for (std::size_t i = 0; i < 15; ++i) {
    (void)alice->search(log.records()[i * 11].text);
    (void)bob->search(log.records()[i * 13].text);
  }
  const auto results = alice->search(log.records()[999].text);
  std::printf("alice's query over TCP: %s, %zu results\n",
              results.is_ok() ? "ok" : results.status().to_string().c_str(),
              results.is_ok() ? results.value().size() : 0);
  std::printf("history table now holds %zu queries (%zu bytes of EPC)\n",
              proxy.value()->history_size(), proxy.value()->history_memory_bytes());

  server.value()->stop();
  std::printf("served %llu connections; server stopped cleanly\n",
              static_cast<unsigned long long>(
                  server.value()->metrics().value("reactor.accepted")));

  // --- Kill-and-recover: supervised fleet with sealed checkpoints. -----------
  const auto checkpoint_dir =
      std::filesystem::temp_directory_path() / "xsearch_example_ckpt";
  std::filesystem::remove_all(checkpoint_dir);

  api::ClientConfig fleet_config;
  fleet_config.k = 3;
  fleet_config.seed = 7;
  fleet_config.recovery.checkpoint_dir = checkpoint_dir.string();
  fleet_config.recovery.checkpoint_interval_queries = 32;
  fleet_config.recovery.probe_interval = 5 * kMilli;
  fleet_config.recovery.failure_threshold = 2;

  auto fleet = net::ProxyFleet::create(
      &search_engine, intel,
      {.workers = 2, .proxy = api::xsearch_proxy_options(fleet_config)});
  if (!fleet.is_ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet.status().to_string().c_str());
    return 1;
  }
  auto fleet_server = net::ProxyServer::start(*fleet.value());
  if (!fleet_server.is_ok()) {
    std::fprintf(stderr, "fleet server: %s\n",
                 fleet_server.status().to_string().c_str());
    return 1;
  }
  net::FleetSupervisor supervisor(*fleet.value(),
                                  api::supervisor_options(fleet_config));

  api::ClientConfig carol_config = fleet_config;
  carol_config.seed = 3;
  const auto carol = api::make_remote_client(
      "127.0.0.1", fleet_server.value()->port(), intel,
      fleet.value()->measurement(), carol_config);
  for (std::size_t i = 0; i < 120; ++i) {
    (void)carol->search(log.records()[i * 7].text);
  }

  // The untrusted host now loses a worker mid-session (power event, EPC
  // wipe): every ecall into that enclave fails from here on. Kill the
  // worker carol's session hashed to — the one whose history her queries
  // warmed.
  std::size_t victim = 0;
  for (std::size_t w = 1; w < fleet.value()->worker_count(); ++w) {
    if (fleet.value()->worker_history_depth(w) >
        fleet.value()->worker_history_depth(victim)) {
      victim = w;
    }
  }
  const std::size_t depth_before = fleet.value()->worker_history_depth(victim);
  (void)fleet.value()->kill_worker(victim);
  std::printf("\nkilled fleet worker %zu (history held %zu decoy queries)\n",
              victim, depth_before);

  // The supervisor's heartbeats flag the dead enclave and respawn it; the
  // replacement restores the sealed checkpoint. Client searches keep
  // working throughout — the broker re-attests transparently.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto auto_respawns = [&supervisor] {
    return supervisor.metrics().value("supervisor.auto_respawns");
  };
  while (auto_respawns() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)carol->search(log.records()[321].text);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto stats = fleet.value()->metrics();
  std::printf("supervisor auto-respawned it: restored %llu of %zu queries from "
              "the sealed checkpoint (auto_respawns=%llu, warm_start_ratio=%.2f)\n",
              static_cast<unsigned long long>(stats.value(
                  "checkpoint.restored_entries", net::worker_label(victim))),
              depth_before, static_cast<unsigned long long>(auto_respawns()),
              net::warm_start_ratio(stats));
  const auto after = carol->search(log.records()[999].text);
  std::printf("carol's search after recovery: %s\n",
              after.is_ok() ? "ok" : after.status().to_string().c_str());

  fleet_server.value()->stop();
  std::filesystem::remove_all(checkpoint_dir);
  std::printf("\nfleet served %llu connections; recovered without a cold start\n",
              static_cast<unsigned long long>(
                  fleet_server.value()->metrics().value("reactor.accepted")));
  return 0;
}
