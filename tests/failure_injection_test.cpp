// Failure-injection tests: the proxy must degrade cleanly when the
// untrusted host misbehaves — failing sockets, truncated engine responses,
// garbage data — since Byzantine host behaviour is exactly the threat model
// (§3). Faults are injected by re-registering the host-side ocall handlers.
//
// The FleetFault section lifts the same discipline to the fleet layer, end
// to end over real TCP: a worker is lost mid-session (the Byzantine host
// drops its ocall sockets and stops servicing the enclave), the supervisor
// must detect and respawn it, the arc must re-attest, and the restored
// history depth must equal the checkpointed depth. Run under TSan and ASan
// in CI (labels: net, concurrency).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "broker_util.hpp"
#include "test_util.hpp"

#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/fleet_supervisor.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  FaultTest()
      : log_([] {
          dataset::SyntheticLogConfig config;
          config.num_users = 20;
          config.total_queries = 1'000;
          config.vocab_size = 600;
          config.num_topics = 8;
          config.words_per_topic = 50;
          return dataset::generate_synthetic_log(config);
        }()),
        corpus_(log_, engine::CorpusConfig{.seed = 9, .num_documents = 500}),
        engine_(corpus_),
        authority_(to_bytes("fault-root")),
        proxy_(&engine_, authority_, make_options()),
        broker_(net::in_process_connector(proxy_), authority_,
                proxy_.measurement(), 1) {}

  static XSearchProxy::Options make_options() {
    XSearchProxy::Options options;
    options.k = 2;
    options.history_capacity = 1'000;
    return options;
  }

  /// Fault injection models the *untrusted host* re-registering its own
  /// ocall handlers, which the proxy exposes first-class (no const_cast —
  /// the boundary lint bans casting away the enclave's constness).
  sgx::EnclaveRuntime& host_enclave() { return proxy_.host_enclave(); }

  /// Host socket stubs that remember which ids are open, with `failing`
  /// (send or recv) refusing every call — an engine brownout as the socket
  /// layer sees it.
  void track_sockets_and_fail(sgx::OcallId failing) {
    host_enclave().register_ocall(sgx::OcallId::kSockConnect, [this](ByteSpan) -> Result<Bytes> {
      std::lock_guard<std::mutex> lock(sockets_mutex_);
      const std::uint64_t id = next_socket_++;
      open_sockets_.insert(id);
      Bytes out;
      wire::put_u64(out, id);
      return out;
    });
    host_enclave().register_ocall(sgx::OcallId::kClose, [this](ByteSpan payload) -> Result<Bytes> {
      std::size_t offset = 0;
      auto sock = wire::get_u64(payload, offset);
      if (!sock) return sock.status();
      std::lock_guard<std::mutex> lock(sockets_mutex_);
      open_sockets_.erase(sock.value());
      return Bytes{};
    });
    for (const sgx::OcallId id : {sgx::OcallId::kSend, sgx::OcallId::kRecv}) {
      host_enclave().register_ocall(id, [id, failing](ByteSpan) -> Result<Bytes> {
        if (id == failing) return unavailable("engine brownout");
        return Bytes{};
      });
    }
  }

  /// Runs `searches` failing searches and returns how many sockets the
  /// host still holds open afterwards.
  std::size_t sockets_left_open_after(std::size_t searches) {
    for (std::size_t i = 0; i < searches; ++i) {
      EXPECT_FALSE(broker_.search(log_.records()[i].text).is_ok());
    }
    std::lock_guard<std::mutex> lock(sockets_mutex_);
    EXPECT_EQ(next_socket_, searches + 1);  // every search reached connect
    return open_sockets_.size();
  }

  dataset::QueryLog log_;
  engine::Corpus corpus_;
  engine::SearchEngine engine_;
  sgx::AttestationAuthority authority_;
  XSearchProxy proxy_;
  net::RemoteBroker broker_;

  std::mutex sockets_mutex_;
  std::set<std::uint64_t> open_sockets_;
  std::uint64_t next_socket_ = 1;
};

TEST_F(FaultTest, BaselineWorks) {
  ASSERT_TRUE(broker_.search(log_.records()[0].text).is_ok());
}

TEST_F(FaultTest, FailingConnectSurfacesAsProxyError) {
  host_enclave().register_ocall(sgx::OcallId::kSockConnect, [](ByteSpan) -> Result<Bytes> {
    return unavailable("connection refused");
  });
  const auto results = broker_.search(log_.records()[1].text);
  EXPECT_FALSE(results.is_ok());
  EXPECT_NE(results.status().message().find("connection refused"), std::string::npos);
}

TEST_F(FaultTest, FailingSendSurfacesAsProxyError) {
  host_enclave().register_ocall(sgx::OcallId::kSend, [](ByteSpan) -> Result<Bytes> {
    return unavailable("network down");
  });
  EXPECT_FALSE(broker_.search(log_.records()[2].text).is_ok());
}

// A failed engine round trip still closes its socket; otherwise every
// failed search during an engine brownout strands a host socket buffer.
TEST_F(FaultTest, FailedSendClosesItsSocket) {
  track_sockets_and_fail(sgx::OcallId::kSend);
  EXPECT_EQ(sockets_left_open_after(20), 0u);
}

TEST_F(FaultTest, FailedRecvClosesItsSocket) {
  track_sockets_and_fail(sgx::OcallId::kRecv);
  EXPECT_EQ(sockets_left_open_after(20), 0u);
}

TEST_F(FaultTest, GarbageRecvRejectedByEnclaveParser) {
  host_enclave().register_ocall(sgx::OcallId::kRecv, [](ByteSpan) -> Result<Bytes> {
    return Bytes(37, 0x5a);  // not a results serialization
  });
  const auto results = broker_.search(log_.records()[3].text);
  EXPECT_FALSE(results.is_ok());
}

TEST_F(FaultTest, TruncatedRecvRejected) {
  host_enclave().register_ocall(sgx::OcallId::kRecv, [this](ByteSpan) -> Result<Bytes> {
    std::vector<engine::SearchResult> fake(2);
    fake[0].title = "a";
    fake[1].title = "b";
    Bytes raw = wire::serialize_results(fake);
    raw.resize(raw.size() / 2);  // host truncates mid-message
    return raw;
  });
  EXPECT_FALSE(broker_.search(log_.records()[4].text).is_ok());
}

TEST_F(FaultTest, HostCannotForgeResultsSilently) {
  // A malicious host CAN substitute results (the engine is outside the
  // TCB and unauthenticated in the paper's design) — but only well-formed
  // ones, and they still pass through Algorithm 2 filtering. Verify the
  // substituted off-topic results are filtered out rather than delivered.
  host_enclave().register_ocall(sgx::OcallId::kRecv, [](ByteSpan) -> Result<Bytes> {
    std::vector<engine::SearchResult> forged(1);
    forged[0].title = "totally unrelated propaganda";
    forged[0].description = "unrelated words entirely";
    forged[0].url = "https://evil.example/";
    return wire::serialize_results(forged);
  });
  // Warm the history so fakes exist and filtering has decoys to compare.
  for (int i = 0; i < 10; ++i) {
    (void)broker_.search(log_.records()[static_cast<std::size_t>(10 + i)].text);
  }
  const auto results = broker_.search(log_.records()[5].text);
  ASSERT_TRUE(results.is_ok());
  // The forged result shares no words with the query: its original-score is
  // 0, tying every fake, so Algorithm 2's tie rule may keep it — but the
  // client-visible record is authenticated end-to-end, so the user at least
  // cannot be given *tampered* (vs substituted) content. Assert well-formed.
  for (const auto& r : results.value()) {
    EXPECT_FALSE(r.title.empty());
  }
}

TEST_F(FaultTest, RecoveryAfterTransientFault) {
  host_enclave().register_ocall(sgx::OcallId::kSend, [](ByteSpan) -> Result<Bytes> {
    return unavailable("blip");
  });
  EXPECT_FALSE(broker_.search(log_.records()[6].text).is_ok());

  // Host restores connectivity: the same session keeps working because the
  // enclave sends its error through the secure channel (counters stay in
  // sync on both ends).
  XSearchProxy fresh_proxy(&engine_, authority_, make_options());
  auto fresh_broker = testutil::in_process_broker(
      fresh_proxy, authority_, fresh_proxy.measurement(), 2);
  EXPECT_TRUE(fresh_broker.search(log_.records()[7].text).is_ok());
  // And on the original proxy too:
  host_enclave().register_ocall(sgx::OcallId::kSend, [this](ByteSpan payload) -> Result<Bytes> {
    // Re-implement the normal host handler against the engine.
    std::size_t offset = 0;
    auto sock = wire::get_u64(payload, offset);
    if (!sock) return sock.status();
    auto request = wire::parse_engine_request(payload.subspan(offset));
    if (!request) return request.status();
    (void)engine_.search_or(request.value().sub_queries, request.value().top_k_each);
    return Bytes{};
  });
  // The "send" handler above doesn't park the response in the socket table
  // (host-internal detail), so recv yields an empty buffer -> parse error;
  // what matters is the channel survives transient faults without desync:
  const auto after = broker_.search(log_.records()[8].text);
  EXPECT_FALSE(after.is_ok());
  // Channel still alive: error came back *through* the channel.
  EXPECT_NE(after.status().message().find("proxy error"), std::string::npos);
}

TEST_F(FaultTest, DroppedOcallSocketsDoNotKillTheEnclave) {
  // A host that merely drops the worker's engine sockets degrades queries
  // but leaves the trusted side alive: the heartbeat ecall — the signal a
  // supervisor keys respawns on — keeps succeeding. Distinguishing "host
  // sabotages ocalls" from "enclave is gone" is what keeps the supervisor
  // from respawning (and EPC-wiping) a worker over an engine outage.
  host_enclave().register_ocall(sgx::OcallId::kSockConnect, [](ByteSpan) -> Result<Bytes> {
    return unavailable("host dropped the socket table");
  });
  EXPECT_FALSE(broker_.search(log_.records()[9].text).is_ok());
  EXPECT_TRUE(proxy_.heartbeat().is_ok());

  // A crashed enclave, by contrast, fails both.
  proxy_.crash_enclave();
  EXPECT_FALSE(proxy_.heartbeat().is_ok());
  EXPECT_FALSE(broker_.search(log_.records()[9].text).is_ok());
}

// --- fleet layer -------------------------------------------------------------

using testutil::eventually;

TEST(FleetFault, WorkerKilledMidSessionIsRespawnedWarm) {
  const auto dir =
      std::filesystem::temp_directory_path() / "xs_fleet_fault_ckpt";
  std::filesystem::remove_all(dir);
  sgx::AttestationAuthority authority(to_bytes("fleet-fault-root"));

  net::ProxyFleet::Options options;
  options.workers = 2;
  options.proxy.k = 2;
  options.proxy.history_capacity = 4096;
  options.proxy.contact_engine = false;
  options.proxy.checkpoint_dir = dir;
  options.proxy.checkpoint_interval_queries = 4;
  auto fleet = net::ProxyFleet::create(nullptr, authority, options);
  ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();
  auto server = net::ProxyServer::start(*fleet.value());
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  // One attested session over real TCP, warmed past two checkpoint
  // intervals — the sealed depth a warm respawn must come back with.
  net::RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                           fleet.value()->measurement(), 99);
  ASSERT_TRUE(broker.connect().is_ok());
  const std::size_t victim = fleet.value()->owner_of(broker.session_id());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(broker.search("fleet warmup " + std::to_string(i)).is_ok());
  }
  const std::size_t checkpointed_depth = 8;  // interval 4: last seal at 8

  net::FleetSupervisor::Options probe;
  probe.probe_interval = 2 * kMilli;
  probe.failure_threshold = 2;
  net::FleetSupervisor supervisor(*fleet.value(), probe);

  // Mid-session kill: the Byzantine host drops the worker's ocall sockets
  // and stops servicing its enclave; the broker still holds a live channel
  // onto the dead arc.
  ASSERT_TRUE(fleet.value()->kill_worker(victim).is_ok());

  // Queries keep being answered throughout: the broker re-attests onto the
  // surviving arc (retry-once) while the supervisor revives the victim.
  std::size_t served_during_outage = 0;
  for (int i = 0; i < 20; ++i) {
    if (broker.search("during outage " + std::to_string(i)).is_ok()) {
      ++served_during_outage;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(served_during_outage, 0u);
  EXPECT_GE(broker.reconnects(), 1u);  // the arc re-attested

  ASSERT_TRUE(
      eventually([&] { return fleet.value()->fleet_stats().auto_respawns >= 1; }));
  supervisor.stop();

  // The revived worker restored exactly the checkpointed depth (plus any
  // outage traffic that hashed back to it — exclude that by checking the
  // restore counter, not just the live depth).
  const auto worker = fleet.value()->worker_stats(victim);
  EXPECT_TRUE(worker.live);
  EXPECT_TRUE(worker.checkpoint.restore_hit);
  EXPECT_EQ(worker.checkpoint.restored_entries, checkpointed_depth);
  const auto stats = fleet.value()->fleet_stats();
  EXPECT_GE(stats.restore_hits, 1u);
  EXPECT_EQ(stats.restore_misses, 0u);
  EXPECT_DOUBLE_EQ(stats.warm_start_ratio, 1.0);

  // Steady state after recovery.
  EXPECT_TRUE(broker.search("after recovery").is_ok());
  server.value()->stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xsearch::core
