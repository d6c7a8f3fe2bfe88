// ProxyFleet and batched-wire tests.
//
//  * wire: batch frame round trips, truncated/oversized-batch rejection;
//  * fleet: consistent-hash routing keeps every session pinned to one
//    worker while sessions fan out across workers; per-session record
//    order survives 8 concurrent sessions across 4 workers (the channel
//    nonce counters make reordering an AEAD failure, so success IS the
//    ordering proof);
//  * drain/respawn: only the drained/crashed worker's sessions re-attest;
//  * remote client: a search_batch over the fleet travels as one record.
//
// Run under ThreadSanitizer in CI (label: concurrency).
#include "net/proxy_fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/remote.hpp"
#include "broker_util.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::net {
namespace {

core::XSearchProxy::Options saturation_options() {
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  return options;
}

ProxyFleet::Options fleet_options(std::size_t workers) {
  ProxyFleet::Options options;
  options.workers = workers;
  options.proxy = saturation_options();
  return options;
}

// --- wire batch framing ------------------------------------------------------

TEST(WireBatch, QueryBatchRoundTrip) {
  const std::vector<std::string> queries = {"first query", "", "third query"};
  const Bytes framed = core::wire::frame_query_batch(queries);
  auto message = core::wire::parse_client_message(framed);
  ASSERT_TRUE(message.is_ok()) << message.status().to_string();
  EXPECT_EQ(message.value().type, core::wire::ClientMessageType::kQueryBatch);
  EXPECT_EQ(message.value().queries, queries);
}

TEST(WireBatch, ResultsBatchRoundTripMixedOutcomes) {
  // Written item by item, the way the enclave writes a reply.
  const engine::SearchResult r{7, "title", "description", "https://example.test/7", 0.25};
  const engine::ResultView view = engine::view_of(r);
  const std::size_t kept = 0;
  Bytes framed;
  core::wire::begin_results_batch(framed, 3);
  core::wire::put_results_item(framed, {&view, 1}, {&kept, 1}, 0);
  core::wire::put_error_item(framed, "engine unavailable");
  core::wire::put_results_item(framed, {}, {}, 0);  // empty result list

  auto message = core::wire::parse_client_message(framed);
  ASSERT_TRUE(message.is_ok()) << message.status().to_string();
  EXPECT_EQ(message.value().type, core::wire::ClientMessageType::kResultsBatch);
  ASSERT_EQ(message.value().batch.size(), 3u);
  EXPECT_TRUE(message.value().batch[0].ok);
  ASSERT_EQ(message.value().batch[0].results.size(), 1u);
  EXPECT_EQ(message.value().batch[0].results[0].doc, 7u);
  EXPECT_EQ(message.value().batch[0].results[0].url, "https://example.test/7");
  EXPECT_FALSE(message.value().batch[1].ok);
  EXPECT_EQ(message.value().batch[1].error, "engine unavailable");
  EXPECT_TRUE(message.value().batch[2].ok);
  EXPECT_TRUE(message.value().batch[2].results.empty());
}

TEST(WireBatch, TruncatedBatchRejected) {
  const Bytes framed =
      core::wire::frame_query_batch({"a query", "another query"});
  // Every strict prefix must be rejected, never read out of bounds.
  for (std::size_t cut = 1; cut < framed.size(); ++cut) {
    auto message =
        core::wire::parse_client_message(ByteSpan(framed.data(), cut));
    EXPECT_FALSE(message.is_ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(WireBatch, TrailingBytesRejected) {
  Bytes framed = core::wire::frame_query_batch({"a query"});
  framed.push_back(0x00);
  EXPECT_FALSE(core::wire::parse_client_message(framed).is_ok());
}

TEST(WireBatch, OversizedAndEmptyBatchRejected) {
  // Hand-built header claiming too many queries: rejected on the count,
  // before any allocation proportional to it.
  Bytes oversized;
  oversized.push_back(
      static_cast<std::uint8_t>(core::wire::ClientMessageType::kQueryBatch));
  core::wire::put_u32(oversized,
                      static_cast<std::uint32_t>(core::wire::kMaxBatchQueries + 1));
  EXPECT_FALSE(core::wire::parse_client_message(oversized).is_ok());

  Bytes empty;
  empty.push_back(
      static_cast<std::uint8_t>(core::wire::ClientMessageType::kQueryBatch));
  core::wire::put_u32(empty, 0);
  EXPECT_FALSE(core::wire::parse_client_message(empty).is_ok());
}

// --- fleet routing -----------------------------------------------------------

TEST(ProxyFleet, RejectsDegenerateOptions) {
  sgx::AttestationAuthority authority(to_bytes("fleet-test-root"));
  EXPECT_FALSE(ProxyFleet::create(nullptr, authority, fleet_options(0)).is_ok());
}

TEST(ProxyFleet, SessionsFanOutAndStayPinned) {
  sgx::AttestationAuthority authority(to_bytes("fleet-test-root"));
  auto fleet = ProxyFleet::create(nullptr, authority, fleet_options(4));
  ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();

  // In-process brokers against the fleet (the broker speaks to any
  // ProxyHandler). Every query of a session must reach the same worker.
  std::set<std::size_t> workers_used;
  for (int s = 0; s < 16; ++s) {
    auto broker = testutil::in_process_broker(
        *fleet.value(), authority, fleet.value()->measurement(), 100 + s);
    ASSERT_TRUE(broker.connect().is_ok());
    auto first = broker.search("pinned session probe");
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    ASSERT_TRUE(broker.search("pinned session probe 2").is_ok());
    EXPECT_EQ(broker.metrics().value("broker.reconnects"), 0u);
  }
  std::uint64_t total_routed = 0;
  const auto stats = fleet.value()->metrics();
  for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
    total_routed += stats.value("worker.routed", worker_label(w));
    if (stats.value("sessions.created", worker_label(w)) > 0) workers_used.insert(w);
    // Pinning: a worker only ever saw records for sessions it created, so
    // every routed request either created a session or found it (no
    // cross-worker misses).
    EXPECT_EQ(stats.value("sessions.misses", worker_label(w)), 0u) << "worker " << w;
  }
  // 16 handshakes + 32 query records all found their ring owner.
  EXPECT_EQ(total_routed, 16u + 32u);
  // 16 sessions over 4 workers with 64 vnodes: fan-out must reach several
  // workers (deterministic ids — this is a fixed property of the seed).
  EXPECT_GE(workers_used.size(), 2u);
}

// 8 concurrent sessions across 4 workers, each session issuing an ordered
// stream of single and batched queries over real TCP. The SecureChannel's
// per-direction nonce counters fail AEAD on any reorder, so every session
// finishing without a reconnect proves per-session record order survived
// concurrent fan-out.
TEST(ProxyFleet, EightConcurrentSessionsAcrossFourWorkersPreserveOrder) {
  sgx::AttestationAuthority authority(to_bytes("fleet-test-root"));
  auto fleet = ProxyFleet::create(nullptr, authority, fleet_options(4));
  ASSERT_TRUE(fleet.is_ok());
  auto server = ProxyServer::start(*fleet.value());
  ASSERT_TRUE(server.is_ok());

  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kRounds = 10;
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> queries_ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                          fleet.value()->measurement(), 9100 + s);
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::string tag =
            "s" + std::to_string(s) + "r" + std::to_string(round);
        if (round % 2 == 0) {
          auto result = broker.search("single " + tag);
          if (!result.is_ok()) ++failures;
          else ++queries_ok;
        } else {
          auto batch = broker.search_batch(
              {"batch0 " + tag, "batch1 " + tag, "batch2 " + tag});
          if (!batch.is_ok()) {
            ++failures;
            continue;
          }
          for (const auto& outcome : batch.value()) {
            if (outcome.status.is_ok()) ++queries_ok;
            else ++failures;
          }
        }
      }
      // An order break would desync the channel and force a reconnect.
      if (broker.metrics().value("broker.reconnects") != 0) ++failures;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  // Per session: kRounds/2 single queries + kRounds/2 batches of three.
  EXPECT_EQ(queries_ok.load(), kSessions * (kRounds / 2 * 3 + kRounds / 2));
  // All four workers stayed miss-free: no record was ever routed to a
  // worker that did not own its session.
  std::uint64_t created = 0;
  const auto stats = fleet.value()->metrics();
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(stats.value("sessions.misses", worker_label(w)), 0u);
    created += stats.value("sessions.created", worker_label(w));
  }
  EXPECT_EQ(created, kSessions);
  server.value()->stop();
}

using testutil::Transport;

class ProxyFleetDrain : public ::testing::TestWithParam<Transport> {};

TEST_P(ProxyFleetDrain, DrainMigratesOnlyTheDrainedWorkersSessions) {
  sgx::AttestationAuthority authority(to_bytes("fleet-test-root"));
  auto fleet = ProxyFleet::create(nullptr, authority, fleet_options(2));
  ASSERT_TRUE(fleet.is_ok());
  const testutil::ServedProxy served(GetParam(), *fleet.value());

  // Establish sessions until both workers own at least one.
  std::vector<std::unique_ptr<RemoteBroker>> brokers;
  for (int s = 0; s < 8; ++s) {
    brokers.push_back(
        served.broker(authority, fleet.value()->measurement(), 500 + s));
    ASSERT_TRUE(brokers.back()->connect().is_ok());
    ASSERT_TRUE(brokers.back()->search("warm").is_ok());
  }
  for (std::size_t w = 0; w < 2; ++w) {
    ASSERT_GT(fleet.value()->metrics().value("sessions.created", worker_label(w)), 0u)
        << "seed produced a one-sided session split; adjust seeds";
  }

  // Who owns what before the drain (deterministic: ids and ring are pure
  // functions of the seeds).
  std::vector<std::size_t> owner_before;
  for (const auto& broker : brokers) {
    owner_before.push_back(fleet.value()->owner_of(broker->session_id()));
  }

  ASSERT_TRUE(fleet.value()->drain(0).is_ok());
  EXPECT_EQ(fleet.value()->metrics().sum("worker.live"), 1u);
  // Draining the last live worker is refused.
  EXPECT_FALSE(fleet.value()->drain(1).is_ok());

  // Exactly the drained worker's sessions migrate: each hits "unknown
  // session" on worker 1 and transparently re-attests there (one
  // reconnect); worker-1 sessions never notice.
  for (std::size_t s = 0; s < brokers.size(); ++s) {
    ASSERT_TRUE(brokers[s]->search("after drain").is_ok());
    EXPECT_EQ(brokers[s]->metrics().value("broker.reconnects"),
              owner_before[s] == 0 ? 1u : 0u)
        << "session " << s;
  }

  // Respawn restores worker 0's arc with a fresh enclave (empty table).
  ASSERT_TRUE(fleet.value()->respawn(0).is_ok());
  EXPECT_EQ(fleet.value()->metrics().sum("worker.live"), 2u);
  const auto respawned = fleet.value()->metrics();
  EXPECT_EQ(respawned.value("worker.respawns", worker_label(0)), 1u);
  EXPECT_EQ(respawned.value("sessions.created", worker_label(0)), 0u);

  // Again only sessions whose *current* id maps to the respawned (empty)
  // worker must re-attest; the rest proceed with zero new reconnects.
  std::vector<std::uint64_t> reconnects_before;
  std::vector<std::size_t> owner_now;
  for (const auto& broker : brokers) {
    reconnects_before.push_back(broker->metrics().value("broker.reconnects"));
    owner_now.push_back(fleet.value()->owner_of(broker->session_id()));
  }
  for (std::size_t s = 0; s < brokers.size(); ++s) {
    ASSERT_TRUE(brokers[s]->search("after respawn").is_ok());
    EXPECT_EQ(brokers[s]->metrics().value("broker.reconnects") - reconnects_before[s],
              owner_now[s] == 0 ? 1u : 0u)
        << "session " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, ProxyFleetDrain,
                         ::testing::Values(Transport::kTcp,
                                           Transport::kInProcess),
                         testutil::transport_name);

// A host-proposed id must not be able to corrupt a proxy whose counter
// later reaches the same id: the counter skips occupied ids (a silent
// collision used to orphan an LRU entry inside the session table).
TEST(ProxyFleet, CounterSessionIdsSkipHostProposedIds) {
  sgx::AttestationAuthority authority(to_bytes("fleet-test-root"));
  core::XSearchProxy proxy(nullptr, authority, saturation_options());
  crypto::X25519Key client_key{};
  client_key[0] = 9;

  ASSERT_TRUE(proxy.handshake(client_key, 2).is_ok());
  // Re-proposing an occupied id is refused, not silently remapped.
  EXPECT_FALSE(proxy.handshake(client_key, 2).is_ok());

  // Counter-assigned handshakes walk 1, (2 occupied → skip), 3, ...: all
  // succeed with distinct ids and the table stays consistent.
  std::set<std::uint64_t> ids = {2};
  for (int i = 0; i < 4; ++i) {
    auto response = proxy.handshake(client_key);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    EXPECT_TRUE(ids.insert(response.value().session_id).second)
        << "duplicate session id " << response.value().session_id;
  }
  EXPECT_EQ(proxy.metrics().value("sessions.active"), 5u);
}

// --- remote client batches ---------------------------------------------------

TEST(ProxyFleet, RemoteClientBatchTravelsAsOneRecord) {
  sgx::AttestationAuthority authority(to_bytes("fleet-test-root"));
  auto fleet = ProxyFleet::create(nullptr, authority, fleet_options(2));
  ASSERT_TRUE(fleet.is_ok());
  auto server = ProxyServer::start(*fleet.value());
  ASSERT_TRUE(server.is_ok());

  api::ClientConfig config;
  config.seed = 4242;
  auto client = api::make_remote_client("127.0.0.1", server.value()->port(),
                                        authority, fleet.value()->measurement(),
                                        config);
  auto outcomes = client->search_batch(
      {{"sync batch a", 0}, {"sync batch b", 0}, {"sync batch c", 0}});
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  }
  EXPECT_EQ(client->metrics().value("client.searches"), 3u);
  client->close();

  // Three queries, one query record routed (handshakes excluded).
  const auto stats = fleet.value()->metrics();
  const std::uint64_t routed = stats.sum("worker.routed");
  const std::uint64_t handshakes = stats.sum("sessions.created");
  EXPECT_EQ(routed - handshakes, 1u);
  server.value()->stop();
}

}  // namespace
}  // namespace xsearch::net
