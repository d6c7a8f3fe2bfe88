// Session lifecycle subsystem tests: bounded SessionTable (LRU + idle-TTL
// eviction, EPC charge/release symmetry, per-session locking) and the
// proxy-level behaviors built on it — evicted/expired sessions answering
// NOT_FOUND and the regression test for the SecureChannel data race
// (one session hammered from many threads; run under TSan in CI).
#include "xsearch/session_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "broker_util.hpp"
#include "crypto/x25519.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

// A matched initiator/responder channel pair over fixed keys; the table
// stores the responder half, tests drive it with the initiator half.
struct ChannelPair {
  crypto::SecureChannel client;
  crypto::SecureChannel server;
};

ChannelPair make_channel_pair(std::uint8_t tag) {
  crypto::X25519Key static_seed{};
  static_seed[0] = tag;
  static_seed[1] = 0xa5;
  crypto::X25519Key server_eph_seed{};
  server_eph_seed[0] = tag;
  server_eph_seed[1] = 0x5a;
  crypto::X25519Key client_eph_seed{};
  client_eph_seed[0] = tag;
  client_eph_seed[1] = 0xc3;

  const auto statics = crypto::x25519_keypair_from_seed(crypto::X25519Secret(static_seed));
  const auto server_eph = crypto::x25519_keypair_from_seed(crypto::X25519Secret(server_eph_seed));
  const auto client_eph = crypto::x25519_keypair_from_seed(crypto::X25519Secret(client_eph_seed));

  return ChannelPair{
      .client = crypto::SecureChannel::initiator(client_eph, statics.public_key,
                                                 server_eph.public_key),
      .server = crypto::SecureChannel::responder(statics, server_eph,
                                                 client_eph.public_key),
  };
}

crypto::SecureChannel make_server_channel(std::uint8_t tag) {
  return std::move(make_channel_pair(tag).server);
}

TEST(SessionTable, InsertAcquireRoundTrip) {
  SessionTable table({.capacity = 8, .shards = 2});
  auto pair = make_channel_pair(1);
  const std::uint64_t id = table.insert(std::move(pair.server));
  EXPECT_GT(id, 0u);
  EXPECT_EQ(table.size(), 1u);

  const Bytes record = pair.client.seal(to_bytes("hello enclave"));
  auto session = table.acquire(id);
  ASSERT_TRUE(static_cast<bool>(session));
  auto plain = session.channel().open(record);
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  EXPECT_EQ(to_string(plain.value()), "hello enclave");
}

TEST(SessionTable, AcquireUnknownIsAMiss) {
  SessionTable table({.capacity = 4, .shards = 1});
  EXPECT_FALSE(static_cast<bool>(table.acquire(42)));
  EXPECT_FALSE(table.erase(42));
  EXPECT_EQ(table.stats().misses, 1u);
}

TEST(SessionTable, LruEvictionPrefersColdSessions) {
  SessionTable table({.capacity = 3, .shards = 1});
  const auto a = table.insert(make_server_channel(1));
  const auto b = table.insert(make_server_channel(2));
  const auto c = table.insert(make_server_channel(3));
  // Touch a: b becomes the coldest session.
  ASSERT_TRUE(static_cast<bool>(table.acquire(a)));
  const auto d = table.insert(make_server_channel(4));

  EXPECT_FALSE(static_cast<bool>(table.acquire(b)));  // evicted
  EXPECT_TRUE(static_cast<bool>(table.acquire(a)));
  EXPECT_TRUE(static_cast<bool>(table.acquire(c)));
  EXPECT_TRUE(static_cast<bool>(table.acquire(d)));
  const auto stats = table.stats();
  EXPECT_EQ(stats.evicted_lru, 1u);
  EXPECT_EQ(stats.active, 3u);
  EXPECT_EQ(stats.created, 4u);
}

TEST(SessionTable, IdleTtlExpiresSessions) {
  Nanos fake_now = 0;
  SessionTable table({.capacity = 8, .idle_ttl = 1000, .shards = 1},
                     /*epc=*/nullptr, [&] { return fake_now; });
  const auto a = table.insert(make_server_channel(1));

  fake_now = 500;
  EXPECT_TRUE(static_cast<bool>(table.acquire(a)));  // touch resets idleness

  fake_now = 1499;
  EXPECT_TRUE(static_cast<bool>(table.acquire(a)));

  fake_now = 2499;  // 1000ns idle since the touch at 1499
  EXPECT_FALSE(static_cast<bool>(table.acquire(a)));
  EXPECT_EQ(table.stats().expired_ttl, 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(SessionTable, SweepExpiredReapsIdleSessionsInBulk) {
  Nanos fake_now = 0;
  SessionTable table({.capacity = 16, .idle_ttl = 100, .shards = 4},
                     /*epc=*/nullptr, [&] { return fake_now; });
  for (int i = 0; i < 10; ++i) (void)table.insert(make_server_channel(1));
  EXPECT_EQ(table.size(), 10u);
  EXPECT_EQ(table.sweep_expired(), 0u);

  fake_now = 1000;
  EXPECT_EQ(table.sweep_expired(), 10u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.stats().expired_ttl, 10u);
}

TEST(SessionTable, EpcChargeAndReleaseAreSymmetric) {
  sgx::EpcAccountant epc(1 << 20);
  const std::size_t per_session = SessionTable::session_epc_bytes();
  {
    SessionTable table({.capacity = 4, .shards = 1}, &epc);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(table.insert(make_server_channel(static_cast<std::uint8_t>(i))));
    }
    EXPECT_EQ(epc.in_use(), 4 * per_session);
    EXPECT_EQ(table.stats().epc_bytes, 4 * per_session);

    // LRU eviction releases exactly one session's charge.
    (void)table.insert(make_server_channel(9));
    EXPECT_EQ(epc.in_use(), 4 * per_session);

    // Explicit erase releases too.
    EXPECT_TRUE(table.erase(ids[3]));
    EXPECT_EQ(epc.in_use(), 3 * per_session);
    EXPECT_EQ(table.stats().erased, 1u);
  }
  // Destruction releases everything still live.
  EXPECT_EQ(epc.in_use(), 0u);
}

TEST(SessionTable, ShardedCapacityBoundsGlobalSize) {
  SessionTable table({.capacity = 8, .shards = 4});
  for (int i = 0; i < 100; ++i) (void)table.insert(make_server_channel(1));
  const auto stats = table.stats();
  EXPECT_LE(stats.active, 8u);
  EXPECT_EQ(stats.created, 100u);
  EXPECT_EQ(stats.evicted_lru, stats.created - stats.active);
  EXPECT_LE(stats.peak_active, 8u + 1u);  // insert charges before evicting
}

TEST(SessionTable, ConcurrentInsertAcquireEraseIsSafe) {
  sgx::EpcAccountant epc(8 << 20);
  SessionTable table({.capacity = 64, .shards = 8}, &epc);
  constexpr int kThreads = 8;
  constexpr int kOpsEach = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      std::vector<std::uint64_t> mine;
      for (int i = 0; i < kOpsEach; ++i) {
        mine.push_back(table.insert(make_server_channel(static_cast<std::uint8_t>(t))));
        (void)table.acquire(mine[static_cast<std::size_t>(i) / 2]);
        if (i % 3 == 0) (void)table.erase(mine.back());
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = table.stats();
  EXPECT_EQ(stats.created, static_cast<std::uint64_t>(kThreads) * kOpsEach);
  EXPECT_LE(stats.active, 64u);
  // Accounting invariant after arbitrary interleaving: live sessions and
  // EPC bytes agree exactly.
  EXPECT_EQ(stats.epc_bytes, stats.active * SessionTable::session_epc_bytes());
  EXPECT_EQ(epc.in_use(), stats.epc_bytes);
}

// ---- proxy-level session lifecycle ------------------------------------------

XSearchProxy::Options saturation_options() {
  XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 1000;
  options.contact_engine = false;  // no engine: session paths in isolation
  return options;
}

using testutil::Transport;

class ProxySessionsEviction : public ::testing::TestWithParam<Transport> {};

TEST_P(ProxySessionsEviction, EvictedSessionQueryReturnsNotFound) {
  sgx::AttestationAuthority authority(to_bytes("session-test-root"));
  auto options = saturation_options();
  options.session_capacity = 1;
  options.session_shards = 1;
  XSearchProxy proxy(nullptr, authority, options);
  const testutil::ServedProxy served(GetParam(), proxy);

  auto first = served.broker(authority, proxy.measurement(), 1);
  ASSERT_TRUE(first->connect().is_ok());  // session id 1
  ASSERT_TRUE(first->search("while still resident").is_ok());

  // The second handshake exceeds the capacity-1 table and evicts `first`.
  auto second = served.broker(authority, proxy.measurement(), 2);
  ASSERT_TRUE(second->connect().is_ok());
  EXPECT_EQ(proxy.session_stats().evicted_lru, 1u);

  // A record for the evicted session id is refused with NOT_FOUND at the
  // proxy API (the first handshake of this proxy allocated id 1).
  const auto raw = proxy.handle_query_record(1, Bytes(64, 1));
  ASSERT_FALSE(raw.is_ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kNotFound);

  // The broker recovers transparently: one fresh handshake, one retry.
  EXPECT_TRUE(first->search("after eviction").is_ok());
  EXPECT_EQ(first->reconnects(), 1u);
  EXPECT_EQ(proxy.session_stats().evicted_lru, 2u);  // it evicted `second`
}

INSTANTIATE_TEST_SUITE_P(Transports, ProxySessionsEviction,
                         ::testing::Values(Transport::kTcp,
                                           Transport::kInProcess),
                         testutil::transport_name);

TEST(ProxySessions, IdleSessionExpiresThroughProxy) {
  sgx::AttestationAuthority authority(to_bytes("session-test-root"));
  auto options = saturation_options();
  // Wide enough that the handshake→query gap of one search cannot span it
  // even under TSan on a loaded runner (a 1 ms TTL flaked there: the FIRST
  // search's own session expired mid-call, yielding a second reconnect).
  options.session_idle_ttl = 200 * kMilli;
  XSearchProxy proxy(nullptr, authority, options);

  auto broker =
      testutil::in_process_broker(proxy, authority, proxy.measurement(), 3);
  ASSERT_TRUE(broker.search("fresh").is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  // The idle session expired; the broker re-handshakes and retries once.
  EXPECT_TRUE(broker.search("stale").is_ok());
  EXPECT_EQ(broker.reconnects(), 1u);
  EXPECT_EQ(proxy.session_stats().expired_ttl, 1u);
}

TEST(ProxySessions, ValidatedCreateChecksSessionCapacityAndInitStatus) {
  sgx::AttestationAuthority authority(to_bytes("session-test-root"));
  auto options = saturation_options();
  options.session_capacity = 0;
  EXPECT_EQ(XSearchProxy::create(nullptr, authority, options).status().code(),
            StatusCode::kInvalidArgument);

  auto proxy = XSearchProxy::create(nullptr, authority, saturation_options());
  ASSERT_TRUE(proxy.is_ok()) << proxy.status().to_string();
  EXPECT_TRUE(proxy.value()->init_status().is_ok());
}

// Regression test for the SecureChannel data race: the channel was fetched
// under the sessions mutex but open()/seal() ran unlocked, so concurrent
// records on one session raced on the nonce counters (and could dangle on a
// concurrent erase). With per-session locking, one thread issuing ordered
// queries stays correct while many threads slam the same session with
// garbage records. TSan (CI job) verifies the absence of the race.
TEST(ProxySessions, OneSessionHammeredFromManyThreads) {
  sgx::AttestationAuthority authority(to_bytes("session-test-root"));
  XSearchProxy proxy(nullptr, authority, saturation_options());

  // Manual handshake so the session id is visible to the hammer threads.
  crypto::X25519Key eph_seed{};
  eph_seed[0] = 0x77;
  const auto ephemeral = crypto::x25519_keypair_from_seed(crypto::X25519Secret(eph_seed));
  auto handshake = proxy.handshake(ephemeral.public_key);
  ASSERT_TRUE(handshake.is_ok()) << handshake.status().to_string();
  auto static_pub = sgx::verify_and_extract_channel_key(
      authority, handshake.value().quote, proxy.measurement());
  ASSERT_TRUE(static_pub.is_ok());
  auto channel = crypto::SecureChannel::initiator(
      ephemeral, static_pub.value(), handshake.value().server_ephemeral_pub);
  const std::uint64_t session_id = handshake.value().session_id;

  std::atomic<bool> stop{false};
  std::atomic<int> garbage_accepted{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([&] {
      const Bytes garbage(48, 0x5a);
      while (!stop.load(std::memory_order_relaxed)) {
        if (proxy.handle_query_record(session_id, garbage).is_ok()) {
          ++garbage_accepted;
        }
      }
    });
  }

  // Ordered real queries race the garbage on the same session's channel.
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    const Bytes record =
        channel.seal(wire::frame_query("query " + std::to_string(i)));
    auto response = proxy.handle_query_record(session_id, record);
    ASSERT_TRUE(response.is_ok()) << "query " << i << ": "
                                  << response.status().to_string();
    auto plain = channel.open(response.value());
    ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
    ++ok;
  }
  stop.store(true);
  for (auto& h : hammers) h.join();

  EXPECT_EQ(ok, 50);
  EXPECT_EQ(garbage_accepted.load(), 0);  // unauthenticated records all refused
  EXPECT_EQ(proxy.session_stats().active, 1u);
}

}  // namespace
}  // namespace xsearch::core
