// Session lifecycle subsystem tests: bounded SessionTable (LRU eviction,
// checked against a sequential reference model; EPC charge/release
// symmetry; per-session locking) and the proxy-level behaviors built on it —
// evicted sessions answering NOT_FOUND and the regression test for the
// SecureChannel data race (one session hammered from many threads; run
// under TSan in CI).
#include "xsearch/session_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
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

// The key a table forks its session streams from; a proxy draws it from its
// enclave's entropy, these tests need only some key.
const crypto::ChaChaKey kStreamKey{};

TEST(SessionTable, InsertAcquireRoundTrip) {
  SessionTable table({.capacity = 8, .shards = 2}, kStreamKey);
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
  SessionTable table({.capacity = 4, .shards = 1}, kStreamKey);
  EXPECT_FALSE(static_cast<bool>(table.acquire(42)));
  EXPECT_EQ(table.metrics().value("sessions.misses"), 1u);
}

TEST(SessionTable, LruEvictionPrefersColdSessions) {
  SessionTable table({.capacity = 3, .shards = 1}, kStreamKey);
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
  const auto stats = table.metrics();
  EXPECT_EQ(stats.value("sessions.evicted_lru"), 1u);
  EXPECT_EQ(stats.value("sessions.active"), 3u);
  EXPECT_EQ(stats.value("sessions.created"), 4u);
}

TEST(SessionTable, EpcChargeAndReleaseAreSymmetric) {
  sgx::EpcAccountant epc(1 << 20);
  const std::size_t per_session = SessionTable::session_epc_bytes();
  {
    SessionTable table({.capacity = 4, .shards = 1}, kStreamKey, &epc);
    for (int i = 0; i < 4; ++i) {
      (void)table.insert(make_server_channel(static_cast<std::uint8_t>(i)));
    }
    EXPECT_EQ(epc.in_use(), 4 * per_session);
    EXPECT_EQ(table.metrics().value("sessions.epc_bytes"), 4 * per_session);

    // LRU eviction releases exactly one session's charge.
    (void)table.insert(make_server_channel(9));
    EXPECT_EQ(epc.in_use(), 4 * per_session);
    EXPECT_EQ(table.metrics().value("sessions.evicted_lru"), 1u);
  }
  // Destruction releases everything still live.
  EXPECT_EQ(epc.in_use(), 0u);
}

TEST(SessionTable, ShardedCapacityBoundsGlobalSize) {
  SessionTable table({.capacity = 8, .shards = 4}, kStreamKey);
  for (int i = 0; i < 100; ++i) (void)table.insert(make_server_channel(1));
  const auto stats = table.metrics();
  EXPECT_LE(stats.value("sessions.active"), 8u);
  EXPECT_EQ(stats.value("sessions.created"), 100u);
  EXPECT_EQ(stats.value("sessions.evicted_lru"),
            stats.value("sessions.created") - stats.value("sessions.active"));
  // insert charges before evicting
  EXPECT_LE(stats.value("sessions.peak_active"), 8u + 1u);
}

// Sequential reference for one table: per shard, an LRU list (front = most
// recent) under that shard's quota, plus the shared id counter. Mirrors the
// documented contract, not the implementation's containers.
class ReferenceTable {
 public:
  ReferenceTable(std::size_t capacity, std::size_t shards) : lru_(shards) {
    for (std::size_t i = 0; i < shards; ++i) {
      quota_.push_back(capacity / shards + (i < capacity % shards ? 1 : 0));
    }
  }

  /// The id `insert` returns (0 = refused proposal); `evicted` receives the
  /// id pushed out of its shard, or 0.
  std::uint64_t insert(std::uint64_t proposed_id, std::uint64_t& evicted) {
    evicted = 0;
    std::uint64_t id = proposed_id;
    if (id != 0) {
      if (contains(id)) return 0;
    } else {
      // Counter ids skip over ids a proposal already took.
      do {
        id = next_id_++;
      } while (contains(id));
    }
    auto& lru = shard(id);
    lru.push_front(id);
    if (lru.size() > quota_[id % lru_.size()]) {
      evicted = lru.back();
      lru.pop_back();
      ++evicted_lru;
    }
    ++created;
    return id;
  }

  bool acquire(std::uint64_t id) {
    auto& lru = shard(id);
    const auto it = std::find(lru.begin(), lru.end(), id);
    if (it == lru.end()) {
      ++misses;
      return false;
    }
    lru.splice(lru.begin(), lru, it);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    const auto& lru = lru_[id % lru_.size()];
    return std::find(lru.begin(), lru.end(), id) != lru.end();
  }

  [[nodiscard]] std::size_t active() const {
    std::size_t n = 0;
    for (const auto& lru : lru_) n += lru.size();
    return n;
  }

  [[nodiscard]] std::vector<std::uint64_t> members() const {
    std::vector<std::uint64_t> out;
    for (const auto& lru : lru_) out.insert(out.end(), lru.begin(), lru.end());
    return out;
  }

  std::uint64_t created = 0;
  std::uint64_t evicted_lru = 0;
  std::uint64_t misses = 0;

 private:
  std::list<std::uint64_t>& shard(std::uint64_t id) { return lru_[id % lru_.size()]; }

  std::vector<std::list<std::uint64_t>> lru_;
  std::vector<std::size_t> quota_;
  std::uint64_t next_id_ = 1;
};

// Model-based check: seeded random inserts (counter ids and proposed ids
// drawn from the counter's own range, so proposals collide with live ids
// and counter ids land on proposed ones) and acquires (hits and misses),
// replayed against the sequential reference. After every step the table
// must agree on the returned id, on which session was evicted, on every
// counter and on the EPC charge.
TEST(SessionTable, MatchesSequentialLruModel) {
  const std::size_t per_session = SessionTable::session_epc_bytes();
  const crypto::SecureChannel prototype = make_server_channel(1);
  struct Shape {
    std::size_t capacity;
    std::size_t shards;
  };
  for (const Shape shape : {Shape{1, 1}, Shape{5, 1}, Shape{7, 3}, Shape{16, 4}}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(shape.capacity) + ", shards " +
                   std::to_string(shape.shards) + ", seed " + std::to_string(seed));
      sgx::EpcAccountant epc(1 << 20);
      SessionTable table({.capacity = shape.capacity, .shards = shape.shards},
                         kStreamKey, &epc);
      ReferenceTable model(shape.capacity, shape.shards);
      Rng rng(seed);
      std::uint64_t issued = 0;  // highest id handed out so far

      for (int step = 0; step < 600; ++step) {
        const std::uint64_t roll = rng.uniform(10);
        const std::uint64_t pool = issued + 4;  // live, departed and future ids
        if (roll < 4) {
          std::uint64_t evicted = 0;
          const std::uint64_t proposed = roll < 2 ? 1 + rng.uniform(pool) : 0;
          const std::uint64_t want = model.insert(proposed, evicted);
          const std::uint64_t got = table.insert(crypto::SecureChannel(prototype), proposed);
          ASSERT_EQ(got, want) << "step " << step << ", proposed " << proposed;
          issued = std::max(issued, got);
          if (evicted != 0) {
            // The evicted session is gone (a miss, for both sides).
            EXPECT_FALSE(model.acquire(evicted));
            ASSERT_FALSE(static_cast<bool>(table.acquire(evicted)))
                << "step " << step << ": expected " << evicted << " evicted";
          }
        } else {
          const std::uint64_t id = 1 + rng.uniform(pool);
          ASSERT_EQ(static_cast<bool>(table.acquire(id)), model.acquire(id))
              << "step " << step << ", id " << id;
        }
        const auto stats = table.metrics();
        ASSERT_EQ(stats.value("sessions.created"), model.created);
        ASSERT_EQ(stats.value("sessions.evicted_lru"), model.evicted_lru);
        ASSERT_EQ(stats.value("sessions.misses"), model.misses);
        ASSERT_EQ(stats.value("sessions.active"), model.active());
        ASSERT_EQ(table.size(), model.active());
        ASSERT_EQ(epc.in_use(), model.active() * per_session);
      }
      // Every session the model holds is live in the table.
      for (const std::uint64_t id : model.members()) {
        EXPECT_TRUE(static_cast<bool>(table.acquire(id))) << "id " << id;
      }
    }
  }
}

// Many threads insert and acquire through a table far smaller than the
// sessions they create, so LRU eviction runs concurrently with acquires of
// the same and other sessions (TSan covers the interleavings).
TEST(SessionTable, ConcurrentInsertAcquireUnderEvictionIsSafe) {
  sgx::EpcAccountant epc(8 << 20);
  SessionTable table({.capacity = 16, .shards = 8}, kStreamKey, &epc);
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
        (void)table.acquire(mine.back());
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = table.metrics();
  EXPECT_EQ(stats.value("sessions.created"),
            static_cast<std::uint64_t>(kThreads) * kOpsEach);
  EXPECT_EQ(stats.value("sessions.active"), 16u);
  EXPECT_EQ(stats.value("sessions.evicted_lru"),
            stats.value("sessions.created") - stats.value("sessions.active"));
  // Accounting invariant after arbitrary interleaving: live sessions and
  // EPC bytes agree exactly.
  EXPECT_EQ(stats.value("sessions.epc_bytes"),
            stats.value("sessions.active") * SessionTable::session_epc_bytes());
  EXPECT_EQ(epc.in_use(), stats.value("sessions.epc_bytes"));
}

// ---- proxy-level session lifecycle ------------------------------------------

XSearchProxy::Options saturation_options() {
  XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 1000;
  return options;
}

using testutil::Transport;

class ProxySessionsEviction : public ::testing::TestWithParam<Transport> {};

TEST_P(ProxySessionsEviction, EvictedSessionQueryReturnsNotFound) {
  sgx::AttestationAuthority authority(to_bytes("session-test-root"));
  auto options = saturation_options();
  options.session_capacity = 1;
  XSearchProxy proxy(nullptr, authority, options);
  const testutil::ServedProxy served(GetParam(), proxy);

  auto first = served.broker(authority, proxy.measurement(), 1);
  ASSERT_TRUE(first->connect().is_ok());  // session id 1
  ASSERT_TRUE(first->search("while still resident").is_ok());

  // The second handshake exceeds the capacity-1 table and evicts `first`.
  auto second = served.broker(authority, proxy.measurement(), 2);
  ASSERT_TRUE(second->connect().is_ok());
  EXPECT_EQ(proxy.metrics().value("sessions.evicted_lru"), 1u);

  // A record for the evicted session id is refused with NOT_FOUND at the
  // proxy API (the first handshake of this proxy allocated id 1).
  const auto raw = proxy.handle_query_record(1, Bytes(64, 1));
  ASSERT_FALSE(raw.is_ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kNotFound);

  // The broker recovers transparently: one fresh handshake, one retry.
  EXPECT_TRUE(first->search("after eviction").is_ok());
  EXPECT_EQ(first->metrics().value("broker.reconnects"), 1u);
  EXPECT_EQ(proxy.metrics().value("sessions.evicted_lru"), 2u);  // it evicted `second`
}

INSTANTIATE_TEST_SUITE_P(Transports, ProxySessionsEviction,
                         ::testing::Values(Transport::kTcp,
                                           Transport::kInProcess),
                         testutil::transport_name);

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
        channel.seal(wire::frame_query_batch({"query " + std::to_string(i)}));
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
  EXPECT_EQ(proxy.metrics().value("sessions.active"), 1u);
}

}  // namespace
}  // namespace xsearch::core
