// ProxyServer pool/registry tests: connection reaping, saturation shedding,
// and the acceptance stress test of the session subsystem — ≥1k queries
// across ≥8 concurrent TCP sessions against a capped SessionTable, with
// evictions observed and the proxy's EPC accounting stable. Run under
// ThreadSanitizer in CI.
#include "net/proxy_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <cstring>

#include "net/frame.hpp"
#include "net/remote_broker.hpp"
#include "net/socket.hpp"
#include "sgx/attestation.hpp"
#include "test_util.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::net {
namespace {

core::XSearchProxy::Options saturation_options() {
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  options.contact_engine = false;  // isolate the proxy/session path
  return options;
}

// Reaping is asynchronous with the client's close (the worker notices EOF,
// then erases the registry entry), hence the shared polling helper.
using testutil::eventually;

TEST(ProxyServerPool, ReapsFinishedConnections) {
  sgx::AttestationAuthority authority(to_bytes("pool-test-root"));
  core::XSearchProxy proxy(nullptr, authority, saturation_options());
  auto server = ProxyServer::start(proxy);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  constexpr int kConnections = 10;
  for (int i = 0; i < kConnections; ++i) {
    RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                        proxy.measurement(), static_cast<std::uint64_t>(i));
    ASSERT_TRUE(broker.search("q" + std::to_string(i)).is_ok());
  }  // broker teardown closes each connection

  // The registry shrinks back to zero instead of accumulating one entry
  // (and one thread) per connection ever served.
  EXPECT_TRUE(eventually([&] { return server.value()->active_connections() == 0; }));
  EXPECT_TRUE(eventually([&] {
    return server.value()->connections_reaped() == kConnections;
  }));
  EXPECT_EQ(server.value()->connections_served(), kConnections);
  EXPECT_EQ(server.value()->connections_shed(), 0u);
  server.value()->stop();
}

TEST(ProxyServerPool, ShedsConnectionsBeyondHardCap) {
  sgx::AttestationAuthority authority(to_bytes("pool-test-root"));
  core::XSearchProxy proxy(nullptr, authority, saturation_options());
  ProxyServer::Options options;
  options.max_connections = 2;
  auto server = ProxyServer::start(proxy, 0, options);
  ASSERT_TRUE(server.is_ok());

  // Two connections fill the hard cap. Idle is enough: the cap bounds live
  // sockets, not busy workers (idle sessions hold no worker anymore).
  auto first = TcpStream::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(first.is_ok());
  auto second = TcpStream::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(second.is_ok());
  ASSERT_TRUE(
      eventually([&] { return server.value()->active_connections() == 2; }));

  // Third connection is over the cap: shed at accept with a typed
  // OVERLOADED error instead of admitted (or EMFILE'd) silently.
  auto shed = TcpStream::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(shed.is_ok());
  ASSERT_TRUE(eventually([&] { return server.value()->connections_shed() == 1; }));
  auto reply = read_frame(shed.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, FrameType::kErrorStatus);
  const Status shed_status = decode_error_status(reply.value().payload);
  EXPECT_EQ(shed_status.code(), StatusCode::kOverloaded);
  EXPECT_NE(shed_status.message().find("server busy"), std::string::npos);
  // ...and the connection is closed after the error frame.
  auto after = read_frame(shed.value());
  EXPECT_FALSE(after.is_ok());

  // The shed connection is not admitted: the cap still has room for the
  // live pair, and the admitted ones keep working.
  EXPECT_EQ(server.value()->active_connections(), 2u);
  RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                      proxy.measurement(), 9);
  first.value().shutdown_both();  // make room under the cap
  ASSERT_TRUE(eventually(
      [&] { return server.value()->active_connections() <= 1; }));
  ASSERT_TRUE(broker.search("after shed").is_ok());

  server.value()->stop();
}

/// ProxyHandler wrapper that parks query handling on a gate, so a test can
/// hold the single dispatch worker busy for a controlled window.
class GateHandler final : public core::ProxyHandler {
 public:
  explicit GateHandler(core::ProxyHandler& inner) : inner_(&inner) {}

  Result<core::HandshakeResponse> handshake(
      const crypto::X25519Key& client_ephemeral_pub,
      std::uint64_t proposed_session_id) override {
    return inner_->handshake(client_ephemeral_pub, proposed_session_id);
  }

  Result<Bytes> handle_query_record(std::uint64_t session_id,
                                    ByteSpan record) override {
    entered_.fetch_add(1, std::memory_order_release);
    while (!open_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return inner_->handle_query_record(session_id, record);
  }

  [[nodiscard]] sgx::Measurement measurement() const override {
    return inner_->measurement();
  }

  [[nodiscard]] int entered() const {
    return entered_.load(std::memory_order_acquire);
  }
  void open_gate() { open_.store(true, std::memory_order_release); }

 private:
  core::ProxyHandler* inner_;
  std::atomic<int> entered_{0};
  std::atomic<bool> open_{false};
};

TEST(ProxyServerPool, QueuedRequestPastTimeoutIsShedTyped) {
  sgx::AttestationAuthority authority(to_bytes("pool-test-root"));
  core::XSearchProxy proxy(nullptr, authority, saturation_options());
  GateHandler gate(proxy);
  ProxyServer::Options options;
  options.workers = 1;
  options.max_pending_connections = 1;
  options.queue_timeout = 30 * kMilli;
  auto server = ProxyServer::start(gate, 0, options);
  ASSERT_TRUE(server.is_ok());

  // Occupy the single dispatch worker: the broker's search blocks inside
  // the gated handler.
  RemoteBroker occupant("127.0.0.1", server.value()->port(), authority,
                        proxy.measurement(), 1);
  ASSERT_TRUE(occupant.connect().is_ok());
  std::thread occupant_search([&] { (void)occupant.search("hold the worker"); });
  ASSERT_TRUE(eventually([&] { return gate.entered() == 1; }));

  // A second client's handshake request now parks in the dispatch queue...
  auto queued = TcpStream::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(queued.is_ok());
  const Bytes hello(crypto::kX25519KeySize, 0x42);
  ASSERT_TRUE(write_frame(queued.value(), FrameType::kHello, hello).is_ok());

  // ...well past its queue deadline (its client would have given up).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The worker frees up and picks the queued request: instead of serving
  // abandoned work it sheds it with a typed OVERLOADED error.
  gate.open_gate();
  occupant_search.join();
  auto reply = read_frame(queued.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, FrameType::kErrorStatus);
  const Status shed_status = decode_error_status(reply.value().payload);
  EXPECT_EQ(shed_status.code(), StatusCode::kOverloaded);
  EXPECT_NE(shed_status.message().find("expired"), std::string::npos);
  EXPECT_TRUE(eventually([&] { return server.value()->queue_expired() == 1; }));
  EXPECT_EQ(server.value()->connections_shed(), 1u);

  server.value()->stop();
}

// Acceptance stress test (ISSUE 2): ≥1k queries across ≥8 concurrent
// sessions through ProxyServer over real TCP, with the SessionTable capped
// low enough that evictions occur, and the enclave's memory accounting
// exactly balanced at the end. Client threads churn through fresh sessions
// (re-handshaking every few queries) so the table sees far more sessions
// than it may hold; the RemoteBroker's transparent re-handshake absorbs any
// eviction of a momentarily idle live session.
TEST(ProxyServerPool, StressManySessionsBoundedTableStableEpc) {
  sgx::AttestationAuthority authority(to_bytes("pool-test-root"));
  auto options = saturation_options();
  options.session_capacity = 32;
  options.session_shards = 4;
  core::XSearchProxy proxy(nullptr, authority, options);

  ProxyServer::Options server_options;
  server_options.workers = 8;
  auto server = ProxyServer::start(proxy, 0, server_options);
  ASSERT_TRUE(server.is_ok());

  constexpr int kClientThreads = 8;   // concurrent sessions at any moment
  constexpr int kRounds = 17;         // sessions per thread (churn)
  constexpr int kQueriesPerRound = 8; // 8 * 17 * 8 = 1088 >= 1k queries
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::atomic<std::uint64_t> reconnects{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        RemoteBroker broker(
            "127.0.0.1", server.value()->port(), authority, proxy.measurement(),
            static_cast<std::uint64_t>(c * 1000 + round));
        for (int q = 0; q < kQueriesPerRound; ++q) {
          const std::string query = "client " + std::to_string(c) + " round " +
                                    std::to_string(round) + " query " +
                                    std::to_string(q);
          if (broker.search(query).is_ok()) {
            ++completed;
          } else {
            ++failures;
          }
        }
        reconnects += broker.reconnects();
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kClientThreads * kRounds * kQueriesPerRound);
  EXPECT_GE(completed.load(), 1000);

  const auto stats = proxy.session_stats();
  // Far more sessions were created than the cap; the table stayed bounded
  // and evicted the excess.
  EXPECT_GE(stats.created,
            static_cast<std::uint64_t>(kClientThreads) * kRounds);
  EXPECT_LE(stats.active, 32u);
  EXPECT_GT(stats.evicted_lru + stats.expired_ttl, 0u);

  // EPC accounting is stable: occupancy decomposes exactly into the (full,
  // bounded) history window plus the live sessions' charge — nothing leaked
  // by the eviction/reap churn.
  EXPECT_EQ(stats.epc_bytes,
            stats.active * core::SessionTable::session_epc_bytes());
  EXPECT_EQ(proxy.enclave().epc().in_use(),
            proxy.history_memory_bytes() + stats.epc_bytes);

  // All client connections were reaped once the brokers went away.
  EXPECT_TRUE(eventually([&] { return server.value()->active_connections() == 0; }));
  EXPECT_EQ(server.value()->connections_served(),
            server.value()->connections_reaped());

  server.value()->stop();
}

TEST(ProxyServerPool, StopWithLiveConnectionsIsCleanAndIdempotent) {
  sgx::AttestationAuthority authority(to_bytes("pool-test-root"));
  core::XSearchProxy proxy(nullptr, authority, saturation_options());
  auto server = ProxyServer::start(proxy);
  ASSERT_TRUE(server.is_ok());

  RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                      proxy.measurement(), 1);
  ASSERT_TRUE(broker.search("live during stop").is_ok());

  server.value()->stop();  // must unblock the worker parked in recv
  server.value()->stop();  // idempotent
  EXPECT_EQ(server.value()->active_connections(), 0u);

  // stop() released the listener descriptor: the port is immediately free
  // for a replacement server, even while the stopped one is still in scope.
  auto rebound = TcpListener::bind(server.value()->port());
  EXPECT_TRUE(rebound.is_ok()) << rebound.status().to_string();
}

// --- batch retry semantics ---------------------------------------------------

/// Minimal lossy proxy host: speaks the real frame protocol against a real
/// enclave proxy, but CLOSES the first connection right after executing its
/// batch — the "reply lost after execution" window no transport can rule
/// out. The second connection behaves.
void serve_lossy_host(TcpListener& listener, core::XSearchProxy& proxy) {
  for (int conn = 0; conn < 2; ++conn) {
    auto stream = listener.accept();
    if (!stream.is_ok()) return;
    const bool drop_reply = conn == 0;
    for (;;) {
      auto frame = read_frame(stream.value());
      if (!frame.is_ok()) break;
      if (frame.value().type == FrameType::kHello) {
        crypto::X25519Key client_pub;
        ASSERT_EQ(frame.value().payload.size(), client_pub.size());
        std::memcpy(client_pub.data(), frame.value().payload.data(),
                    client_pub.size());
        auto response = proxy.handshake(client_pub);
        ASSERT_TRUE(response.is_ok());
        Bytes payload;
        core::wire::put_u64(payload, response.value().session_id);
        const Bytes quote = response.value().quote.serialize();
        core::wire::put_u32(payload, static_cast<std::uint32_t>(quote.size()));
        append(payload, quote);
        append(payload, response.value().server_ephemeral_pub);
        ASSERT_TRUE(
            write_frame(stream.value(), FrameType::kHelloReply, payload).is_ok());
        continue;
      }
      ASSERT_EQ(frame.value().type, FrameType::kBatchQuery);
      std::size_t offset = 0;
      auto session = core::wire::get_u64(frame.value().payload, offset);
      ASSERT_TRUE(session.is_ok());
      // The proxy EXECUTES the batch either way…
      auto response = proxy.handle_query_record(
          session.value(), ByteSpan(frame.value().payload).subspan(offset));
      ASSERT_TRUE(response.is_ok());
      if (!drop_reply) {  // …but on conn 0 the reply dies with the connection.
        ASSERT_TRUE(write_frame(stream.value(), FrameType::kBatchReply,
                                response.value())
                        .is_ok());
      }
      break;  // one batch per connection, then hang up
    }
  }
}

TEST(RemoteBrokerRetry, LostBatchReplyRetriesAtLeastOnceAndIsCounted) {
  // Pins the documented at-least-once semantics of search_batch: when the
  // frame was delivered but its reply lost, the retry re-executes the whole
  // batch on the proxy (duplicate history adds), and the broker counts the
  // duplication-risk retry.
  sgx::AttestationAuthority authority(to_bytes("lossy-host-root"));
  core::XSearchProxy proxy(nullptr, authority, saturation_options());
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread host(
      [&] { serve_lossy_host(listener.value(), proxy); });

  RemoteBroker broker("127.0.0.1", listener.value().port(), authority,
                      proxy.measurement(), 77);
  const std::vector<std::string> queries = {"alpha", "beta", "gamma"};
  auto outcomes = broker.search_batch(queries);
  host.join();

  ASSERT_TRUE(outcomes.is_ok()) << outcomes.status().to_string();
  ASSERT_EQ(outcomes.value().size(), queries.size());
  for (const auto& outcome : outcomes.value()) {
    EXPECT_TRUE(outcome.status.is_ok());
  }
  EXPECT_EQ(broker.reconnects(), 1u);
  EXPECT_EQ(broker.at_least_once_retries(), 1u);
  // The at-least-once window is real: both executions added to the history.
  EXPECT_EQ(proxy.history_size(), 2 * queries.size());
}

TEST(RemoteBrokerRetry, RefusedRecordRetriesExactlyOnce) {
  // A frame-level error (unknown session after an eviction) means the proxy
  // never opened the record: the transparent retry must NOT count as an
  // at-least-once risk, and nothing may execute twice.
  sgx::AttestationAuthority authority(to_bytes("evict-retry-root"));
  core::XSearchProxy::Options options = saturation_options();
  options.session_capacity = 1;
  core::XSearchProxy proxy(nullptr, authority, options);
  auto server = ProxyServer::start(proxy);
  ASSERT_TRUE(server.is_ok());

  RemoteBroker first("127.0.0.1", server.value()->port(), authority,
                     proxy.measurement(), 1);
  ASSERT_TRUE(first.connect().is_ok());
  RemoteBroker second("127.0.0.1", server.value()->port(), authority,
                      proxy.measurement(), 2);
  ASSERT_TRUE(second.connect().is_ok());  // capacity 1: evicts `first`

  const std::vector<std::string> queries = {"one", "two"};
  auto outcomes = first.search_batch(queries);  // unknown session → retry
  ASSERT_TRUE(outcomes.is_ok()) << outcomes.status().to_string();
  EXPECT_EQ(first.reconnects(), 1u);
  EXPECT_EQ(first.at_least_once_retries(), 0u);
  EXPECT_EQ(proxy.history_size(), queries.size());  // executed exactly once
  server.value()->stop();
}

}  // namespace
}  // namespace xsearch::net
