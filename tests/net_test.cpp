// TCP transport tests: sockets, framing, and the full networked deployment
// (ProxyServer + RemoteBroker over loopback).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/frame.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "net/socket.hpp"
#include "sgx/attestation.hpp"

namespace xsearch::net {
namespace {

// ---- sockets -----------------------------------------------------------------

TEST(TcpSocket, ConnectAndEcho) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  std::thread server([&] {
    auto stream = listener.value().accept();
    ASSERT_TRUE(stream.is_ok());
    auto data = stream.value().read_exact(5);
    ASSERT_TRUE(data.is_ok());
    ASSERT_TRUE(stream.value().write_all(data.value()).is_ok());
  });

  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_TRUE(client.value().write_all(to_bytes("hello")).is_ok());
  auto echoed = client.value().read_exact(5);
  ASSERT_TRUE(echoed.is_ok());
  EXPECT_EQ(to_string(echoed.value()), "hello");
  server.join();
}

TEST(TcpSocket, ReadExactDetectsPeerClose) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto stream = listener.value().accept();
    ASSERT_TRUE(stream.is_ok());
    ASSERT_TRUE(stream.value().write_all(to_bytes("ab")).is_ok());
    // Stream destructor closes the connection after only 2 of 5 bytes.
  });
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok());
  const auto result = client.value().read_exact(5);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  server.join();
}

TEST(TcpSocket, ConnectToClosedPortFails) {
  // Bind + close to find a (very likely) dead port.
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  const std::uint16_t port = listener.value().port();
  listener.value().close();
  EXPECT_FALSE(TcpStream::connect("127.0.0.1", port).is_ok());
}

TEST(TcpSocket, InvalidAddressRejected) {
  EXPECT_FALSE(TcpStream::connect("not-an-ip", 80).is_ok());
}

TEST(TcpSocket, CloseUnblocksAccept) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener.value().close();
  });
  EXPECT_FALSE(listener.value().accept().is_ok());
  closer.join();
}

// ---- framing ------------------------------------------------------------------

TEST(Framing, RoundTrip) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto stream = listener.value().accept();
    ASSERT_TRUE(stream.is_ok());
    auto frame = read_frame(stream.value());
    ASSERT_TRUE(frame.is_ok());
    EXPECT_EQ(frame.value().type, FrameType::kQuery);
    ASSERT_TRUE(write_frame(stream.value(), FrameType::kQueryReply,
                            frame.value().payload)
                    .is_ok());
  });
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(write_frame(client.value(), FrameType::kQuery, to_bytes("payload")).is_ok());
  auto reply = read_frame(client.value());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().type, FrameType::kQueryReply);
  EXPECT_EQ(to_string(reply.value().payload), "payload");
  server.join();
}

TEST(Framing, EmptyPayloadAllowed) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto stream = listener.value().accept();
    ASSERT_TRUE(stream.is_ok());
    auto frame = read_frame(stream.value());
    ASSERT_TRUE(frame.is_ok());
    EXPECT_TRUE(frame.value().payload.empty());
  });
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(write_frame(client.value(), FrameType::kHello, {}).is_ok());
  client.value().shutdown_write();
  server.join();
}

TEST(Framing, OversizedFrameRejectedBySender) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok());
  const Bytes huge(kMaxFramePayload + 1, 0);
  EXPECT_FALSE(write_frame(client.value(), FrameType::kQuery, huge).is_ok());
}

/// Records every write_all call, and counts the read_exact calls it serves
/// from `inbound` (running dry mid-read is DATA_LOSS, as a peer close is).
class CountingStream : public ByteStream {
 public:
  using ByteStream::read_exact;
  using ByteStream::write_all;
  Status write_all(ByteSpan data, const Deadline&) override {
    writes.emplace_back(data.begin(), data.end());
    return Status::ok();
  }
  Result<Bytes> read_exact(std::size_t n, const Deadline&) override {
    ++reads;
    if (inbound.size() - consumed < n) return data_loss("peer closed mid-message");
    Bytes out(inbound.begin() + static_cast<std::ptrdiff_t>(consumed),
              inbound.begin() + static_cast<std::ptrdiff_t>(consumed + n));
    consumed += n;
    return out;
  }
  void shutdown_both() override {}
  [[nodiscard]] bool valid() const override { return true; }

  std::vector<Bytes> writes;
  Bytes inbound;
  std::size_t consumed = 0;
  std::size_t reads = 0;
};

TEST(Framing, OneWritePerFrame) {
  // A hello key and a sealed query record each leave in one write: one
  // send(2), and under TCP_NODELAY one segment, per frame.
  const Bytes key(32, 0x42);
  const Bytes record(200, 0x17);
  CountingStream stream;
  FrameWriteOptions options;
  options.budget_millis = 250;
  ASSERT_TRUE(write_frame(stream, FrameType::kHello, key).is_ok());
  ASSERT_TRUE(write_frame(stream, FrameType::kQuery, record, options).is_ok());
  ASSERT_EQ(stream.writes.size(), 2u);

  // Each write is exactly one whole frame.
  for (std::size_t i = 0; i < 2; ++i) {
    const auto step = FrameCursor::parse(stream.writes[i]);
    ASSERT_EQ(step.state, FrameCursor::State::kFrame);
    EXPECT_EQ(step.frame.frame_bytes, stream.writes[i].size());
    EXPECT_EQ(step.frame.type, i == 0 ? FrameType::kHello : FrameType::kQuery);
    EXPECT_EQ(step.frame.budget_millis, i == 0 ? 0u : 250u);
    const Bytes payload(step.frame.payload.begin(), step.frame.payload.end());
    EXPECT_EQ(payload, i == 0 ? key : record);
  }
}

TEST(Framing, TwoReadsPerFrame) {
  // The reader takes the length word, then the rest of the frame in one
  // read: a search reply pays two reads, not one per header field.
  const Bytes reply(7'000, 0x5c);
  CountingStream stream;
  FrameWriteOptions options;
  options.budget_millis = 40;
  ASSERT_TRUE(write_frame(stream, FrameType::kQueryReply, reply, options).is_ok());
  ASSERT_TRUE(write_frame(stream, FrameType::kHello, {}).is_ok());
  for (const Bytes& frame : stream.writes) append(stream.inbound, frame);

  auto first = read_frame(stream);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(stream.reads, 2u);
  EXPECT_EQ(first.value().type, FrameType::kQueryReply);
  EXPECT_EQ(first.value().budget_millis, 40u);
  EXPECT_EQ(first.value().payload, reply);

  auto second = read_frame(stream);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(stream.reads, 4u);
  EXPECT_EQ(second.value().type, FrameType::kHello);
  EXPECT_TRUE(second.value().payload.empty());
  EXPECT_EQ(stream.consumed, stream.inbound.size());

  // A bad length word is refused on the first read, before any other.
  CountingStream garbage;
  garbage.inbound = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0x01};
  auto refused = read_frame(garbage);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(garbage.reads, 1u);
}

TEST(Framing, GarbageLengthRejectedByReader) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto stream = listener.value().accept();
    ASSERT_TRUE(stream.is_ok());
    // 0xFFFFFFFF length prefix.
    ASSERT_TRUE(stream.value().write_all(Bytes{0xff, 0xff, 0xff, 0xff}).is_ok());
  });
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok());
  EXPECT_FALSE(read_frame(client.value()).is_ok());
  server.join();
}

// ---- networked deployment -------------------------------------------------------

class NetworkedProxyTest : public ::testing::Test {
 protected:
  static dataset::QueryLog make_log() {
    dataset::SyntheticLogConfig config;
    config.num_users = 20;
    config.total_queries = 1500;
    config.vocab_size = 800;
    config.num_topics = 10;
    config.words_per_topic = 60;
    return dataset::generate_synthetic_log(config);
  }

  NetworkedProxyTest()
      : log_(make_log()),
        corpus_(log_, engine::CorpusConfig{.seed = 4, .num_documents = 800}),
        engine_(corpus_),
        authority_(to_bytes("net-test-root")),
        proxy_(&engine_, authority_, make_options()) {}

  static core::XSearchProxy::Options make_options() {
    core::XSearchProxy::Options options;
    options.k = 2;
    options.history_capacity = 5'000;
    return options;
  }

  dataset::QueryLog log_;
  engine::Corpus corpus_;
  engine::SearchEngine engine_;
  sgx::AttestationAuthority authority_;
  core::XSearchProxy proxy_;
};

TEST_F(NetworkedProxyTest, EndToEndSearchOverTcp) {
  auto server = ProxyServer::start(proxy_);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  RemoteBroker broker("127.0.0.1", server.value()->port(), authority_,
                      proxy_.measurement(), 1);
  const auto results = broker.search(log_.records()[3].text);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  server.value()->stop();
  EXPECT_EQ(server.value()->metrics().value("reactor.accepted"), 1u);
}

TEST_F(NetworkedProxyTest, MultipleQueriesOneConnection) {
  auto server = ProxyServer::start(proxy_);
  ASSERT_TRUE(server.is_ok());
  RemoteBroker broker("127.0.0.1", server.value()->port(), authority_,
                      proxy_.measurement(), 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker.search(log_.records()[static_cast<std::size_t>(i)].text).is_ok())
        << "query " << i;
  }
  server.value()->stop();
  EXPECT_EQ(server.value()->metrics().value("reactor.accepted"), 1u);
  EXPECT_EQ(proxy_.history_size(), 10u);
}

TEST_F(NetworkedProxyTest, ConcurrentRemoteClients) {
  auto server = ProxyServer::start(proxy_);
  ASSERT_TRUE(server.is_ok());
  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RemoteBroker broker("127.0.0.1", server.value()->port(), authority_,
                          proxy_.measurement(), static_cast<std::uint64_t>(10 + c));
      for (int i = 0; i < 5; ++i) {
        const auto& q = log_.records()[static_cast<std::size_t>(c * 5 + i)].text;
        if (!broker.search(q).is_ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.value()->stop();
  EXPECT_EQ(server.value()->metrics().value("reactor.accepted"), kClients);
}

TEST_F(NetworkedProxyTest, WrongMeasurementRefusedOverTcp) {
  auto server = ProxyServer::start(proxy_);
  ASSERT_TRUE(server.is_ok());
  sgx::Measurement wrong{};
  wrong.fill(0xee);
  RemoteBroker broker("127.0.0.1", server.value()->port(), authority_, wrong, 3);
  const auto results = broker.search("query");
  EXPECT_FALSE(results.is_ok());
  EXPECT_EQ(results.status().code(), StatusCode::kPermissionDenied);
  server.value()->stop();
}

TEST_F(NetworkedProxyTest, MalformedFramesDoNotCrashServer) {
  auto server = ProxyServer::start(proxy_);
  ASSERT_TRUE(server.is_ok());

  // Garbage hello.
  {
    auto stream = TcpStream::connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(stream.is_ok());
    ASSERT_TRUE(write_frame(stream.value(), FrameType::kHello, to_bytes("short")).is_ok());
    auto reply = read_frame(stream.value());
    ASSERT_TRUE(reply.is_ok());
    ASSERT_EQ(reply.value().type, FrameType::kErrorStatus);
    EXPECT_EQ(decode_error_status(reply.value().payload).code(),
              StatusCode::kInvalidArgument);
  }
  // Query without handshake.
  {
    auto stream = TcpStream::connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(stream.is_ok());
    Bytes payload(16, 7);
    ASSERT_TRUE(write_frame(stream.value(), FrameType::kQuery, payload).is_ok());
    auto reply = read_frame(stream.value());
    ASSERT_TRUE(reply.is_ok());
    ASSERT_EQ(reply.value().type, FrameType::kErrorStatus);
    // Unknown session: the record was never opened.
    EXPECT_EQ(decode_error_status(reply.value().payload).code(),
              StatusCode::kNotFound);
  }
  // The server still works afterwards.
  RemoteBroker broker("127.0.0.1", server.value()->port(), authority_,
                      proxy_.measurement(), 4);
  EXPECT_TRUE(broker.search(log_.records()[0].text).is_ok());
  server.value()->stop();
}

TEST_F(NetworkedProxyTest, StopIsIdempotent) {
  auto server = ProxyServer::start(proxy_);
  ASSERT_TRUE(server.is_ok());
  server.value()->stop();
  server.value()->stop();
}

}  // namespace
}  // namespace xsearch::net
