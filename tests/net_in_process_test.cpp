// Contract of the in-process connection (net/frame_protocol.hpp): the
// server's own frame protocol, driven in the caller's thread. One test per
// behaviour a client relies on.
#include "net/frame_protocol.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "crypto/x25519.hpp"
#include "net/frame.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {
namespace {

class InProcessStream : public ::testing::Test {
 protected:
  InProcessStream()
      : authority_(to_bytes("in-process-root")),
        proxy_(nullptr, authority_, options()) {
    auto stream = in_process_connector(proxy_)();
    EXPECT_TRUE(stream.is_ok()) << stream.status().to_string();
    stream_ = std::move(stream).value();
  }

  static core::XSearchProxy::Options options() {
    core::XSearchProxy::Options options;
    options.k = 2;
    options.history_capacity = 64;
    return options;
  }

  static Bytes client_key() {
    crypto::X25519Key seed{};
    seed[0] = 0x11;
    const auto keypair =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    return Bytes(keypair.public_key.begin(), keypair.public_key.end());
  }

  sgx::AttestationAuthority authority_;
  core::XSearchProxy proxy_;
  std::unique_ptr<ByteStream> stream_;
};

TEST_F(InProcessStream, HelloGetsHelloReply) {
  ASSERT_TRUE(write_frame(*stream_, FrameType::kHello, client_key()).is_ok());
  auto reply = read_frame(*stream_);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, FrameType::kHelloReply);
  EXPECT_EQ(proxy_.metrics().value("sessions.active"), 1u);
  EXPECT_TRUE(stream_->valid());
}

TEST_F(InProcessStream, MalformedFrameGetsTypedErrorThenEof) {
  ASSERT_TRUE(
      write_frame(*stream_, FrameType::kHello, to_bytes("short")).is_ok());
  auto reply = read_frame(*stream_);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  ASSERT_EQ(reply.value().type, FrameType::kErrorStatus);
  EXPECT_EQ(decode_error_status(reply.value().payload).code(),
            StatusCode::kInvalidArgument);

  // The protocol closed the connection behind its error reply.
  EXPECT_FALSE(stream_->valid());
  auto after = read_frame(*stream_);
  ASSERT_FALSE(after.is_ok());
  EXPECT_EQ(after.status().code(), StatusCode::kDataLoss);
}

TEST_F(InProcessStream, UnsatisfiableReadFailsAtOnceWithDeadlineExceeded) {
  // Half a frame: the header is in, the body never comes.
  const Bytes header = encode_frame_header(FrameType::kHello, 32).value();
  ASSERT_TRUE(stream_->write_all(header).is_ok());

  const auto started = std::chrono::steady_clock::now();
  auto reply = read_frame(*stream_);  // infinite deadline: must not block
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(proxy_.metrics().value("sessions.created"), 0u);  // nothing ran
}

TEST_F(InProcessStream, ExpiredBudgetGetsTypedShedReply) {
  FrameWriteOptions options;
  options.budget_millis = 1;
  ASSERT_TRUE(
      write_frame(*stream_, FrameType::kHello, client_key(), options).is_ok());
  // The budget runs out while the request waits for its reader.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto reply = read_frame(*stream_);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  ASSERT_EQ(reply.value().type, FrameType::kErrorStatus);
  EXPECT_EQ(decode_error_status(reply.value().payload).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(proxy_.metrics().value("sessions.created"), 0u);  // shed before the handler
}

}  // namespace
}  // namespace xsearch::net
