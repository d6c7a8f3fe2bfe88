// Deterministic wire-level chaos harness.
//
// Three layers, bottom up:
//  * frame-level fault satellites — partial writes/reads, dropped and
//    garbage-corrupted frames, truncated/oversized headers, the slow-writer
//    body budget — each forced deterministically through a single-fault
//    FaultPlan (probability 1 for the targeted action);
//  * circuit breakers — the RemoteBroker's client-side breaker fast-fails
//    without wire I/O while open, counts one outcome per attempt (a batch
//    fails only when every item does), and recovers through half-open
//    probes on an injected clock; the XSearchProxy's engine-path breaker
//    stops calling a dead engine and recovers the same way;
//  * the end-to-end chaos run — broker → ProxyServer → ProxyFleet, and the
//    same broker in-process → ProxyFleet, under a seeded FaultPlan, for
//    several seeds: every request completes within its
//    deadline with a typed outcome, duplicates stay inside the documented
//    at-least-once window, and once the plan is exhausted the path serves
//    cleanly again.
//
// Runs under ThreadSanitizer and AddressSanitizer in CI (labels: net, chaos).
#include "net/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker_util.hpp"
#include "common/circuit_breaker.hpp"
#include "common/deadline.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/frame.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "net/socket.hpp"
#include "sgx/attestation.hpp"
#include "test_util.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {
namespace {

// --- harness helpers ---------------------------------------------------------

/// A connected loopback stream pair (client side, server side).
struct Loopback {
  TcpStream client;
  TcpStream server;
};

Loopback make_loopback() {
  auto listener = TcpListener::bind(0);
  EXPECT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  EXPECT_TRUE(client.is_ok()) << client.status().to_string();
  auto server = listener.value().accept();
  EXPECT_TRUE(server.is_ok()) << server.status().to_string();
  return Loopback{std::move(client).value(), std::move(server).value()};
}

/// A plan whose single fault is `action` with certainty — the deterministic
/// building block of the frame-level satellites.
std::shared_ptr<FaultPlan> single_fault_plan(FaultAction action,
                                             std::uint64_t seed = 3) {
  FaultPlan::Options options;
  options.seed = seed;
  options.fault_ops = 1;
  options.delay_p = 0;
  options.max_delay = 0;
  options.partial_p = 0;
  options.drop_p = 0;
  options.reset_p = 0;
  options.garbage_p = 0;
  switch (action) {
    case FaultAction::kDelay:
      options.delay_p = 1.0;
      options.max_delay = kMilli;
      break;
    case FaultAction::kPartialThenReset:
      options.partial_p = 1.0;
      break;
    case FaultAction::kDrop:
      options.drop_p = 1.0;
      break;
    case FaultAction::kReset:
      options.reset_p = 1.0;
      break;
    case FaultAction::kGarbage:
      options.garbage_p = 1.0;
      break;
    case FaultAction::kPass:
      options.fault_ops = 0;
      break;
  }
  return std::make_shared<FaultPlan>(options);
}

// --- frame-level satellites --------------------------------------------------

TEST(ChaosFrame, BudgetRoundTripsAndZeroMeansNoDeadline) {
  Loopback wire = make_loopback();
  const Bytes payload = to_bytes("budgeted query record");
  FrameWriteOptions write_options;
  write_options.budget_millis = 1234;
  ASSERT_TRUE(write_frame(wire.client, FrameType::kQuery, payload, write_options)
                  .is_ok());
  auto frame = read_frame(wire.server);
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value().budget_millis, 1234u);
  EXPECT_EQ(frame.value().type, FrameType::kQuery);
  EXPECT_EQ(frame.value().payload, payload);

  // A frame written without a budget carries 0, which reads back as an
  // infinite deadline.
  ASSERT_TRUE(write_frame(wire.client, FrameType::kQuery, to_bytes("q")).is_ok());
  auto unbounded = read_frame(wire.server);
  ASSERT_TRUE(unbounded.is_ok());
  EXPECT_EQ(unbounded.value().budget_millis, 0u);
  EXPECT_TRUE(
      Deadline::from_budget_millis(unbounded.value().budget_millis).is_infinite());
}

TEST(ChaosFrame, TruncatedFrameIsDataLoss) {
  Loopback wire = make_loopback();
  // Header promises a 10-byte body, then the peer dies mid-frame.
  const Bytes header = {0x00, 0x00, 0x00, 0x0a};
  ASSERT_TRUE(wire.client.write_all(header).is_ok());
  wire.client.shutdown_both();
  auto frame = read_frame(wire.server);
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ChaosFrame, ZeroAndOversizedLengthsAreDataLoss) {
  {
    Loopback wire = make_loopback();
    const Bytes zero = {0x00, 0x00, 0x00, 0x00};
    ASSERT_TRUE(wire.client.write_all(zero).is_ok());
    auto frame = read_frame(wire.server);
    ASSERT_FALSE(frame.is_ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  }
  {
    Loopback wire = make_loopback();
    // Length far past the 4 MiB cap: refused before any allocation.
    const Bytes huge = {0x7f, 0xff, 0xff, 0xff};
    ASSERT_TRUE(wire.client.write_all(huge).is_ok());
    auto frame = read_frame(wire.server);
    ASSERT_FALSE(frame.is_ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  }
  {
    Loopback wire = make_loopback();
    // A length word with the top bit set is out of range like any other.
    const Bytes marked = {0x80, 0x00, 0x00, 0x05};
    ASSERT_TRUE(wire.client.write_all(marked).is_ok());
    auto frame = read_frame(wire.server);
    ASSERT_FALSE(frame.is_ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  }
}

TEST(ChaosFrame, BodyBudgetBoundsSlowWriter) {
  Loopback wire = make_loopback();
  // The anti-slowloris knob: a peer that starts a frame must finish it.
  const Bytes header = {0x00, 0x00, 0x00, 0x20};  // promises 32 bytes, sends 0
  ASSERT_TRUE(wire.client.write_all(header).is_ok());
  FrameReadOptions read_options;
  read_options.body_budget = 30 * kMilli;
  const auto started = std::chrono::steady_clock::now();
  auto frame = read_frame(wire.server, read_options);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(3));  // bounded, not a hang
}

TEST(ChaosSocketFaults, PartialWriteResetsBothSides) {
  Loopback wire = make_loopback();
  ChaosSocket chaotic(std::move(wire.client),
                      single_fault_plan(FaultAction::kPartialThenReset));
  // The header write moves only half its bytes, then the connection resets:
  // the writer sees a typed transport error...
  const Status written =
      write_frame(chaotic, FrameType::kQuery, to_bytes("doomed"));
  ASSERT_FALSE(written.is_ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  // ...and the reader a truncated frame (EOF mid-header), never a hang.
  FrameReadOptions read_options;
  read_options.io_deadline = Deadline::after(kSecond);
  auto frame = read_frame(wire.server, read_options);
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ChaosSocketFaults, PartialReadResetsAndFailsTyped) {
  Loopback wire = make_loopback();
  ASSERT_TRUE(write_frame(wire.client, FrameType::kQuery, to_bytes("intact"))
                  .is_ok());
  ChaosSocket chaotic(std::move(wire.server),
                      single_fault_plan(FaultAction::kPartialThenReset));
  auto frame = read_frame(chaotic);
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(ChaosSocketFaults, DroppedWriteIsSilentUntilTheReadDeadline) {
  Loopback wire = make_loopback();
  ChaosSocket chaotic(std::move(wire.client),
                      single_fault_plan(FaultAction::kDrop));
  // The insidious fault: the frame header vanishes in flight and the WRITER
  // sees success — only a read deadline can surface it.
  ASSERT_TRUE(write_frame(chaotic, FrameType::kQuery, to_bytes("vanishes"))
                  .is_ok());
  FrameReadOptions read_options;
  read_options.io_deadline = Deadline::after(100 * kMilli);
  auto frame = read_frame(wire.server, read_options);
  ASSERT_FALSE(frame.is_ok());
  // The payload bytes arrive without their header: the reader misparses
  // them as an out-of-range length (DATA_LOSS) or times out waiting for
  // bytes that never come — typed either way, never a hang.
  EXPECT_TRUE(frame.status().code() == StatusCode::kDataLoss ||
              frame.status().code() == StatusCode::kDeadlineExceeded)
      << frame.status().to_string();
}

TEST(ChaosSocketFaults, GarbageCorruptionNeverReadsAsTheOriginalFrame) {
  Loopback wire = make_loopback();
  ChaosSocket chaotic(std::move(wire.client),
                      single_fault_plan(FaultAction::kGarbage));
  const Bytes payload = to_bytes("pristine payload");
  ASSERT_TRUE(write_frame(chaotic, FrameType::kQuery, payload).is_ok());
  FrameReadOptions read_options;
  read_options.io_deadline = Deadline::after(100 * kMilli);
  auto frame = read_frame(wire.server, read_options);
  if (frame.is_ok()) {
    // The corruption hit the type byte or spilled into the payload: the
    // frame must not round-trip unchanged (integrity is the secure
    // channel's job — the framing layer just must not mask the damage).
    EXPECT_TRUE(frame.value().type != FrameType::kQuery ||
                frame.value().payload != payload);
  } else {
    // The corruption hit the length word: typed failure, not a hang.
    EXPECT_TRUE(frame.status().code() == StatusCode::kDataLoss ||
                frame.status().code() == StatusCode::kDeadlineExceeded)
        << frame.status().to_string();
  }
}

// --- client-side circuit breaker --------------------------------------------

/// A small live engine for the tests that need real engine round trips.
struct SmallEngine {
  static dataset::QueryLog make_log() {
    dataset::SyntheticLogConfig config;
    config.num_users = 10;
    config.total_queries = 300;
    config.vocab_size = 400;
    config.num_topics = 6;
    config.words_per_topic = 40;
    return dataset::generate_synthetic_log(config);
  }

  dataset::QueryLog log = make_log();
  engine::Corpus corpus{log,
                        engine::CorpusConfig{.seed = 4, .num_documents = 200}};
  engine::SearchEngine search_engine{corpus};
};

core::XSearchProxy::Options proxy_only_options() {
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  options.contact_engine = false;
  return options;
}

using testutil::Transport;

/// A proxy the test takes down and brings back, over either transport.
/// While it is down, connects are refused; connections opened before an
/// outage stay dead after it — what a crashed and restarted server does.
class RestartableProxy {
 public:
  RestartableProxy(Transport transport, core::ProxyHandler& proxy)
      : transport_(transport), proxy_(proxy) {
    EXPECT_TRUE(start().is_ok());
  }

  [[nodiscard]] Connector connector() const {
    if (transport_ == Transport::kTcp) return tcp_connector("127.0.0.1", port_);
    return [state = state_, inner = in_process_connector(proxy_)]()
               -> Result<std::unique_ptr<ByteStream>> {
      if (state->down) return unavailable("connect: connection refused");
      auto stream = inner();
      if (!stream) return stream.status();
      return std::unique_ptr<ByteStream>(std::make_unique<OutageStream>(
          std::move(stream).value(), state, state->generation));
    };
  }

  void stop() {
    if (server_ != nullptr) server_->stop();
    state_->down = true;
    ++state_->generation;
  }

  [[nodiscard]] Status start() {
    state_->down = false;
    if (transport_ == Transport::kInProcess) return Status::ok();
    auto server = ProxyServer::start(proxy_, port_);
    if (!server) return server.status();
    server_ = std::move(server).value();
    port_ = server_->port();  // the first start picks the port; later ones reuse it
    return Status::ok();
  }

 private:
  struct State {
    bool down = false;
    std::uint64_t generation = 0;
  };

  /// An in-process connection that dies with the outage it was opened
  /// before.
  class OutageStream final : public ByteStream {
   public:
    OutageStream(std::unique_ptr<ByteStream> inner,
                 std::shared_ptr<const State> state, std::uint64_t generation)
        : inner_(std::move(inner)), state_(std::move(state)),
          generation_(generation) {}
    using ByteStream::read_exact;
    using ByteStream::write_all;
    Status write_all(ByteSpan data, const Deadline& deadline) override {
      if (!alive()) return unavailable("send: connection reset");
      return inner_->write_all(data, deadline);
    }
    Result<Bytes> read_exact(std::size_t n, const Deadline& deadline) override {
      if (!alive()) return data_loss("peer closed mid-message");
      return inner_->read_exact(n, deadline);
    }
    void shutdown_both() override { inner_->shutdown_both(); }
    [[nodiscard]] bool valid() const override {
      return alive() && inner_->valid();
    }

   private:
    [[nodiscard]] bool alive() const {
      return !state_->down && state_->generation == generation_;
    }
    std::unique_ptr<ByteStream> inner_;
    std::shared_ptr<const State> state_;
    std::uint64_t generation_;
  };

  Transport transport_;
  core::ProxyHandler& proxy_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
  std::unique_ptr<ProxyServer> server_;
  std::uint16_t port_ = 0;
};

/// The `breaker.state` series of a broker's or a proxy's metrics.
template <typename Owner>
CircuitBreaker::State breaker_state(const Owner& owner) {
  return static_cast<CircuitBreaker::State>(owner.metrics().value("breaker.state"));
}

/// Client breaker on an injected clock (the test steps the cooldown by
/// hand): trips once two of the last eight attempts failed, then admits
/// one half-open probe.
RemoteBroker::Options client_breaker_options(Nanos& fake_now) {
  RemoteBroker::Options options;
  options.request_budget = 2 * kSecond;
  options.breaker_enabled = true;
  options.breaker.window = 8;
  options.breaker.min_samples = 2;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_cooldown = 50 * kMilli;
  options.breaker.half_open_probes = 1;
  options.breaker.now = [&fake_now] { return fake_now; };
  return options;
}

class ChaosBreaker : public ::testing::TestWithParam<Transport> {};

TEST_P(ChaosBreaker, OpenBreakerFastFailsWithoutWireIoThenRecovers) {
  sgx::AttestationAuthority authority(to_bytes("chaos-breaker-root"));
  core::XSearchProxy proxy(nullptr, authority, proxy_only_options());
  RestartableProxy served(GetParam(), proxy);

  Nanos fake_now = 0;
  RemoteBroker::Options options = client_breaker_options(fake_now);
  RemoteBroker broker(served.connector(), authority, proxy.measurement(), 5,
                      options);
  ASSERT_TRUE(broker.search("baseline through a healthy proxy").is_ok());

  // Proxy goes away: both attempts of the next call fail, tripping the
  // breaker (window min_samples=2, ratio 0.5).
  served.stop();
  EXPECT_FALSE(broker.search("server is down").is_ok());
  EXPECT_EQ(breaker_state(broker), CircuitBreaker::State::kOpen);
  EXPECT_GE(broker.metrics().value("breaker.trips"), 1u);

  // Open state: fail fast with a typed verdict and ZERO wire activity.
  const std::uint64_t frames_before = broker.metrics().value("broker.frames_sent");
  auto rejected = broker.search("must not touch the wire");
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUpstreamDown);
  EXPECT_NE(rejected.status().message().find("circuit breaker open"),
            std::string::npos);
  EXPECT_EQ(broker.metrics().value("broker.frames_sent"), frames_before);
  EXPECT_GE(broker.metrics().value("breaker.rejected"), 1u);

  // The proxy returns at the same address; stepping the clock past the
  // cooldown admits half-open probes, and the first success closes the
  // breaker (half_open_probes = 1).
  ASSERT_TRUE(served.start().is_ok());
  bool recovered = false;
  for (int i = 0; i < 5 && !recovered; ++i) {
    fake_now += options.breaker.open_cooldown;
    recovered = broker.search("recovery probe " + std::to_string(i)).is_ok();
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(breaker_state(broker), CircuitBreaker::State::kClosed);
  served.stop();
}

// Regression: a call refused locally (empty batch) used to take the
// half-open probe after allow() and never return it, so the breaker stayed
// half-open with its probe slot spent — every later call failed fast with
// "circuit breaker open", forever.
TEST_P(ChaosBreaker, RefusedEmptyBatchDoesNotWedgeTheHalfOpenBreaker) {
  sgx::AttestationAuthority authority(to_bytes("chaos-breaker-root"));
  core::XSearchProxy proxy(nullptr, authority, proxy_only_options());
  RestartableProxy served(GetParam(), proxy);

  Nanos fake_now = 0;
  RemoteBroker::Options options = client_breaker_options(fake_now);
  RemoteBroker broker(served.connector(), authority, proxy.measurement(), 5,
                      options);
  served.stop();
  EXPECT_FALSE(broker.search("server is down").is_ok());
  EXPECT_FALSE(broker.search("still down").is_ok());
  ASSERT_EQ(breaker_state(broker), CircuitBreaker::State::kOpen);
  ASSERT_TRUE(served.start().is_ok());

  // Past the cooldown the breaker admits one probe (half_open_probes = 1).
  // An empty batch is refused before it can take that probe...
  fake_now += options.breaker.open_cooldown;
  const auto refused = broker.search_batch({});
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  // ...so the next search is the probe, reaches the healthy proxy, and
  // closes the breaker.
  const auto probe = broker.search("probe after the refused batch");
  EXPECT_TRUE(probe.is_ok()) << probe.status().to_string();
  EXPECT_EQ(breaker_state(broker), CircuitBreaker::State::kClosed);
  served.stop();
}

/// A proxy over a live engine whose calls fail while `failing` says so
/// (call index in, verdict out), injected through the host-side fault hook.
core::XSearchProxy::Options failing_engine_options(
    std::function<bool(std::uint64_t call)> failing) {
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  options.engine_fault_hook =
      [failing = std::move(failing),
       calls = std::make_shared<std::atomic<std::uint64_t>>(0)]() -> Status {
    if (failing(calls->fetch_add(1, std::memory_order_relaxed))) {
      return unavailable("chaos: engine outage");
    }
    return Status::ok();
  };
  return options;
}

bool always_fail(std::uint64_t /*call*/) { return true; }

// An engine outage reaches the client as a sealed per-item failure, not a
// transport error; through `search` (a batch of one) it still counts
// against the proxy and trips the client breaker.
TEST_P(ChaosBreaker, EngineOutageSeenThroughSearchTripsTheBreaker) {
  const SmallEngine small;
  sgx::AttestationAuthority authority(to_bytes("chaos-breaker-root"));
  core::XSearchProxy proxy(&small.search_engine, authority,
                           failing_engine_options(always_fail));
  const testutil::ServedProxy served(GetParam(), proxy);
  Nanos fake_now = 0;
  const auto broker = served.broker(authority, proxy.measurement(), 12,
                                    client_breaker_options(fake_now));

  for (int i = 0; i < 2; ++i) {
    const auto results = broker->search(small.log.records()[i].text);
    ASSERT_FALSE(results.is_ok());
    EXPECT_EQ(results.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(breaker_state(*broker), CircuitBreaker::State::kOpen);

  const std::uint64_t frames_before = broker->metrics().value("broker.frames_sent");
  const auto rejected = broker->search(small.log.records()[2].text);
  EXPECT_EQ(rejected.status().code(), StatusCode::kUpstreamDown);
  EXPECT_EQ(broker->metrics().value("broker.frames_sent"), frames_before);
}

// A batch counts as a failed attempt only when every item failed with a
// health code: one healthy item means the proxy and its engine answered.
TEST_P(ChaosBreaker, BatchTripsTheBreakerOnlyWhenEveryItemFails) {
  const SmallEngine small;
  sgx::AttestationAuthority authority(to_bytes("chaos-breaker-root"));
  const std::vector<std::string> queries = {small.log.records()[0].text,
                                            small.log.records()[1].text};

  // Every second engine call fails: each batch of two has one failed item.
  core::XSearchProxy flaky(
      &small.search_engine, authority,
      failing_engine_options([](std::uint64_t call) { return call % 2 == 1; }));
  const testutil::ServedProxy served_flaky(GetParam(), flaky);
  Nanos fake_now = 0;
  const auto mixed = served_flaky.broker(authority, flaky.measurement(), 13,
                                         client_breaker_options(fake_now));
  for (int i = 0; i < 3; ++i) {
    const auto outcomes = mixed->search_batch(queries);
    ASSERT_TRUE(outcomes.is_ok()) << outcomes.status().to_string();
    EXPECT_TRUE(outcomes.value()[0].status.is_ok());
    EXPECT_FALSE(outcomes.value()[1].status.is_ok());
  }
  EXPECT_EQ(breaker_state(*mixed), CircuitBreaker::State::kClosed);
  EXPECT_EQ(mixed->metrics().value("breaker.trips"), 0u);

  // Every engine call fails: two all-failed batches trip the breaker.
  core::XSearchProxy dead(&small.search_engine, authority,
                          failing_engine_options(always_fail));
  const testutil::ServedProxy served_dead(GetParam(), dead);
  const auto failing = served_dead.broker(authority, dead.measurement(), 14,
                                          client_breaker_options(fake_now));
  for (int i = 0; i < 2; ++i) {
    const auto outcomes = failing->search_batch(queries);
    ASSERT_TRUE(outcomes.is_ok()) << outcomes.status().to_string();
    for (const auto& outcome : outcomes.value()) {
      EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(breaker_state(*failing), CircuitBreaker::State::kOpen);
  const auto rejected = failing->search_batch(queries);
  EXPECT_EQ(rejected.status().code(), StatusCode::kUpstreamDown);
}

INSTANTIATE_TEST_SUITE_P(Transports, ChaosBreaker,
                         ::testing::Values(Transport::kTcp,
                                           Transport::kInProcess),
                         testutil::transport_name);

// --- engine-path circuit breaker ---------------------------------------------

TEST(ChaosEngineBreaker, DeadEngineTripsBreakerAndHalfOpenProbesRecover) {
  const SmallEngine small;
  const dataset::QueryLog& log = small.log;
  const engine::SearchEngine& engine = small.search_engine;
  sgx::AttestationAuthority authority(to_bytes("engine-breaker-root"));

  // Engine outage switch + call counter, injected through the host-side
  // fault hook (the same seam the degraded bench drives via FaultPlan).
  auto engine_down = std::make_shared<std::atomic<bool>>(true);
  auto engine_calls = std::make_shared<std::atomic<std::uint64_t>>(0);

  Nanos fake_now = 0;
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  options.engine_breaker_enabled = true;
  options.engine_breaker.window = 8;
  options.engine_breaker.min_samples = 2;
  options.engine_breaker.failure_ratio = 0.5;
  options.engine_breaker.open_cooldown = 50 * kMilli;
  options.engine_breaker.half_open_probes = 1;
  options.engine_breaker.now = [&fake_now] { return fake_now; };
  options.engine_fault_hook = [engine_down, engine_calls]() -> Status {
    engine_calls->fetch_add(1, std::memory_order_relaxed);
    if (engine_down->load(std::memory_order_relaxed)) {
      return unavailable("chaos: engine outage");
    }
    return Status::ok();
  };
  core::XSearchProxy proxy(&engine, authority, options);
  auto broker =
      testutil::in_process_broker(proxy, authority, proxy.measurement(), 11);
  ASSERT_TRUE(broker.connect().is_ok());

  // Engine down: queries fail with a SEALED per-query error (the record was
  // opened and executed — exactly-once still holds), and the breaker trips.
  int outage_queries = 0;
  while (breaker_state(proxy) != CircuitBreaker::State::kOpen &&
         outage_queries < 8) {
    auto results = broker.search(log.records()[outage_queries].text);
    EXPECT_FALSE(results.is_ok());
    ++outage_queries;
  }
  EXPECT_EQ(breaker_state(proxy), CircuitBreaker::State::kOpen);
  EXPECT_GE(proxy.metrics().value("breaker.trips"), 1u);

  // Open: round trips fail fast WITHOUT invoking the engine path at all —
  // the hook (which sits before the engine) stops being called.
  const std::uint64_t calls_at_trip = engine_calls->load();
  for (int i = 0; i < 3; ++i) {
    auto results = broker.search(log.records()[20 + i].text);
    EXPECT_FALSE(results.is_ok());
    EXPECT_NE(results.status().message().find("circuit breaker open"),
              std::string::npos);
  }
  EXPECT_EQ(engine_calls->load(), calls_at_trip);
  EXPECT_GE(proxy.metrics().value("breaker.rejected"), 1u);

  // Engine heals; past the cooldown the half-open probe goes through the
  // real engine and the breaker closes.
  engine_down->store(false, std::memory_order_relaxed);
  bool recovered = false;
  for (int i = 0; i < 5 && !recovered; ++i) {
    fake_now += options.engine_breaker.open_cooldown;
    recovered = broker.search(log.records()[40 + i].text).is_ok();
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(breaker_state(proxy), CircuitBreaker::State::kClosed);
}

// --- end-to-end chaos run ----------------------------------------------------

// The acceptance run: for each seed, a broker with an end-to-end request
// budget drives a two-worker ProxyFleet — behind a ProxyServer, or
// in-process — through a ChaosSocket until the fault plan is exhausted.
// Invariants:
//  * every call returns within its budget (plus bounded slack) with either
//    results or a typed error — no hangs;
//  * executions on the fleet stay inside the documented at-least-once
//    envelope (each execution is a success, a counted at-least-once retry,
//    or the delivered final attempt of a failure);
//  * after the last injected fault, the path serves cleanly again.
class ChaosEndToEnd : public ::testing::TestWithParam<Transport> {};

TEST_P(ChaosEndToEnd, SeededFaultPlansNeverHangAndRecoverCleanly) {
  sgx::AttestationAuthority authority(to_bytes("chaos-e2e-root"));
  for (const std::uint64_t seed : {7u, 21u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    ProxyFleet::Options fleet_options;
    fleet_options.workers = 2;
    fleet_options.proxy = proxy_only_options();
    auto fleet = ProxyFleet::create(nullptr, authority, fleet_options);
    ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();

    ProxyServer::Options server_options;
    server_options.workers = 4;
    server_options.queue_timeout = 500 * kMilli;
    server_options.io_budget = 500 * kMilli;
    const testutil::ServedProxy served(GetParam(), *fleet.value(),
                                       server_options);

    FaultPlan::Options plan_options;
    plan_options.seed = seed;
    plan_options.fault_ops = 12;
    auto plan = std::make_shared<FaultPlan>(plan_options);

    RemoteBroker::Options broker_options;
    broker_options.request_budget = 2 * kSecond;
    broker_options.connect_budget = kSecond;
    broker_options.retry.max_attempts = 3;
    broker_options.retry.initial_backoff = kMilli;
    broker_options.retry.max_backoff = 10 * kMilli;
    broker_options.retry_budget.capacity = 1000.0;  // chaos phase may retry a lot
    const Connector chaotic = [plan, inner = served.connector()]()
        -> Result<std::unique_ptr<ByteStream>> {
      auto stream = inner();
      if (!stream) return stream.status();
      return std::unique_ptr<ByteStream>(
          std::make_unique<ChaosSocket>(std::move(stream).value(), plan));
    };
    RemoteBroker broker(chaotic, authority, fleet.value()->measurement(), seed,
                        broker_options);

    int successes = 0;
    int failures = 0;
    int calls = 0;
    while (!plan->exhausted() && calls < 200) {
      const auto started = std::chrono::steady_clock::now();
      auto results = broker.search("chaos seed " + std::to_string(seed) +
                                   " call " + std::to_string(calls));
      const auto elapsed = std::chrono::steady_clock::now() - started;
      // Budget 2s, up to 3 attempts sharing it, backoff capped by the
      // remaining budget: generous slack, but never a hang.
      EXPECT_LT(elapsed, std::chrono::seconds(10));
      if (results.is_ok()) {
        ++successes;
      } else {
        ++failures;
        EXPECT_NE(results.status().code(), StatusCode::kOk);
      }
      ++calls;
    }
    EXPECT_TRUE(plan->exhausted()) << "only " << plan->faults_injected()
                                   << " faults injected in " << calls << " calls";

    // Recovery window: the plan passes everything now, so the path must
    // serve every request (transparently re-handshaking off any wreckage
    // the last fault left behind).
    for (int i = 0; i < 5; ++i) {
      auto results = broker.search("recovery " + std::to_string(i));
      EXPECT_TRUE(results.is_ok()) << results.status().to_string();
      if (results.is_ok()) ++successes;
    }

    // Duplicate envelope: every history entry on the fleet is one executed
    // query. Each execution is (a) the success of a call, (b) covered by a
    // counted at-least-once retry, or (c) the delivered final attempt of a
    // failed call — nothing executes outside that envelope.
    std::size_t executed = 0;
    for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
      executed += fleet.value()->worker_history_depth(w);
    }
    EXPECT_GE(executed, static_cast<std::size_t>(successes));
    EXPECT_LE(executed,
              static_cast<std::size_t>(successes) +
                  static_cast<std::size_t>(failures) +
                  broker.metrics().value("broker.at_least_once_retries"));
  }
}


INSTANTIATE_TEST_SUITE_P(Transports, ChaosEndToEnd,
                         ::testing::Values(Transport::kTcp,
                                           Transport::kInProcess),
                         testutil::transport_name);

}  // namespace
}  // namespace xsearch::net
