// Reactor data-plane tests.
//
// Exercises the epoll event loop and per-connection state machines
// directly, through a minimal frame-based echo protocol:
//  * one loop — `shards` 0 and 1 serve, more is refused at start;
//  * incremental zero-copy parsing — FrameCursor fed one byte at a time,
//    and a live connection trickling a frame byte by byte;
//  * the write path — a multi-hundred-KiB reply draining to a deliberately
//    slow reader through partial vectored writes and EPOLLOUT;
//  * timer-wheel housekeeping — idle-TTL reaping that spares active
//    sessions, and the io budget dropping a peer that stalls mid-frame;
//  * layered shedding — dispatch-queue overflow, requests whose frame
//    deadline expired while queued, and EMFILE/ENFILE accept backoff (bounded retry
//    rate, typed counter, full recovery);
//  * wire chaos — a seeded client-side FaultPlan (drops, resets, garbage)
//    produces typed failures only, never hangs, and the server serves
//    cleanly once the plan is exhausted.
//
// Runs under ThreadSanitizer in CI (label: concurrency).
#include "net/reactor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/chaos.hpp"
#include "net/frame.hpp"
#include "net/frame_protocol.hpp"
#include "net/socket.hpp"
#include "net/timer_wheel.hpp"
#include "test_util.hpp"

namespace xsearch::net {
namespace {

using testutil::eventually;

// --- echo protocol -----------------------------------------------------------

/// Shared environment for the gate-based tests: lets a test hold the
/// dispatch worker hostage and observe it entering.
struct EchoEnv {
  std::atomic<bool> gate_open{true};
  std::atomic<int> gate_entered{0};
};

/// Frame-based echo protocol over FrameCursor. Commands (kQuery payload):
///   echo:<data>   -> kQueryReply with <data>
///   inflate:<n>   -> kQueryReply with n 'x' bytes
///   gate          -> parks the worker until env->gate_open
class EchoProtocol final : public ConnectionProtocol {
 public:
  explicit EchoProtocol(std::shared_ptr<EchoEnv> env) : env_(std::move(env)) {}

  Action on_input(ByteSpan buffered) override {
    Action action;
    const FrameCursor::Step step = FrameCursor::parse(buffered);
    switch (step.state) {
      case FrameCursor::State::kError:
        action.close = true;
        return action;
      case FrameCursor::State::kNeedHeader:
      case FrameCursor::State::kNeedBody:
        action.need = step.need;
        action.mid_message = buffered.size() >= 4;
        return action;
      case FrameCursor::State::kFrame:
        break;
    }
    action.consumed = step.frame.frame_bytes;
    if (step.frame.type != FrameType::kQuery) {
      action.close = true;
      return action;
    }
    action.deadline = Deadline::from_budget_millis(step.frame.budget_millis);
    action.dispatch = true;
    action.job.assign(step.frame.payload.begin(), step.frame.payload.end());
    return action;
  }

  JobResult run_job(ByteSpan job, const Deadline& /*deadline*/) override {
    const std::string command(reinterpret_cast<const char*>(job.data()),
                              job.size());
    Bytes payload;
    if (command.rfind("echo:", 0) == 0) {
      payload = to_bytes(command.substr(5));
    } else if (command.rfind("inflate:", 0) == 0) {
      payload.assign(static_cast<std::size_t>(std::stoul(command.substr(8))),
                     'x');
    } else if (command == "gate") {
      env_->gate_entered.fetch_add(1, std::memory_order_release);
      while (!env_->gate_open.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      payload = to_bytes("gated");
    } else {
      JobResult result;
      result.reply.push_back(encode_error_frame(invalid_argument(command)));
      result.close = true;
      return result;
    }
    JobResult result;
    result.reply.push_back(
        encode_frame_header(FrameType::kQueryReply, payload.size()).value());
    result.reply.push_back(std::move(payload));
    return result;
  }

  JobResult shed(const Status& status) override {
    JobResult result;
    result.reply.push_back(encode_error_frame(status));
    result.close = true;
    return result;
  }

 private:
  std::shared_ptr<EchoEnv> env_;
};

struct EchoServer {
  std::unique_ptr<Reactor> reactor;
  std::shared_ptr<EchoEnv> env;
};

EchoServer start_echo(ReactorOptions options = {}) {
  EchoServer server;
  server.env = std::make_shared<EchoEnv>();
  auto env = server.env;
  auto listener = TcpListener::bind(0);
  EXPECT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto reactor = Reactor::start(
      std::move(listener).value(),
      [env] { return std::make_unique<EchoProtocol>(env); }, encode_error_frame,
      std::move(options));
  EXPECT_TRUE(reactor.is_ok()) << reactor.status().to_string();
  server.reactor = std::move(reactor).value();
  return server;
}

Status send_query(TcpStream& stream, const std::string& command,
                  std::uint32_t budget_millis = 0) {
  FrameWriteOptions options;
  options.budget_millis = budget_millis;
  return write_frame(stream, FrameType::kQuery, to_bytes(command), options);
}

Result<Frame> read_reply(TcpStream& stream, Nanos timeout = 5 * kSecond) {
  FrameReadOptions options;
  options.io_deadline = Deadline::after(timeout);
  return read_frame(stream, options);
}

// --- FrameCursor satellites --------------------------------------------------

TEST(FrameCursor, ParsesOneByteAtATime) {
  FrameWriteOptions options;
  options.budget_millis = 1234;
  Bytes wire = encode_frame_header(FrameType::kQuery, 11, options).value();
  append(wire, to_bytes("hello world"));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto step = FrameCursor::parse(ByteSpan(wire.data(), len));
    ASSERT_NE(step.state, FrameCursor::State::kFrame) << "at " << len;
    ASSERT_NE(step.state, FrameCursor::State::kError) << "at " << len;
    // The need hint never asks for less than what makes progress possible.
    EXPECT_GT(step.need, len);
  }
  const auto done = FrameCursor::parse(wire);
  ASSERT_EQ(done.state, FrameCursor::State::kFrame);
  EXPECT_EQ(done.frame.type, FrameType::kQuery);
  EXPECT_EQ(done.frame.budget_millis, 1234u);
  EXPECT_EQ(to_string(done.frame.payload), "hello world");
  EXPECT_EQ(done.frame.frame_bytes, wire.size());

  // The payload is a view into the caller's buffer, not a copy.
  EXPECT_EQ(static_cast<const void*>(done.frame.payload.data()),
            static_cast<const void*>(wire.data() + 9));
}

TEST(FrameCursor, RejectsBadLengths) {
  // Zero length word: no frame is that small (type byte is mandatory).
  Bytes zero(4, 0);
  EXPECT_EQ(FrameCursor::parse(zero).state, FrameCursor::State::kError);

  // Oversized length word: rejected before any body is buffered.
  Bytes huge = {0x7f, 0xff, 0xff, 0xff};
  const auto step = FrameCursor::parse(huge);
  ASSERT_EQ(step.state, FrameCursor::State::kError);
  EXPECT_EQ(step.error.code(), StatusCode::kDataLoss);
}

// --- timer wheel -------------------------------------------------------------

TEST(TimerWheelTest, FiresAtTheBoundaryAfterDue_NotARevolutionLater) {
  // A deadline 6.3 ticks out must fire at the 7th boundary. Rounding the
  // slot index *down* would visit the slot one tick early, find the entry
  // not yet due, and strand it for a full revolution (256 ticks) — exactly
  // the failure mode idle-TTL reaping would hit on every live deadline.
  const Nanos tick = 10 * kMilli;
  TimerWheel wheel(/*now=*/0, tick, /*slots=*/256);
  const Nanos due = 6 * tick + 3 * kMilli;
  wheel.schedule(42, due);

  std::vector<TimerWheel::Entry> fired;
  for (Nanos now = tick; now < due; now += tick) {
    wheel.advance(now, fired);
    ASSERT_TRUE(fired.empty()) << "fired " << (long long)now - due << "ns early";
  }
  wheel.advance(7 * tick, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].key, 42u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, AlreadyDueEntryFiresOnNextAdvance) {
  const Nanos tick = 10 * kMilli;
  TimerWheel wheel(/*now=*/100 * tick, tick, /*slots=*/256);
  wheel.schedule(7, /*due=*/50 * tick);  // long past
  std::vector<TimerWheel::Entry> fired;
  wheel.advance(101 * tick, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].key, 7u);
}

// Model test: seeded random schedule/advance sequences against a sequential
// reference of the documented contract. An entry scheduled while the wheel
// stands at tick S with deadline `due` has the target tick
// max(ceil(due / tick), S + 1). It fires exactly once, never while
// `due > now`, and no later than the first advance whose tick reaches its
// target. `empty()` tracks the reference's pending set, and
// `poll_timeout_millis` is -1 exactly when nothing is pending and otherwise
// wakes at the first whole millisecond at or after the next tick boundary.
TEST(TimerWheelTest, ModelRandomSchedulesAndAdvances) {
  struct Shape {
    Nanos tick;
    std::size_t slots;
  };
  struct Pending {
    Nanos due;
    std::uint64_t target_tick;
  };
  for (const Shape shape : {Shape{10 * kMilli, 256}, Shape{kMilli, 8},
                            Shape{7 * kMilli, 3}, Shape{250 * kMicro, 1},
                            Shape{3 * kMilli + 1, 17}}) {
    const Nanos tick = shape.tick;
    const Nanos revolution = tick * static_cast<Nanos>(shape.slots);
    const auto tick_of = [tick](Nanos at) {
      return at <= 0 ? std::uint64_t{0} : static_cast<std::uint64_t>(at / tick);
    };
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("tick " + std::to_string(tick) + " slots " +
                   std::to_string(shape.slots) + " seed " + std::to_string(seed));
      Rng rng(seed);
      const auto below = [&rng](Nanos bound) {
        return static_cast<Nanos>(rng.uniform(static_cast<std::uint64_t>(bound)));
      };
      Nanos now = below(40 * tick);
      TimerWheel wheel(now, tick, shape.slots);
      std::uint64_t wheel_tick = tick_of(now);
      std::map<std::uint64_t, Pending> pending;  // key -> reference entry
      std::uint64_t next_key = 1;
      std::size_t fired_total = 0;

      const auto check_poll = [&] {
        ASSERT_EQ(wheel.empty(), pending.empty());
        const int timeout = wheel.poll_timeout_millis(now);
        if (pending.empty()) {
          ASSERT_EQ(timeout, -1);
          return;
        }
        ASSERT_GE(timeout, 1);
        const Nanos boundary = static_cast<Nanos>(tick_of(now) + 1) * tick;
        EXPECT_GE(now + static_cast<Nanos>(timeout) * kMilli, boundary);
        EXPECT_LT(now + static_cast<Nanos>(timeout - 1) * kMilli, boundary);
      };
      const auto advance_to = [&](Nanos to) {
        now = to;
        std::vector<TimerWheel::Entry> fired;
        wheel.advance(now, fired);
        wheel_tick = std::max(wheel_tick, tick_of(now));
        for (const TimerWheel::Entry& entry : fired) {
          const auto it = pending.find(entry.key);
          ASSERT_NE(it, pending.end()) << "key " << entry.key << " fired twice";
          EXPECT_EQ(entry.due, it->second.due);
          EXPECT_LE(entry.due, now) << "key " << entry.key << " fired early";
          pending.erase(it);
          ++fired_total;
        }
        for (const auto& [key, entry] : pending) {
          ASSERT_GT(entry.target_tick, wheel_tick)
              << "key " << key << " missed its boundary (due " << entry.due
              << ", now " << now << ")";
        }
        check_poll();
      };

      for (int op = 0; op < 600; ++op) {
        if (rng.uniform(3) != 0) {
          // Dues from three revolutions in the past to three out, plus the
          // occasional zero.
          const Nanos due =
              rng.uniform(20) == 0 ? 0 : now + below(6 * revolution) - 3 * revolution;
          const std::uint64_t ceil_tick = tick_of(due > 0 ? due + tick - 1 : 0);
          pending[next_key] = {due, std::max(ceil_tick, wheel_tick + 1)};
          wheel.schedule(next_key++, due);
          check_poll();
        } else {
          // Steps from none to sub-tick to several revolutions long.
          const Nanos steps[] = {0, tick / 3, tick, 3 * tick, revolution - 1,
                                 revolution, 2 * revolution + tick / 2};
          advance_to(now + steps[rng.uniform(std::size(steps))] + below(tick));
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
      advance_to(now + 4 * revolution + tick);
      EXPECT_TRUE(pending.empty());
      EXPECT_TRUE(wheel.empty());
      EXPECT_EQ(fired_total, next_key - 1);
    }
  }
}

// --- reactor: happy path and incremental delivery ----------------------------

TEST(ReactorTest, EchoesEndToEnd) {
  auto server = start_echo();
  auto client = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(client.is_ok());

  ASSERT_TRUE(send_query(client.value(), "echo:ping").is_ok());
  auto reply = read_reply(client.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, FrameType::kQueryReply);
  EXPECT_EQ(to_string(reply.value().payload), "ping");

  // Several requests on one connection: the state machine loops.
  for (int i = 0; i < 5; ++i) {
    const std::string msg = "round " + std::to_string(i);
    ASSERT_TRUE(send_query(client.value(), "echo:" + msg).is_ok());
    auto round = read_reply(client.value());
    ASSERT_TRUE(round.is_ok());
    EXPECT_EQ(to_string(round.value().payload), msg);
  }
  server.reactor->stop();
}

TEST(ReactorTest, OneByteTrickleStillParses) {
  auto server = start_echo();
  auto client = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(client.is_ok());

  // Deliver the frame one byte at a time: every arrival re-enters the
  // incremental parser mid-header or mid-body.
  Bytes wire = encode_frame_header(FrameType::kQuery, 14).value();
  append(wire, to_bytes("echo:trickled"));
  wire.push_back('!');
  for (const std::uint8_t byte : wire) {
    ASSERT_TRUE(client.value().write_all(ByteSpan(&byte, 1)).is_ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto reply = read_reply(client.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(to_string(reply.value().payload), "trickled!");
  server.reactor->stop();
}

TEST(ReactorTest, LargeReplyDrainsToSlowReader) {
  auto server = start_echo();
  auto client = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(client.is_ok());

  // A 2 MiB reply cannot fit any loopback socket buffer: the reactor's
  // first vectored write is partial, EPOLLOUT gets armed, and the rest
  // drains as this (deliberately tardy) reader frees buffer space.
  constexpr std::size_t kReplySize = 2 * 1024 * 1024;
  ASSERT_TRUE(
      send_query(client.value(), "inflate:" + std::to_string(kReplySize))
          .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto reply = read_reply(client.value(), 10 * kSecond);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  ASSERT_EQ(reply.value().payload.size(), kReplySize);
  EXPECT_EQ(reply.value().payload.front(), 'x');
  EXPECT_EQ(reply.value().payload.back(), 'x');

  // The connection survives the stall and keeps serving.
  ASSERT_TRUE(send_query(client.value(), "echo:after").is_ok());
  auto after = read_reply(client.value());
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(to_string(after.value().payload), "after");
  server.reactor->stop();
}

// --- reactor: timers ---------------------------------------------------------

TEST(ReactorTest, IdleTtlReapsOnlyIdleConnections) {
  ReactorOptions options;
  options.idle_ttl = 60 * kMilli;
  auto server = start_echo(std::move(options));

  auto idle = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(idle.is_ok());
  auto active = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(active.is_ok());
  ASSERT_TRUE(
      eventually([&] { return server.reactor->metrics().value("reactor.active") == 2; }));

  // Keep one connection busy past several TTL windows; the other stays
  // silent and gets reaped.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_TRUE(send_query(active.value(), "echo:alive").is_ok());
    auto reply = read_reply(active.value());
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }

  EXPECT_TRUE(eventually([&] {
    return server.reactor->metrics().value("reactor.idle_reaped") == 1;
  }))
      << "idle_reaped=" << server.reactor->metrics().value("reactor.idle_reaped")
      << " reaped=" << server.reactor->metrics().value("reactor.reaped")
      << " active=" << server.reactor->metrics().value("reactor.active");
  EXPECT_EQ(server.reactor->metrics().value("reactor.active"), 1u);
  // The reaped peer observes a closed connection.
  auto dead = read_reply(idle.value(), 200 * kMilli);
  EXPECT_FALSE(dead.is_ok());
  // The active one is still fine.
  ASSERT_TRUE(send_query(active.value(), "echo:still here").is_ok());
  auto still = read_reply(active.value());
  ASSERT_TRUE(still.is_ok());
  EXPECT_EQ(to_string(still.value().payload), "still here");
  server.reactor->stop();
}

// The anti-slowloris bound: a peer that starts a frame and then stalls is
// dropped once io_budget runs out; a peer that has started nothing is idle,
// which is legal.
TEST(ReactorTest, IoBudgetDropsAPeerThatStallsMidFrame) {
  ReactorOptions options;
  options.io_budget = 50 * kMilli;
  auto server = start_echo(std::move(options));

  auto idle = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(idle.is_ok());
  auto stalled = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(stalled.is_ok());
  ASSERT_TRUE(
      eventually([&] { return server.reactor->metrics().value("reactor.active") == 2; }));

  const Bytes header = {0x00, 0x00, 0x00, 0x20};  // promises 32 bytes, sends 0
  ASSERT_TRUE(stalled.value().write_all(header).is_ok());
  EXPECT_TRUE(
      eventually([&] { return server.reactor->metrics().value("reactor.active") == 1; }));
  const auto dead = read_reply(stalled.value(), 2 * kSecond);
  ASSERT_FALSE(dead.is_ok());
  EXPECT_NE(dead.status().code(), StatusCode::kDeadlineExceeded)
      << "the stalled peer was left connected";

  ASSERT_TRUE(send_query(idle.value(), "echo:idle is fine").is_ok());
  auto reply = read_reply(idle.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(to_string(reply.value().payload), "idle is fine");
  server.reactor->stop();
}

// --- reactor: layered shedding -----------------------------------------------

TEST(ReactorTest, DeadlineExpiredWhileQueuedIsShedTyped) {
  ReactorOptions options;
  options.workers = 1;
  auto server = start_echo(std::move(options));
  server.env->gate_open.store(false);

  // Park the only worker.
  auto holder = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(holder.is_ok());
  ASSERT_TRUE(send_query(holder.value(), "gate").is_ok());
  ASSERT_TRUE(eventually([&] { return server.env->gate_entered.load() == 1; }));

  // This request's own end-to-end budget (carried in its frame) expires
  // while it waits for the worker.
  auto doomed = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(doomed.is_ok());
  ASSERT_TRUE(send_query(doomed.value(), "echo:too late",
                         /*budget_millis=*/20)
                  .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server.env->gate_open.store(true);

  auto holder_reply = read_reply(holder.value());
  ASSERT_TRUE(holder_reply.is_ok());
  EXPECT_EQ(to_string(holder_reply.value().payload), "gated");

  auto doomed_reply = read_reply(doomed.value());
  ASSERT_TRUE(doomed_reply.is_ok()) << doomed_reply.status().to_string();
  ASSERT_EQ(doomed_reply.value().type, FrameType::kErrorStatus);
  const Status status = decode_error_status(doomed_reply.value().payload);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(eventually([&] {
    return server.reactor->metrics().value("reactor.deadline_expired") == 1;
  }));
  server.reactor->stop();
}

TEST(ReactorTest, DispatchQueueFullShedsTyped) {
  ReactorOptions options;
  options.workers = 1;
  options.dispatch_queue = 1;
  auto server = start_echo(std::move(options));
  server.env->gate_open.store(false);

  // Worker parked, queue holding one request...
  auto holder = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(holder.is_ok());
  ASSERT_TRUE(send_query(holder.value(), "gate").is_ok());
  ASSERT_TRUE(eventually([&] { return server.env->gate_entered.load() == 1; }));
  auto queued = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(queued.is_ok());
  ASSERT_TRUE(send_query(queued.value(), "echo:waits").is_ok());
  // Give the loop a moment to park the second request in the queue, so the
  // third one is unambiguously the overflow.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // ...so a third request has nowhere to go: immediate typed OVERLOADED.
  auto shed = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(shed.is_ok());
  ASSERT_TRUE(eventually([&] {
    return server.reactor->metrics().value("reactor.active") == 3;
  }));
  ASSERT_TRUE(send_query(shed.value(), "echo:overflow").is_ok());
  auto reply = read_reply(shed.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  ASSERT_EQ(reply.value().type, FrameType::kErrorStatus);
  const Status status = decode_error_status(reply.value().payload);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_NE(status.message().find("queue full"), std::string::npos);
  EXPECT_GE(server.reactor->metrics().value("reactor.shed"), 1u);

  server.env->gate_open.store(true);
  auto held = read_reply(holder.value());
  ASSERT_TRUE(held.is_ok());
  auto waited = read_reply(queued.value());
  ASSERT_TRUE(waited.is_ok());
  EXPECT_EQ(to_string(waited.value().payload), "waits");
  server.reactor->stop();
}

TEST(ReactorTest, FdExhaustionBacksOffAndRecovers) {
  auto exhausted = std::make_shared<std::atomic<bool>>(true);
  auto accept_calls = std::make_shared<std::atomic<int>>(0);
  ReactorOptions options;
  options.accept_fault = [exhausted, accept_calls] {
    accept_calls->fetch_add(1, std::memory_order_relaxed);
    return exhausted->load(std::memory_order_relaxed) ? EMFILE : 0;
  };
  auto server = start_echo(std::move(options));

  // The kernel completes the handshake into the backlog even though the
  // server cannot accept it yet.
  auto client = TcpStream::connect("127.0.0.1", server.reactor->port());
  ASSERT_TRUE(client.is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // Backoff, not spin: with a ~20 ms pause per EMFILE, 250 ms allows only
  // a handful of retries. A spinning accept loop would log thousands.
  EXPECT_GE(server.reactor->metrics().value("reactor.fd_exhausted"), 1u);
  EXPECT_LE(accept_calls->load(), 40);

  // Descriptors come back: the parked connection gets accepted and served.
  exhausted->store(false);
  ASSERT_TRUE(eventually([&] {
    return server.reactor->metrics().value("reactor.active") == 1;
  }));
  ASSERT_TRUE(send_query(client.value(), "echo:recovered").is_ok());
  auto reply = read_reply(client.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(to_string(reply.value().payload), "recovered");
  server.reactor->stop();
}

// --- reactor: lifecycle ------------------------------------------------------

TEST(ReactorTest, StopIsIdempotentAndFreesThePort) {
  auto server = start_echo();
  const std::uint16_t port = server.reactor->port();
  auto client = TcpStream::connect("127.0.0.1", port);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(send_query(client.value(), "echo:live").is_ok());
  ASSERT_TRUE(read_reply(client.value()).is_ok());

  server.reactor->stop();
  server.reactor->stop();  // idempotent
  EXPECT_EQ(server.reactor->metrics().value("reactor.active"), 0u);
  EXPECT_EQ(server.reactor->metrics().value("reactor.accepted"),
            server.reactor->metrics().value("reactor.reaped"));

  // The listener descriptor is released: the port rebinds immediately.
  auto rebound = TcpListener::bind(port);
  EXPECT_TRUE(rebound.is_ok()) << rebound.status().to_string();
}

TEST(ReactorTest, RunsOneLoopAndRefusesMoreAtStart) {
  // 0 and 1 both mean the reactor's one event loop.
  for (const std::size_t shards : {0u, 1u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ReactorOptions options;
    options.shards = shards;
    auto server = start_echo(std::move(options));
    auto client = TcpStream::connect("127.0.0.1", server.reactor->port());
    ASSERT_TRUE(client.is_ok());
    ASSERT_TRUE(send_query(client.value(), "echo:one loop").is_ok());
    auto reply = read_reply(client.value());
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    EXPECT_EQ(to_string(reply.value().payload), "one loop");
    server.reactor->stop();
  }

  // More loops are refused up front, and the listener handed in is closed,
  // not leaked: its port rebinds at once.
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  const std::uint16_t port = listener.value().port();
  ReactorOptions options;
  options.shards = 2;
  auto env = std::make_shared<EchoEnv>();
  auto refused = Reactor::start(
      std::move(listener).value(),
      [env] { return std::make_unique<EchoProtocol>(env); }, encode_error_frame,
      std::move(options));
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  auto rebound = TcpListener::bind(port);
  EXPECT_TRUE(rebound.is_ok()) << rebound.status().to_string();
}

// --- reactor: wire chaos -----------------------------------------------------

TEST(ReactorChaos, SeededFaultsAreTypedNeverHangsThenRecovers) {
  auto server = start_echo();
  for (const std::uint64_t seed : {7u, 21u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultPlan::Options plan_options;
    plan_options.seed = seed;
    plan_options.fault_ops = 10;
    // Lean into the hard faults; delays add nothing at this layer.
    plan_options.delay_p = 0.05;
    plan_options.partial_p = 0.25;
    plan_options.drop_p = 0.2;
    plan_options.reset_p = 0.2;
    plan_options.garbage_p = 0.2;
    auto plan = std::make_shared<FaultPlan>(plan_options);

    int calls = 0;
    while (!plan->exhausted() && calls < 100) {
      auto raw = TcpStream::connect("127.0.0.1", server.reactor->port());
      ASSERT_TRUE(raw.is_ok());
      ChaosSocket chaotic(std::move(raw).value(), plan);
      const std::string msg = "chaos " + std::to_string(calls);
      const auto started = std::chrono::steady_clock::now();
      const Status sent =
          write_frame(chaotic, FrameType::kQuery, to_bytes("echo:" + msg));
      if (sent.is_ok()) {
        FrameReadOptions read_options;
        read_options.io_deadline = Deadline::after(500 * kMilli);
        auto reply = read_frame(chaotic, read_options);
        if (reply.is_ok() && reply.value().type == FrameType::kQueryReply) {
          // Clean round trip: the echo must be intact.
          EXPECT_EQ(to_string(reply.value().payload), msg);
        } else if (!reply.is_ok()) {
          // Faulted round trip: typed failure, never success-shaped noise.
          EXPECT_NE(reply.status().code(), StatusCode::kOk);
        }
      } else {
        EXPECT_NE(sent.code(), StatusCode::kOk);
      }
      // Whatever the fault did, it did it promptly — no hangs.
      EXPECT_LT(std::chrono::steady_clock::now() - started,
                std::chrono::seconds(5));
      ++calls;
    }
    EXPECT_TRUE(plan->exhausted())
        << "only " << plan->faults_injected() << " faults in " << calls;

    // Recovery: the server shrugged off every mangled connection.
    auto clean = TcpStream::connect("127.0.0.1", server.reactor->port());
    ASSERT_TRUE(clean.is_ok());
    ASSERT_TRUE(send_query(clean.value(), "echo:recovered").is_ok());
    auto reply = read_reply(clean.value());
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    EXPECT_EQ(to_string(reply.value().payload), "recovered");
  }
  server.reactor->stop();
}

}  // namespace
}  // namespace xsearch::net
