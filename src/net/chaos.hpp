// Deterministic wire-level fault injection.
//
// `FaultPlan` is a seeded schedule of faults: each stream operation draws
// one decision (pass / delay / partial-then-reset / drop / reset / garbage)
// from the plan's private RNG, so a given seed and call order reproduce the
// exact same fault sequence. The plan hands out at most `fault_ops` faults,
// after which every operation passes clean — the tail of any chaos run is a
// guaranteed recovery window the tests assert on.
//
// `ChaosSocket` wraps a real TcpStream behind the ByteStream seam the frame
// layer reads/writes through, injecting the plan's faults at the byte level:
// exactly where a hostile or flaky network acts. The same plan also drives
// engine-path injection (delay + failure before the engine call) through
// `engine_call()`, wired into XSearchProxy via its host-side fault hook.
#pragma once

#include <cstdint>
#include <memory>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"

namespace xsearch::net {

/// What happens to one stream operation.
enum class FaultAction : std::uint8_t {
  kPass,              // no fault
  kDelay,             // sleep before performing the operation
  kPartialThenReset,  // move only part of the bytes, then reset the stream
  kDrop,              // (writes) swallow the bytes, report success
  kReset,             // reset the stream, fail the operation
  kGarbage,           // corrupt the bytes in flight
};

class FaultPlan {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Faulty decisions the plan hands out in total (socket + engine);
    /// afterwards everything passes clean. Finite by design.
    std::uint32_t fault_ops = 24;
    // Per-operation fault probabilities; the remainder passes clean.
    double delay_p = 0.15;
    Nanos max_delay = 2 * kMilli;
    double partial_p = 0.08;
    double drop_p = 0.05;
    double reset_p = 0.05;
    double garbage_p = 0.05;
    // Engine-path injection, drawn by engine_call():
    double engine_delay_p = 0.0;
    Nanos engine_delay = 0;
    double engine_fail_p = 0.0;
  };

  struct Decision {
    FaultAction action = FaultAction::kPass;
    Nanos delay = 0;
    /// Deterministic per-decision entropy (garbage offsets etc.).
    std::uint64_t salt = 0;
  };

  explicit FaultPlan(Options options);

  /// Draws the next decision. Thread-safe; deterministic in draw order.
  /// Read operations never draw kDrop (a swallowed read is just a reset).
  [[nodiscard]] Decision next(bool reading);

  /// Engine-path injection: sleeps per the engine delay knobs, then either
  /// passes or fails the call. Thread-safe.
  [[nodiscard]] Status engine_call();

  /// True once every fault has been handed out (recovery window).
  [[nodiscard]] bool exhausted() const;
  [[nodiscard]] std::uint64_t faults_injected() const;

 private:
  const Options options_;
  mutable Mutex mutex_;
  Rng rng_ XS_GUARDED_BY(mutex_);
  std::uint32_t faults_left_ XS_GUARDED_BY(mutex_);
  std::uint64_t injected_ XS_GUARDED_BY(mutex_) = 0;
};

/// A ByteStream that subjects another ByteStream to a FaultPlan.
///
/// The wrapped transport is usually a blocking TcpStream (a chaos client
/// talking to a server), but any ByteStream works — the fault decisions
/// are drawn per *operation*, independent of how the underlying transport
/// moves bytes, so the plan composes unchanged with servers that read
/// those bytes through a nonblocking readiness loop (net/reactor.hpp): a
/// kPartialThenReset write, say, surfaces there as a short read followed
/// by EOF mid-frame.
class ChaosSocket final : public ByteStream {
 public:
  /// Wraps any transport (ownership taken).
  ChaosSocket(std::unique_ptr<ByteStream> inner,
              std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  /// Convenience for the common case: a connected TcpStream.
  ChaosSocket(TcpStream stream, std::shared_ptr<FaultPlan> plan)
      : ChaosSocket(std::unique_ptr<ByteStream>(
                        std::make_unique<TcpStream>(std::move(stream))),
                    std::move(plan)) {}

  using ByteStream::read_exact;
  using ByteStream::write_all;

  [[nodiscard]] Status write_all(ByteSpan data,
                                 const Deadline& deadline) override;
  [[nodiscard]] Result<Bytes> read_exact(std::size_t n,
                                         const Deadline& deadline) override;
  void shutdown_both() override { inner_->shutdown_both(); }
  [[nodiscard]] bool valid() const override {
    return inner_ != nullptr && inner_->valid();
  }

 private:
  /// Sleeps for `delay`, bounded by the deadline (plus one scheduling
  /// quantum) so an injected stall cannot oversleep far past it.
  static void bounded_sleep(Nanos delay, const Deadline& deadline);

  std::unique_ptr<ByteStream> inner_;
  std::shared_ptr<FaultPlan> plan_;
};

}  // namespace xsearch::net
