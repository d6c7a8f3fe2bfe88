// RAII TCP sockets (IPv4, blocking I/O with per-call deadlines plus
// nonblocking readiness-loop primitives).
//
// The deployment frontend of the X-Search proxy: the paper's prototype was
// exercised over the network by third-party HTTP clients and wrk2; this
// module provides the equivalent transport for this reproduction — a
// listener plus connected streams with exact-read/exact-write helpers, all
// file descriptors owned RAII-style.
//
// Every blocking I/O helper takes a `Deadline`: a finite deadline is
// enforced with SO_RCVTIMEO/SO_SNDTIMEO (re-armed with the remaining budget
// on every iteration of a partial read/write, so a peer trickling one byte
// per timeout cannot stretch the call), and expiry surfaces as
// kDeadlineExceeded. The default Deadline is infinite, which preserves the
// historical blocking behaviour.
//
// The nonblocking surface (`set_nonblocking`, `read_some`, `write_some`,
// `accept_nonblocking`) is what net/reactor.hpp drives from its epoll
// loops: single-shot calls that report would-block/EOF as data instead of
// blocking, with gather writes for batched replies and accept-time
// EMFILE/ENFILE detection so fd exhaustion is a typed event rather than an
// accept-loop spin.
//
// `ByteStream` is the seam the frame layer reads/writes through; the chaos
// harness (net/chaos.hpp) wraps a transport behind the same interface to
// inject deterministic wire faults.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/bytes.hpp"
#include "common/deadline.hpp"
#include "common/status.hpp"

namespace xsearch::net {

/// Outcome of one nonblocking I/O attempt. Exactly one of `bytes > 0`,
/// `would_block`, or `eof` describes what happened; hard transport errors
/// surface as a failed Result instead.
struct IoProgress {
  std::size_t bytes = 0;     // bytes moved by this call
  bool would_block = false;  // kernel had no data / no buffer space
  bool eof = false;          // orderly peer close (reads only)
};

/// One gather-write buffer (mirrors struct iovec without leaking the POSIX
/// header into every includer).
struct ConstBuffer {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// Owning wrapper around a file descriptor.
class FileDescriptor {
 public:
  FileDescriptor() = default;
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() { reset(); }

  FileDescriptor(FileDescriptor&& other) noexcept : fd_(other.release()) {}
  FileDescriptor& operator=(FileDescriptor&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Releases ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// Abstract byte transport: what the frame layer needs from a connection.
/// Implemented by TcpStream (the real socket) and ChaosSocket (the
/// deterministic fault-injection wrapper in net/chaos.hpp).
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Writes the whole buffer before `deadline` or fails.
  [[nodiscard]] virtual Status write_all(ByteSpan data,
                                         const Deadline& deadline) = 0;

  /// Reads exactly `n` bytes before `deadline` or fails (peer close
  /// mid-read is DATA_LOSS; deadline expiry is DEADLINE_EXCEEDED).
  [[nodiscard]] virtual Result<Bytes> read_exact(std::size_t n,
                                                 const Deadline& deadline) = 0;

  /// Shuts down both directions: any thread blocked on this stream wakes
  /// up with EOF.
  virtual void shutdown_both() = 0;

  [[nodiscard]] virtual bool valid() const = 0;

  // Deadline-free conveniences (infinite deadline = historical blocking I/O).
  [[nodiscard]] Status write_all(ByteSpan data) {
    return write_all(data, Deadline());
  }
  [[nodiscard]] Result<Bytes> read_exact(std::size_t n) {
    return read_exact(n, Deadline());
  }
};

/// A connected TCP stream.
class TcpStream : public ByteStream {
 public:
  TcpStream() = default;
  explicit TcpStream(FileDescriptor fd) : fd_(std::move(fd)) {}

  TcpStream(TcpStream&&) noexcept = default;
  TcpStream& operator=(TcpStream&&) noexcept = default;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  [[nodiscard]] static Result<TcpStream> connect(const std::string& host,
                                                 std::uint16_t port);

  using ByteStream::read_exact;
  using ByteStream::write_all;

  [[nodiscard]] Status write_all(ByteSpan data,
                                 const Deadline& deadline) override;
  [[nodiscard]] Result<Bytes> read_exact(std::size_t n,
                                         const Deadline& deadline) override;

  [[nodiscard]] bool valid() const override { return fd_.valid(); }

  /// Switches the socket between blocking and nonblocking mode. The
  /// nonblocking helpers below require nonblocking mode; the deadline-based
  /// helpers above require blocking mode (SO_*TIMEO has no effect on a
  /// nonblocking fd).
  [[nodiscard]] Status set_nonblocking(bool enabled);

  /// Nonblocking single-shot read into `out`. Returns the bytes moved, or
  /// would_block/eof; ECONNRESET and friends fail the Result.
  [[nodiscard]] Result<IoProgress> read_some(std::span<std::uint8_t> out);

  /// Nonblocking gather write (sendmsg with MSG_NOSIGNAL): moves as many
  /// bytes as the socket buffer accepts from the fronts of `buffers`.
  [[nodiscard]] Result<IoProgress> write_some(
      std::span<const ConstBuffer> buffers);

  /// The raw descriptor, for epoll registration only — ownership stays here.
  [[nodiscard]] int native_fd() const { return fd_.get(); }

  /// Half-closes the write side (signals EOF to the peer).
  void shutdown_write();

  /// Shuts down both directions: any thread blocked reading this stream
  /// wakes up with EOF. Used by servers to unblock connection workers on
  /// shutdown.
  void shutdown_both() override;

 private:
  /// Arms SO_RCVTIMEO/SO_SNDTIMEO for the remaining budget (or disarms for
  /// an infinite deadline, skipping the syscall when already disarmed).
  [[nodiscard]] Status arm_timeout(int option, const Deadline& deadline,
                                   bool& armed);

  FileDescriptor fd_;
  bool recv_timeout_armed_ = false;
  bool send_timeout_armed_ = false;
};

/// Opens a fresh connection to one peer — the seam a client is built on,
/// so the same client runs over TCP (`tcp_connector`), in-process
/// (net/frame_protocol.hpp) or through a fault injector wrapping either.
using Connector = std::function<Result<std::unique_ptr<ByteStream>>()>;

/// Connects to host:port over TCP on every call.
[[nodiscard]] Connector tcp_connector(std::string host, std::uint16_t port);

/// A listening TCP socket bound to 127.0.0.1.
///
/// `close()` is callable from a different thread than the one blocked in
/// `accept()` — the idiom every server shutdown path uses — so it only
/// marks the listener closed and shuts the socket down (which both wakes a
/// parked accept and makes the kernel refuse new connections). The
/// descriptor itself is released by `release()` or destruction, once no
/// thread can be inside accept() anymore; closing it eagerly in close()
/// would let the kernel reuse the fd number for an unrelated socket while
/// accept() still holds it.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { release(); }

  TcpListener(TcpListener&& other) noexcept
      : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)),
        port_(other.port_),
        closed_(other.closed_.load(std::memory_order_acquire)) {}
  TcpListener& operator=(TcpListener&& other) noexcept {
    if (this != &other) {
      release();
      fd_.store(other.fd_.exchange(-1, std::memory_order_acq_rel),
                std::memory_order_release);
      port_ = other.port_;
      closed_.store(other.closed_.load(std::memory_order_acquire),
                    std::memory_order_release);
    }
    return *this;
  }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds to loopback:`port` (0 = ephemeral) and listens.
  [[nodiscard]] static Result<TcpListener> bind(std::uint16_t port);

  /// The actual bound port (useful with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks until a client connects. Fails with UNAVAILABLE once the
  /// listener has been closed from another thread.
  [[nodiscard]] Result<TcpStream> accept();

  /// Outcome of one nonblocking accept attempt. `stream` is connected (and
  /// already nonblocking + TCP_NODELAY) only when both flags are false.
  struct Accepted {
    TcpStream stream;
    bool would_block = false;
    /// The process is out of descriptors (EMFILE/ENFILE). The pending
    /// connection stays in the kernel backlog; the caller must back off
    /// instead of retrying immediately (the condition does not clear by
    /// itself, so a tight retry loop is a busy spin).
    bool fd_exhausted = false;
  };

  /// Nonblocking accept (requires set_nonblocking(true)). Transient
  /// per-connection errors (ECONNABORTED, EINTR) are retried internally;
  /// UNAVAILABLE once the listener has been closed.
  [[nodiscard]] Result<Accepted> accept_nonblocking();

  /// Switches the listening socket between blocking and nonblocking mode.
  [[nodiscard]] Status set_nonblocking(bool enabled);

  /// The raw descriptor, for epoll registration only — ownership stays here.
  [[nodiscard]] int native_fd() const {
    return fd_.load(std::memory_order_acquire);
  }

  /// Unblocks pending accept()s, refuses new connections, and prevents new
  /// accepts. Idempotent and safe to call concurrently with accept(). The
  /// descriptor (and with it the bound port) is released by `release()` or
  /// destruction, not here — see the class comment.
  void close();

  /// Fully closes the descriptor, freeing the port for rebinding. Only
  /// callable once no thread can be inside accept() anymore (e.g. after a
  /// server joined its accept thread). Idempotent; implied by destruction.
  void release();

  [[nodiscard]] bool valid() const {
    return !closed_.load(std::memory_order_acquire) &&
           fd_.load(std::memory_order_acquire) >= 0;
  }

 private:
  TcpListener(FileDescriptor fd, std::uint16_t port)
      : fd_(fd.release()), port_(port) {}

  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> closed_{false};
};

}  // namespace xsearch::net
