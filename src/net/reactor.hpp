// Event-driven data plane: one epoll readiness loop for the proxy frontends.
//
// `Reactor` replaces the thread-per-connection pool that served the paper's
// proxy: one event-loop thread, owning an epoll descriptor, a hashed timer
// wheel (idle TTL, slow-writer/slow-reader budgets, accept backoff) and an
// eventfd wakeup, drives per-connection state machines
//
//     kReadingHeader → kReadingBody → kDispatched → kWriting
//                 ↖______________________________________↙
//
// over nonblocking sockets with edge-triggered readiness and vectored
// writes. A connection costs a buffer and a table entry instead of a parked
// thread, which is what makes 10k–100k mostly-idle sessions feasible (the
// userspace-middlebox motivation of MiddleNet/mmb).
//
// Protocol logic lives behind `ConnectionProtocol`: the loop thread feeds
// it buffered bytes (`on_input`, zero-copy — views into the recv buffer),
// and complete requests are copied ONCE into a job and executed on a small
// dispatch worker pool (`run_job`) so slow crypto or enclave work never
// stalls the readiness loop. One request is in flight per connection at a
// time, so a protocol object is only ever touched by one thread at a time
// — the loop while reading/writing, one worker while dispatched — with the
// dispatch queue's lock providing the hand-off ordering.
//
// Shedding is typed and layered: accept past `max_connections` answers
// with the protocol's OVERLOADED bytes and closes; EMFILE/ENFILE pauses
// the accept loop (counted in `fd_exhausted`) and retries after a backoff
// instead of spinning; a job that waited past `queue_timeout` or whose
// request deadline expired while queued is shed by the worker through
// `ConnectionProtocol::shed` without running.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/deadline.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "net/socket.hpp"
#include "net/timer_wheel.hpp"

namespace xsearch::net {

/// Per-connection protocol state machine, driven by the reactor. One
/// instance per connection; never invoked from two threads at once (see
/// the file comment for the hand-off discipline).
class ConnectionProtocol {
 public:
  virtual ~ConnectionProtocol() = default;

  /// What `on_input` tells the loop to do next.
  struct Action {
    /// Bytes consumed off the front of the buffer (one message at most).
    std::size_t consumed = 0;
    /// Total buffered bytes required before the next on_input can make
    /// progress (0 = call again on any new data). A read-size hint.
    std::size_t need = 0;
    /// A message has started but is incomplete: the reactor arms the
    /// slow-writer (body) budget and parks the connection in kReadingBody.
    bool mid_message = false;
    /// Close the connection once pending writes have flushed.
    bool close = false;
    /// Immediate reply bytes written from the loop thread (cheap errors).
    Bytes reply;
    /// Hand `job` to the dispatch pool (the one copy out of the buffer).
    bool dispatch = false;
    Bytes job;
    /// Request deadline carried by the message (infinite when absent).
    Deadline deadline;
  };

  /// Loop thread: parse buffered input (a view into the connection's recv
  /// buffer, valid only for this call) and consume at most one message.
  [[nodiscard]] virtual Action on_input(ByteSpan buffered) = 0;

  struct JobResult {
    /// Reply chunks, written in order by one vectored write (header and
    /// payload stay separate buffers — no gluing copy).
    std::vector<Bytes> reply;
    bool close = false;
  };

  /// Dispatch worker: execute one job produced by on_input.
  [[nodiscard]] virtual JobResult run_job(ByteSpan job,
                                          const Deadline& deadline) = 0;

  /// Dispatch worker: the job was shed before running (queue expiry,
  /// deadline); produce the typed error reply.
  [[nodiscard]] virtual JobResult shed(const Status& status) = 0;
};

/// Tuning of a Reactor — and of ProxyServer, which takes this struct as is.
struct ReactorOptions {
  /// Event loops: 0 and 1 both mean the reactor's one loop; `start`
  /// refuses anything larger with INVALID_ARGUMENT.
  std::size_t shards = 0;
  /// Dispatch workers executing run_job (0 = max(8, hw concurrency)).
  /// Workers are occupied per *request*, not per connection — idle
  /// sessions hold no worker.
  std::size_t workers = 0;
  /// Jobs that may wait for a free dispatch worker (at least 1); beyond
  /// this new requests are shed with typed OVERLOADED.
  std::size_t dispatch_queue = 128;
  /// A job queued longer than this is shed (typed OVERLOADED) instead of
  /// run — its client has likely timed out. 0 = wait forever.
  Nanos queue_timeout = 0;
  /// Budget for a peer to finish a started message (slow-writer bound)
  /// and for draining a reply to a slow reader. 0 = unbounded. Waiting
  /// for the NEXT message is always unbounded — idle connections are
  /// legal — unless `idle_ttl` says otherwise.
  Nanos io_budget = 0;
  /// Reap connections idle (no message in progress, nothing to write)
  /// longer than this. 0 = never.
  Nanos idle_ttl = 0;
  /// Hard cap on concurrently live connections, enforced at accept with
  /// a typed OVERLOADED reply. 0 = unbounded. Deployments should set
  /// this safely below RLIMIT_NOFILE so the typed shed fires before the
  /// kernel's EMFILE does.
  std::size_t max_connections = 0;
  /// Test seam (mirrors the proxy's engine_fault_hook idiom): called
  /// before every real accept; a nonzero return simulates that errno at
  /// accept time. Lets tests exercise the EMFILE path deterministically.
  std::function<int()> accept_fault;
};

class Reactor {
 public:
  /// Creates the per-connection protocol instance.
  using ProtocolFactory = std::function<std::unique_ptr<ConnectionProtocol>()>;
  /// Encodes the accept-time shed reply (max_connections exceeded). The
  /// peer has not spoken yet, so this is protocol-wide, not
  /// per-connection.
  using ShedEncoder = std::function<Bytes(const Status&)>;

  /// Takes ownership of a bound listener and starts the event loop.
  /// `protocol_factory` is required; an empty `encode_shed` closes shed
  /// connections without a reply.
  [[nodiscard]] static Result<std::unique_ptr<Reactor>> start(
      TcpListener listener, ProtocolFactory protocol_factory,
      ShedEncoder encode_shed, ReactorOptions options);

  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Stops accepting, closes every connection, joins the loop thread and
  /// the dispatch pool. Idempotent; the listener port is immediately
  /// rebindable afterwards.
  void stop();

  /// `reactor.*`: accepted, reaped, shed (accept cap, full queue, queue
  /// expiry), queue_expired, deadline_expired (while queued), fd_exhausted
  /// (EMFILE/ENFILE accepts), idle_reaped; gauge active (live connections).
  [[nodiscard]] metrics::Snapshot metrics() const { return metrics_.snapshot(); }

 private:
  struct Connection;
  /// A finished job, handed from a dispatch worker back to the loop.
  struct Completion {
    std::uint64_t id = 0;
    std::uint64_t generation = 0;
    std::vector<Bytes> reply;
    bool close = false;
  };

  Reactor(TcpListener listener, ProtocolFactory protocol_factory,
          ShedEncoder encode_shed, ReactorOptions options);

  void loop();
  void drain_accept();
  void pause_accept();
  void resume_accept();
  void adopt_connection(TcpStream stream);
  // Event handlers look connections up by id and re-validate after every
  // step that can destroy one.
  void on_readable(std::uint64_t id);
  void on_writable(std::uint64_t id);
  void on_timer(std::uint64_t id, Nanos now);
  /// Parses buffered input until it blocks, dispatches, or closes.
  void process_input(Connection& conn);
  void dispatch_job(Connection& conn, Bytes job, const Deadline& deadline);
  void run_dispatched(std::uint64_t id, std::uint64_t generation,
                      const std::shared_ptr<ConnectionProtocol>& protocol,
                      Bytes job, const Deadline& deadline,
                      const Deadline& queue_deadline);
  void apply_completion(std::uint64_t id, std::uint64_t generation,
                        std::vector<Bytes> reply, bool close);
  /// Flushes the write queue; arms EPOLLOUT on would-block. Returns false
  /// if the connection was destroyed.
  [[nodiscard]] bool flush_writes(Connection& conn);
  /// Reply flushed: resume reading (possibly on already-buffered input).
  void finish_request(std::uint64_t id);
  void enqueue_reply(Connection& conn, std::vector<Bytes> reply, bool close);
  void destroy_connection(std::uint64_t id);
  void wake();

  TcpListener listener_;
  const ProtocolFactory protocol_factory_;
  const ShedEncoder encode_shed_;
  const ReactorOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;

  // The event loop's state: touched only by the loop thread once it runs.
  FileDescriptor epoll_;
  FileDescriptor wakefd_;
  TimerWheel wheel_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_id_ = 2;  // 0 = wake tag, 1 = listener tag
  bool accept_paused_ = false;

  // The one thing dispatch workers share with the loop.
  Mutex inbox_mutex_;
  std::vector<Completion> completions_ XS_GUARDED_BY(inbox_mutex_);
  bool inbox_stopped_ XS_GUARDED_BY(inbox_mutex_) = false;

  std::atomic<bool> stopping_{false};
  Mutex stop_mutex_;
  bool stopped_ XS_GUARDED_BY(stop_mutex_) = false;

  metrics::Registry metrics_{"reactor"};
  metrics::Counter& accepted_ = metrics_.counter("accepted");
  metrics::Counter& reaped_ = metrics_.counter("reaped");
  metrics::Counter& shed_ = metrics_.counter("shed");
  metrics::Counter& queue_expired_ = metrics_.counter("queue_expired");
  metrics::Counter& deadline_expired_ = metrics_.counter("deadline_expired");
  metrics::Counter& fd_exhausted_ = metrics_.counter("fd_exhausted");
  metrics::Counter& idle_reaped_ = metrics_.counter("idle_reaped");
  metrics::Gauge& active_ = metrics_.gauge("active");
};

}  // namespace xsearch::net
