// Event-driven data plane: epoll readiness loops for the proxy frontends.
//
// `Reactor` replaces the thread-per-connection pool that served the paper's
// proxy: N event-loop shards, each owning an epoll descriptor, a hashed
// timer wheel (idle TTL, slow-writer/slow-reader budgets, accept backoff)
// and an eventfd wakeup, drive per-connection state machines
//
//     kReadingHeader → kReadingBody → kDispatched → kWriting
//                 ↖______________________________________↙
//
// over nonblocking sockets with edge-triggered readiness and vectored
// writes. A connection costs a buffer and a table entry instead of a parked
// thread, which is what makes 10k–100k mostly-idle sessions feasible
// (ROADMAP item 2; the userspace-middlebox motivation of MiddleNet/mmb).
//
// Protocol logic lives behind `ConnectionProtocol`: the loop thread feeds
// it buffered bytes (`on_input`, zero-copy — views into the recv buffer),
// and complete requests are copied ONCE into a job and executed on a small
// dispatch worker pool (`run_job`) so slow crypto or enclave work never
// stalls a readiness loop. One request is in flight per connection at a
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
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/deadline.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "net/socket.hpp"

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

class Reactor {
 public:
  struct Options {
    /// Event-loop shards (0 = 1). Each shard is one thread + one epoll fd;
    /// connections are assigned round-robin at accept.
    std::size_t shards = 0;
    /// Dispatch workers executing run_job (0 = max(8, hw concurrency)).
    std::size_t dispatch_workers = 0;
    /// Jobs that may wait for a free dispatch worker; beyond this new
    /// requests are shed with typed OVERLOADED.
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
    /// Creates the per-connection protocol instance. Required.
    std::function<std::unique_ptr<ConnectionProtocol>()> protocol_factory;
    /// Encodes the accept-time shed reply (max_connections exceeded). The
    /// peer has not spoken yet, so this is protocol-wide, not
    /// per-connection. Optional: absent, shed connections are just closed.
    std::function<Bytes(const Status&)> encode_shed;
    /// Test seam (mirrors the proxy's engine_fault_hook idiom): called
    /// before every real accept; a nonzero return simulates that errno at
    /// accept time. Lets tests exercise the EMFILE path deterministically.
    std::function<int()> accept_fault;
  };

  /// Takes ownership of a bound listener and starts the shard loops.
  [[nodiscard]] static Result<std::unique_ptr<Reactor>> start(
      TcpListener listener, Options options);

  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Stops accepting, closes every connection, joins shard threads and the
  /// dispatch pool. Idempotent; the listener port is immediately
  /// rebindable afterwards.
  void stop();

  /// `reactor.*`: accepted, reaped, shed (accept cap, full queue, queue
  /// expiry), queue_expired, deadline_expired (while queued), fd_exhausted
  /// (EMFILE/ENFILE accepts), idle_reaped; gauge active (live connections).
  [[nodiscard]] metrics::Snapshot metrics() const { return metrics_.snapshot(); }

 private:
  struct Shard;
  struct Connection;

  Reactor(TcpListener listener, Options options);

  void shard_loop(Shard& shard);
  void drain_accept(Shard& shard);
  void pause_accept(Shard& shard);
  void resume_accept(Shard& shard);
  void adopt_connection(Shard& shard, TcpStream stream, std::uint64_t id);
  // Event handlers look connections up by id and re-validate after every
  // step that can destroy one.
  void on_readable(Shard& shard, std::uint64_t id);
  void on_writable(Shard& shard, std::uint64_t id);
  void on_timer(Shard& shard, std::uint64_t id, Nanos now);
  /// Parses buffered input until it blocks, dispatches, or closes.
  void process_input(Shard& shard, Connection& conn);
  void dispatch_job(Shard& shard, Connection& conn, Bytes job,
                    const Deadline& deadline);
  void run_dispatched(Shard& shard, std::uint64_t id, std::uint64_t generation,
                      const std::shared_ptr<ConnectionProtocol>& protocol,
                      Bytes job, const Deadline& deadline,
                      const Deadline& queue_deadline);
  void apply_completion(Shard& shard, std::uint64_t id,
                        std::uint64_t generation,
                        std::vector<Bytes> reply, bool close);
  /// Flushes the write queue; arms EPOLLOUT on would-block. Returns false
  /// if the connection was destroyed.
  [[nodiscard]] bool flush_writes(Shard& shard, Connection& conn);
  /// Reply flushed: resume reading (possibly on already-buffered input).
  void finish_request(Shard& shard, std::uint64_t id);
  void enqueue_reply(Connection& conn, std::vector<Bytes> reply, bool close);
  void destroy_connection(Shard& shard, std::uint64_t id);
  void schedule_conn_timer(Shard& shard, Connection& conn, Nanos due);
  void wake(Shard& shard);

  TcpListener listener_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> stopping_{false};
  Mutex stop_mutex_;
  bool stopped_ XS_GUARDED_BY(stop_mutex_) = false;
  // Accept-side pacing state lives on shard 0's loop thread.
  bool accept_paused_ = false;

  std::atomic<std::uint64_t> next_id_{2};  // 0 = wake tag, 1 = listener tag
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
