// TCP frontend for the X-Search proxy.
//
// Hosts a core::ProxyHandler — a single XSearchProxy or a net::ProxyFleet —
// behind a loopback TCP listener, speaking the framed protocol of
// net/frame.hpp: HELLO (attested handshake) then any number of QUERY or
// BATCH_QUERY frames per connection. This is the untrusted host component
// of the deployment — it moves ciphertext between sockets and the enclave
// and never sees a plaintext query.
//
// Connections are served by a net::Reactor: event-loop shards multiplex
// every socket with epoll instead of parking one pool thread per
// connection, frames are parsed incrementally (zero-copy FrameCursor) out
// of each connection's receive buffer, and only complete requests are
// copied once and executed on a small dispatch worker pool. An idle
// session costs a buffer and a table entry, which is what lets one proxy
// host the paper's tens of thousands of mostly-idle clients.
//
// Overload behavior is typed and layered (all counted in stats): accept
// past `max_connections` answers OVERLOADED and closes; EMFILE/ENFILE at
// accept pauses the accept loop briefly instead of spinning; a request
// that finds the dispatch queue full, waited past `queue_timeout`, or
// whose own deadline expired while queued is shed with a typed error
// before the handler runs.
//
// Deadline handling: every frame carries the client's remaining budget;
// the server converts it to a local Deadline and refuses already-expired
// requests before the handler runs (typed DEADLINE_EXCEEDED, exactly-once
// safe). Every error reply is a typed kErrorStatus frame. The protocol
// itself lives in net/frame_protocol.hpp, shared with in-process clients.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {

class ProxyServer {
 public:
  struct Options {
    /// Dispatch workers running enclave/handler work (0 = max(8,
    /// hardware_concurrency)). Workers are occupied per *request*, not per
    /// connection — idle sessions hold no worker.
    std::size_t workers = 0;
    /// Requests that may wait for a free dispatch worker; beyond this the
    /// server sheds with a typed "server busy" error.
    std::size_t max_pending_connections = 128;
    /// How long a queued request may wait for a worker before being shed
    /// with a typed OVERLOADED error instead of served (its client has
    /// likely timed out already). 0 = wait forever (historical).
    Nanos queue_timeout = 0;
    /// Budget for reading a frame's body once its header arrived (slow-
    /// writer bound) and for draining replies to slow readers. 0 =
    /// unbounded. Waiting for the NEXT frame is always unbounded — idle
    /// connections are legal — unless `idle_ttl` says otherwise.
    Nanos io_budget = 0;
    /// Event-loop shards (0 = 1). Each shard multiplexes its share of the
    /// connections on one epoll descriptor.
    std::size_t shards = 0;
    /// Reap sessions idle longer than this (no frame in progress, nothing
    /// to write). 0 = never.
    Nanos idle_ttl = 0;
    /// Hard cap on live connections, enforced at accept with a typed
    /// OVERLOADED reply; set below RLIMIT_NOFILE so the typed shed fires
    /// before the kernel's EMFILE. 0 = unbounded.
    std::size_t max_connections = 0;
    /// Test seam: simulate an errno at accept time (see Reactor::Options).
    std::function<int()> accept_fault;
  };

  /// Binds loopback:`port` (0 = ephemeral) and starts the reactor.
  [[nodiscard]] static Result<std::unique_ptr<ProxyServer>> start(
      core::ProxyHandler& proxy, std::uint16_t port = 0);
  [[nodiscard]] static Result<std::unique_ptr<ProxyServer>> start(
      core::ProxyHandler& proxy, std::uint16_t port, Options options);

  ~ProxyServer();

  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return reactor_->port(); }

  /// Stops accepting, closes every connection, joins the shard loops and
  /// dispatch workers. Idempotent; the port rebinds immediately after.
  void stop();

  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t connections_served() const {
    return reactor_->accepted();
  }
  /// Connections fully torn down (finished, failed, or shed).
  [[nodiscard]] std::uint64_t connections_reaped() const {
    return reactor_->reaped();
  }
  /// Connections/requests refused with a typed "server busy" error.
  [[nodiscard]] std::uint64_t connections_shed() const {
    return reactor_->shed();
  }
  /// Requests shed because they waited past `queue_timeout` (also counted
  /// in `connections_shed`).
  [[nodiscard]] std::uint64_t queue_expired() const {
    return reactor_->queue_expired();
  }
  /// Requests refused (typed DEADLINE_EXCEEDED) because their own deadline
  /// expired while queued, before the handler ran.
  [[nodiscard]] std::uint64_t deadline_expired() const {
    return reactor_->deadline_expired();
  }
  /// Accept attempts that hit EMFILE/ENFILE; each pauses the accept loop
  /// briefly instead of spinning.
  [[nodiscard]] std::uint64_t fd_exhausted() const {
    return reactor_->fd_exhausted();
  }
  /// Sessions reaped by `idle_ttl`.
  [[nodiscard]] std::uint64_t idle_reaped() const {
    return reactor_->idle_reaped();
  }
  /// Connections currently live.
  [[nodiscard]] std::size_t active_connections() const {
    return reactor_->active_connections();
  }

 private:
  explicit ProxyServer(std::unique_ptr<Reactor> reactor);

  std::unique_ptr<Reactor> reactor_;
};

}  // namespace xsearch::net
