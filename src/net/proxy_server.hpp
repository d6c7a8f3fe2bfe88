// TCP frontend for the X-Search proxy.
//
// Hosts a core::ProxyHandler — a single XSearchProxy or a net::ProxyFleet —
// behind a loopback TCP listener, speaking the framed protocol of
// net/frame.hpp: HELLO (attested handshake) then any number of QUERY
// frames per connection, each carrying a batch of one or more queries.
// This is the untrusted host component of the deployment — it moves
// ciphertext between sockets and the enclave and never sees a plaintext
// query.
//
// Connections are served by a net::Reactor: one event loop multiplexes
// every socket with epoll instead of parking one pool thread per
// connection, frames are parsed incrementally (zero-copy FrameCursor) out
// of each connection's receive buffer, and only complete requests are
// copied once and executed on a small dispatch worker pool. An idle
// session costs a buffer and a table entry, which is what lets one proxy
// host the paper's tens of thousands of mostly-idle clients.
//
// Overload behavior is typed and layered (all counted in metrics()): accept
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
#include <memory>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {

class ProxyServer {
 public:
  /// The reactor's tuning, as is (see ReactorOptions).
  using Options = ReactorOptions;

  /// Binds loopback:`port` (0 = ephemeral) and starts the reactor.
  [[nodiscard]] static Result<std::unique_ptr<ProxyServer>> start(
      core::ProxyHandler& proxy, std::uint16_t port = 0, Options options = {});

  ~ProxyServer();

  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return reactor_->port(); }

  /// Stops accepting, closes every connection, joins the event loop and
  /// dispatch workers. Idempotent; the port rebinds immediately after.
  void stop();

  /// The reactor's `reactor.*` series (see Reactor::metrics).
  [[nodiscard]] metrics::Snapshot metrics() const { return reactor_->metrics(); }

  /// Connections accepted over the server's lifetime; a thin read of
  /// `reactor.accepted`, kept for the end-to-end benchmark.
  [[nodiscard]] std::uint64_t connections_served() const {
    return metrics().value("reactor.accepted");
  }

 private:
  explicit ProxyServer(std::unique_ptr<Reactor> reactor);

  std::unique_ptr<Reactor> reactor_;
};

}  // namespace xsearch::net
