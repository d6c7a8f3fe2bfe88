// The proxy's frame protocol, and an in-process way to drive it.
//
// `make_frame_protocol` is the per-connection state machine behind the
// framed wire of net/frame.hpp: HELLO (attested handshake) then any number
// of QUERY or BATCH_QUERY frames, every error a typed kErrorStatus frame.
// The reactor (net/proxy_server.hpp) drives it from epoll loops and
// dispatch workers.
//
// `in_process_connector` drives the very same protocol object without
// sockets, in the caller's thread: its ByteStream feeds written bytes to
// `on_input`, and when the client reads a reply, runs the waiting request
// through `run_job` — or through `shed` if the frame's budget expired in
// between, as a reactor worker would. A net::RemoteBroker built on it is
// the in-process client broker: same framing, same typed errors, same
// deadline handling as over TCP.
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {

/// One connection's protocol state machine over `proxy` (which must
/// outlive it).
[[nodiscard]] std::unique_ptr<ConnectionProtocol> make_frame_protocol(
    core::ProxyHandler& proxy);

/// One contiguous kErrorStatus frame carrying `status` — the reply to a
/// refused or shed request.
[[nodiscard]] Bytes encode_error_frame(const Status& status);

/// Connects to `proxy` in-process: every call opens a fresh connection
/// (a fresh protocol object). `proxy` must outlive every stream.
///
/// The stream never blocks. A read that no waiting request or reply can
/// satisfy fails at once with DEADLINE_EXCEEDED (no reply is coming — the
/// request was incomplete or its bytes were lost); after the protocol
/// closed the connection, reads past the last reply are DATA_LOSS (EOF).
[[nodiscard]] Connector in_process_connector(core::ProxyHandler& proxy);

}  // namespace xsearch::net
