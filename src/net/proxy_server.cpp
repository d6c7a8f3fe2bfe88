#include "net/proxy_server.hpp"

#include <algorithm>
#include <utility>

#include "net/frame_protocol.hpp"

namespace xsearch::net {

Result<std::unique_ptr<ProxyServer>> ProxyServer::start(core::ProxyHandler& proxy,
                                                        std::uint16_t port) {
  return start(proxy, port, Options{});
}

Result<std::unique_ptr<ProxyServer>> ProxyServer::start(core::ProxyHandler& proxy,
                                                        std::uint16_t port,
                                                        Options options) {
  auto listener = TcpListener::bind(port);
  if (!listener) return listener.status();

  Reactor::Options reactor_options;
  reactor_options.shards = options.shards;
  reactor_options.dispatch_workers = options.workers;
  reactor_options.dispatch_queue =
      std::max<std::size_t>(1, options.max_pending_connections);
  reactor_options.queue_timeout = options.queue_timeout;
  reactor_options.io_budget = options.io_budget;
  reactor_options.idle_ttl = options.idle_ttl;
  reactor_options.max_connections = options.max_connections;
  reactor_options.accept_fault = std::move(options.accept_fault);
  reactor_options.protocol_factory = [&proxy] {
    return make_frame_protocol(proxy);
  };
  reactor_options.encode_shed = encode_error_frame;

  auto reactor = Reactor::start(std::move(listener).value(),
                                std::move(reactor_options));
  if (!reactor) return reactor.status();
  return std::unique_ptr<ProxyServer>(
      new ProxyServer(std::move(reactor).value()));
}

ProxyServer::ProxyServer(std::unique_ptr<Reactor> reactor)
    : reactor_(std::move(reactor)) {}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::stop() { reactor_->stop(); }

}  // namespace xsearch::net
