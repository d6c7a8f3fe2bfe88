#include "net/proxy_server.hpp"

#include <utility>

#include "net/frame_protocol.hpp"

namespace xsearch::net {

Result<std::unique_ptr<ProxyServer>> ProxyServer::start(core::ProxyHandler& proxy,
                                                        std::uint16_t port,
                                                        Options options) {
  auto listener = TcpListener::bind(port);
  if (!listener) return listener.status();

  auto reactor = Reactor::start(
      std::move(listener).value(),
      [&proxy] { return make_frame_protocol(proxy); }, encode_error_frame,
      std::move(options));
  if (!reactor) return reactor.status();
  return std::unique_ptr<ProxyServer>(
      new ProxyServer(std::move(reactor).value()));
}

ProxyServer::ProxyServer(std::unique_ptr<Reactor> reactor)
    : reactor_(std::move(reactor)) {}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::stop() { reactor_->stop(); }

}  // namespace xsearch::net
