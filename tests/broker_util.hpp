// The client broker over either transport, for tests shared by both. Each
// test .cpp compiles into its own executable, so this stays header-only.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "net/frame_protocol.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::testutil {

/// The client broker over an in-process connection to `proxy`.
inline net::RemoteBroker in_process_broker(
    core::ProxyHandler& proxy, const sgx::AttestationAuthority& authority,
    const sgx::Measurement& measurement, std::uint64_t seed,
    net::RemoteBroker::Options options = {}) {
  return net::RemoteBroker(net::in_process_connector(proxy), authority,
                           measurement, seed, std::move(options));
}

/// How a broker reaches the proxy. Tests of broker behaviour are
/// value-parameterized over both (INSTANTIATE_TEST_SUITE_P with
/// `::testing::Values(Transport::kTcp, Transport::kInProcess)` and
/// `transport_name`).
enum class Transport { kTcp, kInProcess };

inline std::string transport_name(
    const ::testing::TestParamInfo<Transport>& info) {
  return info.param == Transport::kTcp ? "Tcp" : "InProcess";
}

/// Serves `proxy` over one transport while alive: through a loopback
/// ProxyServer for kTcp; for kInProcess nothing runs in the background —
/// each broker connection drives the proxy's frame protocol itself.
class ServedProxy {
 public:
  ServedProxy(Transport transport, core::ProxyHandler& proxy,
              net::ProxyServer::Options options = {}) {
    if (transport == Transport::kInProcess) {
      connector_ = net::in_process_connector(proxy);
      return;
    }
    auto server = net::ProxyServer::start(proxy, 0, std::move(options));
    EXPECT_TRUE(server.is_ok()) << server.status().to_string();
    if (!server.is_ok()) return;
    server_ = std::move(server).value();
    connector_ = net::tcp_connector("127.0.0.1", server_->port());
  }

  [[nodiscard]] const net::Connector& connector() const { return connector_; }

  [[nodiscard]] std::unique_ptr<net::RemoteBroker> broker(
      const sgx::AttestationAuthority& authority,
      const sgx::Measurement& measurement, std::uint64_t seed,
      net::RemoteBroker::Options options = {}) const {
    return std::make_unique<net::RemoteBroker>(connector_, authority,
                                               measurement, seed,
                                               std::move(options));
  }

 private:
  std::unique_ptr<net::ProxyServer> server_;
  net::Connector connector_;
};

}  // namespace xsearch::testutil
