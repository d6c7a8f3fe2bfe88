// HTTP compatibility frontend (paper §6.3 footnote 3).
//
// Lets unmodified third-party clients (wget, curl, wrk2) use X-Search with
// regular `GET /search?q=...` requests. The frontend terminates HTTP,
// forwards the query through an internal attested broker (in-process, over
// the proxy's own frame protocol) into the enclave,
// and renders the filtered results as JSON.
//
// Connections are served by the same net::Reactor event loops as the
// framed proxy frontend — requests are assembled incrementally out of each
// connection's receive buffer and handled on dispatch workers — so the
// frontend no longer keeps its own thread-per-connection registry.
//
// Privacy note, mirrored from the paper's deployment: a client that speaks
// plain HTTP forgoes the client→proxy channel encryption (it would use TLS
// in production); unlinkability from the *search engine* and query
// obfuscation are unaffected, since both happen at the proxy.
#pragma once

#include <memory>

#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "net/http.hpp"
#include "net/reactor.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {

class HttpProtocol;  // per-connection HTTP state machine (defined in .cpp)

class HttpFrontend {
 public:
  /// Binds loopback:`port` (0 = ephemeral) and serves:
  ///   GET /search?q=<query>   -> JSON result list
  ///   GET /healthz            -> "ok"
  [[nodiscard]] static Result<std::unique_ptr<HttpFrontend>> start(
      core::ProxyHandler& proxy, const sgx::AttestationAuthority& authority,
      std::uint16_t port = 0);

  ~HttpFrontend();

  HttpFrontend(const HttpFrontend&) = delete;
  HttpFrontend& operator=(const HttpFrontend&) = delete;

  [[nodiscard]] std::uint16_t port() const { return reactor_->port(); }

  void stop();

  /// `http.requests` (well-formed requests handled) merged with the
  /// serving reactor's `reactor.*` and the internal broker's `broker.*`.
  [[nodiscard]] metrics::Snapshot metrics() const;

 private:
  friend class HttpProtocol;

  HttpFrontend(core::ProxyHandler& proxy,
               const sgx::AttestationAuthority& authority);

  [[nodiscard]] Bytes handle_request(const HttpRequest& request);

  core::ProxyHandler* proxy_;
  const sgx::AttestationAuthority* authority_;

  // One attested broker shared by all dispatch workers, serialized: the
  // SecureChannel record counters require ordered use.
  mutable Mutex broker_mutex_;
  std::unique_ptr<RemoteBroker> broker_ XS_PT_GUARDED_BY(broker_mutex_);

  metrics::Registry metrics_{"http"};
  metrics::Counter& requests_ = metrics_.counter("requests");
  std::unique_ptr<Reactor> reactor_;
};

}  // namespace xsearch::net
