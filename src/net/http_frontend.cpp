#include "net/http_frontend.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "net/frame_protocol.hpp"

namespace xsearch::net {

namespace {

// Same bounds read_http_request enforced: a peer may not hold more than
// this much unparsed request in our memory.
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

/// Finds the end of the header block (`\r\n\r\n`); npos if incomplete.
std::size_t find_header_end(ByteSpan buffered) {
  static constexpr std::uint8_t kSep[] = {'\r', '\n', '\r', '\n'};
  const auto it = std::search(buffered.begin(), buffered.end(),
                              std::begin(kSep), std::end(kSep));
  if (it == buffered.end()) return std::string::npos;
  return static_cast<std::size_t>(it - buffered.begin()) + sizeof kSep;
}

/// Content-Length of the (complete) header block; 0 when absent.
std::size_t parse_content_length(ByteSpan headers) {
  static constexpr std::string_view kName = "content-length:";
  std::size_t line_start = 0;
  for (std::size_t i = 0; i + 1 < headers.size(); ++i) {
    if (headers[i] != '\r' || headers[i + 1] != '\n') continue;
    std::size_t j = line_start;
    std::size_t k = 0;
    while (j < i && k < kName.size() &&
           std::tolower(headers[j]) == kName[k]) {
      ++j;
      ++k;
    }
    if (k == kName.size()) {
      std::size_t value = 0;
      while (j < i && (headers[j] == ' ' || headers[j] == '\t')) ++j;
      while (j < i && headers[j] >= '0' && headers[j] <= '9') {
        value = value * 10 + (headers[j] - '0');
        ++j;
      }
      return value;
    }
    line_start = i + 2;
  }
  return 0;
}

}  // namespace

/// Per-connection HTTP/1.1 keep-alive state machine for the reactor: the
/// loop thread assembles one complete request (headers + Content-Length
/// body) out of the receive buffer, and the dispatch workers parse it and
/// run the broker round-trip.
class HttpProtocol final : public ConnectionProtocol {
 public:
  explicit HttpProtocol(HttpFrontend* frontend) : frontend_(frontend) {}

  Action on_input(ByteSpan buffered) override {
    Action action;
    const std::size_t header_end = find_header_end(buffered);
    if (header_end == std::string::npos) {
      if (buffered.size() > kMaxHeaderBytes) {
        action.close = true;  // header flood; hopeless input
        return action;
      }
      action.mid_message = !buffered.empty();
      return action;
    }
    const std::size_t body = parse_content_length(buffered.first(header_end));
    if (body > kMaxBodyBytes) {
      action.close = true;
      return action;
    }
    const std::size_t total = header_end + body;
    if (buffered.size() < total) {
      action.need = total;
      action.mid_message = true;
      return action;
    }
    action.consumed = total;
    action.dispatch = true;
    action.job.assign(buffered.begin(),
                      buffered.begin() + static_cast<std::ptrdiff_t>(total));
    return action;
  }

  JobResult run_job(ByteSpan job, const Deadline& /*deadline*/) override {
    JobResult result;
    auto request = parse_http_request(job);
    if (!request) {
      result.reply.push_back(make_http_response(
          400, "Bad Request", "text/plain", "malformed request\n"));
      result.close = true;
      return result;
    }
    frontend_->requests_.fetch_add(1, std::memory_order_relaxed);
    result.reply.push_back(frontend_->handle_request(request.value()));
    // keep-alive: the connection goes back to reading the next request.
    return result;
  }

  JobResult shed(const Status& status) override {
    JobResult result;
    result.reply.push_back(encode_shed_response(status));
    result.close = true;
    return result;
  }

  [[nodiscard]] static Bytes encode_shed_response(const Status& status) {
    return make_http_response(503, "Service Unavailable", "text/plain",
                              status.to_string() + "\n");
  }

 private:
  HttpFrontend* frontend_;
};

Result<std::unique_ptr<HttpFrontend>> HttpFrontend::start(
    core::ProxyHandler& proxy, const sgx::AttestationAuthority& authority,
    std::uint16_t port) {
  auto listener = TcpListener::bind(port);
  if (!listener) return listener.status();
  auto frontend =
      std::unique_ptr<HttpFrontend>(new HttpFrontend(proxy, authority));
  // Attest the enclave up front so misconfiguration fails fast.
  {
    MutexLock lock(frontend->broker_mutex_);
    XS_RETURN_IF_ERROR(frontend->broker_->connect());
  }

  Reactor::Options options;
  HttpFrontend* raw = frontend.get();
  options.protocol_factory = [raw] {
    return std::make_unique<HttpProtocol>(raw);
  };
  options.encode_shed = [](const Status& status) {
    return HttpProtocol::encode_shed_response(status);
  };
  auto reactor = Reactor::start(std::move(listener).value(),
                                std::move(options));
  if (!reactor) return reactor.status();
  frontend->reactor_ = std::move(reactor).value();
  return frontend;
}

HttpFrontend::HttpFrontend(core::ProxyHandler& proxy,
                           const sgx::AttestationAuthority& authority)
    : proxy_(&proxy), authority_(&authority) {
  broker_ = std::make_unique<RemoteBroker>(in_process_connector(*proxy_),
                                           *authority_, proxy_->measurement(),
                                           /*seed=*/0x477f);
}

HttpFrontend::~HttpFrontend() { stop(); }

void HttpFrontend::stop() {
  if (reactor_) reactor_->stop();
}

Bytes HttpFrontend::handle_request(const HttpRequest& request) {
  if (request.method != "GET") {
    return make_http_response(405, "Method Not Allowed", "text/plain",
                              "only GET is supported\n");
  }
  if (request.path == "/healthz") {
    return make_http_response(200, "OK", "text/plain", "ok\n");
  }
  if (request.path != "/search") {
    return make_http_response(404, "Not Found", "text/plain", "unknown path\n");
  }
  const auto query = request.param("q");
  if (!query || query->empty()) {
    return make_http_response(400, "Bad Request", "text/plain",
                              "missing query parameter q\n");
  }

  Result<std::vector<engine::SearchResult>> results = [&] {
    MutexLock lock(broker_mutex_);
    return broker_->search(*query);
  }();
  if (!results) {
    return make_http_response(502, "Bad Gateway", "text/plain",
                              results.status().to_string() + "\n");
  }

  std::string json = "{\"query\":\"" + json_escape(*query) + "\",\"results\":[";
  bool first = true;
  for (const auto& r : results.value()) {
    if (!first) json += ',';
    first = false;
    json += "{\"title\":\"" + json_escape(r.title) + "\",\"url\":\"" +
            json_escape(r.url) + "\",\"description\":\"" +
            json_escape(r.description) + "\"}";
  }
  json += "]}\n";
  return make_http_response(200, "OK", "application/json", json);
}

}  // namespace xsearch::net
