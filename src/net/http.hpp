// Minimal HTTP/1.1 support for the compatibility frontend.
//
// The paper notes (§6.3, footnote 3) that "X-Search can be used with
// third-party clients issuing regular HTTP requests, such as wget or curl"
// — and its Figure 5 measurements drove the proxy with wrk2 over HTTP.
// This module implements just enough of HTTP/1.1 for that deployment
// surface: request parsing (request line, headers, query string with
// percent-decoding) and response serialization.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/socket.hpp"

namespace xsearch::net {

struct HttpRequest {
  std::string method;                         // "GET", "POST", ...
  std::string path;                           // decoded path, e.g. "/search"
  std::map<std::string, std::string> query;   // decoded query parameters
  std::map<std::string, std::string> headers; // lower-cased field names
  std::string body;

  /// Convenience: a query parameter or nullopt.
  [[nodiscard]] std::optional<std::string> param(std::string_view name) const;
};

/// Percent-decodes a URL component ('+' becomes space). Malformed escapes
/// are passed through literally.
[[nodiscard]] std::string url_decode(std::string_view in);

/// Percent-encodes a URL component.
[[nodiscard]] std::string url_encode(std::string_view in);

/// Parses one HTTP/1.1 request from a raw byte buffer (a complete request
/// including the blank line and any Content-Length body).
[[nodiscard]] Result<HttpRequest> parse_http_request(ByteSpan raw);

/// Serializes a response with Content-Length framing.
[[nodiscard]] Bytes make_http_response(int status, std::string_view reason,
                                       std::string_view content_type,
                                       std::string_view body);

/// Reads a full HTTP response from a stream; returns the body. Only
/// Content-Length framing is supported (what make_http_response emits).
[[nodiscard]] Result<std::string> read_http_response_body(TcpStream& stream,
                                                          int* status_out = nullptr);

/// Escapes a string for inclusion in a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view in);

}  // namespace xsearch::net
