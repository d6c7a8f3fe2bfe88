#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace xsearch::net {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

[[nodiscard]] std::string to_lower(std::string_view in) {
  std::string out(in);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[nodiscard]] int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void parse_query_string(std::string_view qs, std::map<std::string, std::string>& out) {
  while (!qs.empty()) {
    const auto amp = qs.find('&');
    const std::string_view pair = qs.substr(0, amp);
    const auto eq = pair.find('=');
    if (eq != std::string_view::npos) {
      out[url_decode(pair.substr(0, eq))] = url_decode(pair.substr(eq + 1));
    } else if (!pair.empty()) {
      out[url_decode(pair)] = "";
    }
    if (amp == std::string_view::npos) break;
    qs.remove_prefix(amp + 1);
  }
}

}  // namespace

std::optional<std::string> HttpRequest::param(std::string_view name) const {
  const auto it = query.find(std::string(name));
  if (it == query.end()) return std::nullopt;
  return it->second;
}

std::string url_decode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size() && hex_digit(in[i + 1]) >= 0 &&
               hex_digit(in[i + 2]) >= 0) {
      out.push_back(static_cast<char>(hex_digit(in[i + 1]) * 16 + hex_digit(in[i + 2])));
      i += 2;
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

std::string url_encode(std::string_view in) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(c);
    } else if (c == ' ') {
      out.push_back('+');
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0x0f]);
    }
  }
  return out;
}

Result<HttpRequest> parse_http_request(ByteSpan raw) {
  const std::string_view text(reinterpret_cast<const char*>(raw.data()), raw.size());
  const auto header_end = text.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return data_loss("http: missing header terminator");
  }

  HttpRequest request;
  std::size_t line_start = 0;
  bool first_line = true;
  while (line_start < header_end) {
    auto line_end = text.find("\r\n", line_start);
    if (line_end == std::string_view::npos || line_end > header_end) {
      line_end = header_end;
    }
    const std::string_view line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 2;

    if (first_line) {
      first_line = false;
      const auto sp1 = line.find(' ');
      const auto sp2 = line.rfind(' ');
      if (sp1 == std::string_view::npos || sp2 == sp1) {
        return data_loss("http: malformed request line");
      }
      request.method = std::string(line.substr(0, sp1));
      const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string_view version = line.substr(sp2 + 1);
      if (!version.starts_with("HTTP/1.")) {
        return data_loss("http: unsupported version");
      }
      const auto qmark = target.find('?');
      request.path = url_decode(target.substr(0, qmark));
      if (qmark != std::string_view::npos) {
        parse_query_string(target.substr(qmark + 1), request.query);
      }
    } else {
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) {
        return data_loss("http: malformed header line");
      }
      request.headers[to_lower(trim(line.substr(0, colon)))] =
          std::string(trim(line.substr(colon + 1)));
    }
  }
  if (first_line) return data_loss("http: empty request");

  request.body = std::string(text.substr(header_end + 4));
  return request;
}

Result<std::size_t> http_content_length(std::string_view headers) {
  static constexpr std::string_view kName = "content-length:";
  while (!headers.empty()) {
    const auto line_end = headers.find("\r\n");
    const std::string_view line = headers.substr(0, line_end);
    headers.remove_prefix(line_end == std::string_view::npos ? headers.size()
                                                             : line_end + 2);
    if (line.size() < kName.size() ||
        !std::equal(kName.begin(), kName.end(), line.begin(), [](char name, char c) {
          return name == std::tolower(static_cast<unsigned char>(c));
        })) {
      continue;
    }
    const std::string_view value = trim(line.substr(kName.size()));
    std::uint64_t length = 0;
    const auto [end, error] =
        std::from_chars(value.data(), value.data() + value.size(), length);
    if (error != std::errc{} || end != value.data() + value.size() ||
        length > kMaxBodyBytes) {
      return data_loss("http: bad or oversized Content-Length");
    }
    return static_cast<std::size_t>(length);
  }
  return std::size_t{0};
}

Bytes make_http_response(int status, std::string_view reason,
                         std::string_view content_type, std::string_view body) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " + std::string(reason) +
                     "\r\nContent-Type: " + std::string(content_type) +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: keep-alive\r\n\r\n";
  Bytes out = to_bytes(head);
  append(out, to_bytes(body));
  return out;
}

Result<std::string> read_http_response_body(TcpStream& stream, int* status_out) {
  Bytes buffer;
  while (buffer.size() < kMaxHeaderBytes) {
    auto chunk = stream.read_exact(1);
    if (!chunk) return chunk.status();
    buffer.push_back(chunk.value()[0]);
    if (buffer.size() >= 4 &&
        std::string_view(reinterpret_cast<const char*>(buffer.data()), buffer.size())
            .ends_with("\r\n\r\n")) {
      break;
    }
  }
  const std::string_view head(reinterpret_cast<const char*>(buffer.data()),
                              buffer.size());
  if (!head.starts_with("HTTP/1.")) return data_loss("http: bad status line");
  if (status_out != nullptr) {
    const auto sp = head.find(' ');
    int status = 0;
    if (sp != std::string_view::npos) {
      (void)std::from_chars(head.data() + sp + 1, head.data() + sp + 4, status);
    }
    *status_out = status;
  }

  const auto length = http_content_length(head);
  if (!length) return length.status();
  auto body = stream.read_exact(length.value());
  if (!body) return body.status();
  return to_string(body.value());
}

std::string json_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace xsearch::net
