// HTTP layer tests: parser unit tests plus the full compatibility frontend
// exercised by a raw HTTP client over loopback.
#include <gtest/gtest.h>

#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/http.hpp"
#include "net/http_frontend.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {
namespace {

// ---- url coding ----------------------------------------------------------------

TEST(UrlCoding, DecodeBasics) {
  EXPECT_EQ(url_decode("hello+world"), "hello world");
  EXPECT_EQ(url_decode("a%20b"), "a b");
  EXPECT_EQ(url_decode("100%25"), "100%");
  EXPECT_EQ(url_decode("plain"), "plain");
}

TEST(UrlCoding, DecodeMalformedEscapesPassThrough) {
  EXPECT_EQ(url_decode("%"), "%");
  EXPECT_EQ(url_decode("%zz"), "%zz");
  EXPECT_EQ(url_decode("%2"), "%2");
}

TEST(UrlCoding, EncodeDecodeRoundTrip) {
  const std::string original = "private web search: 100% \"safe\" & sound?";
  EXPECT_EQ(url_decode(url_encode(original)), original);
}

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("plain text"), "plain text");
}

// ---- request parsing --------------------------------------------------------------

TEST(HttpParse, SimpleGet) {
  const Bytes raw = to_bytes(
      "GET /search?q=hello+world&k=3 HTTP/1.1\r\nHost: localhost\r\n\r\n");
  const auto request = parse_http_request(raw);
  ASSERT_TRUE(request.is_ok()) << request.status().to_string();
  EXPECT_EQ(request.value().method, "GET");
  EXPECT_EQ(request.value().path, "/search");
  EXPECT_EQ(request.value().param("q"), "hello world");
  EXPECT_EQ(request.value().param("k"), "3");
  EXPECT_FALSE(request.value().param("missing").has_value());
  EXPECT_EQ(request.value().headers.at("host"), "localhost");
}

TEST(HttpParse, HeaderNamesCaseInsensitive) {
  const Bytes raw = to_bytes("GET / HTTP/1.1\r\nCoNtEnT-TyPe: text/plain\r\n\r\n");
  const auto request = parse_http_request(raw);
  ASSERT_TRUE(request.is_ok());
  EXPECT_EQ(request.value().headers.at("content-type"), "text/plain");
}

TEST(HttpParse, PercentEncodedPath) {
  const Bytes raw = to_bytes("GET /a%20b?x=%26amp HTTP/1.1\r\n\r\n");
  const auto request = parse_http_request(raw);
  ASSERT_TRUE(request.is_ok());
  EXPECT_EQ(request.value().path, "/a b");
  EXPECT_EQ(request.value().param("x"), "&amp");
}

TEST(HttpParse, RejectsGarbage) {
  EXPECT_FALSE(parse_http_request(to_bytes("not http at all")).is_ok());
  EXPECT_FALSE(parse_http_request(to_bytes("GET\r\n\r\n")).is_ok());
  EXPECT_FALSE(parse_http_request(to_bytes("GET / SPDY/9\r\n\r\n")).is_ok());
  EXPECT_FALSE(parse_http_request({}).is_ok());
}

TEST(HttpParse, ResponseSerialization) {
  const Bytes response = make_http_response(200, "OK", "text/plain", "hello");
  const std::string text = to_string(response);
  EXPECT_TRUE(text.starts_with("HTTP/1.1 200 OK\r\n"));
  EXPECT_NE(text.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(text.ends_with("\r\n\r\nhello"));
}

TEST(HttpParse, ContentLength) {
  EXPECT_EQ(http_content_length("GET / HTTP/1.1\r\nHost: l\r\n\r\n").value(), 0u);
  EXPECT_EQ(http_content_length("POST / HTTP/1.1\r\ncOnTeNt-LeNgTh:  12 \r\n\r\n").value(),
            12u);
  EXPECT_EQ(http_content_length("HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n")
                .value(),
            1048576u);
  for (const char* bad : {"1048577", "18446744073709551615", "18446744073709551617",
                          "-1", "12abc", ""}) {
    const std::string head =
        std::string("GET / HTTP/1.1\r\nContent-Length: ") + bad + "\r\n\r\n";
    EXPECT_EQ(http_content_length(head).status().code(), StatusCode::kDataLoss) << bad;
  }
}

// ---- frontend over real sockets ------------------------------------------------------

class HttpFrontendTest : public ::testing::Test {
 protected:
  HttpFrontendTest()
      : log_([] {
          dataset::SyntheticLogConfig config;
          config.num_users = 20;
          config.total_queries = 1'500;
          config.vocab_size = 800;
          config.num_topics = 10;
          config.words_per_topic = 60;
          return dataset::generate_synthetic_log(config);
        }()),
        corpus_(log_, engine::CorpusConfig{.seed = 21, .num_documents = 800}),
        engine_(corpus_),
        authority_(to_bytes("http-root")),
        proxy_(&engine_, authority_, make_options()) {}

  static core::XSearchProxy::Options make_options() {
    core::XSearchProxy::Options options;
    options.k = 2;
    options.history_capacity = 5'000;
    return options;
  }

  std::string http_get(std::uint16_t port, const std::string& target,
                       int* status = nullptr) {
    auto stream = TcpStream::connect("127.0.0.1", port);
    EXPECT_TRUE(stream.is_ok());
    const std::string request = "GET " + target + " HTTP/1.1\r\nHost: l\r\n\r\n";
    EXPECT_TRUE(stream.value().write_all(to_bytes(request)).is_ok());
    auto body = read_http_response_body(stream.value(), status);
    EXPECT_TRUE(body.is_ok()) << body.status().to_string();
    return body.value_or("");
  }

  dataset::QueryLog log_;
  engine::Corpus corpus_;
  engine::SearchEngine engine_;
  sgx::AttestationAuthority authority_;
  core::XSearchProxy proxy_;
};

TEST_F(HttpFrontendTest, HealthCheck) {
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok()) << frontend.status().to_string();
  int status = 0;
  EXPECT_EQ(http_get(frontend.value()->port(), "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
  frontend.value()->stop();
}

TEST_F(HttpFrontendTest, SearchReturnsJson) {
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok());
  const std::string query = log_.records()[3].text;
  int status = 0;
  const std::string body = http_get(frontend.value()->port(),
                                    "/search?q=" + url_encode(query), &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"results\":["), std::string::npos);
  EXPECT_NE(body.find("\"title\""), std::string::npos);
  frontend.value()->stop();
}

TEST_F(HttpFrontendTest, MissingQueryIs400) {
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok());
  int status = 0;
  (void)http_get(frontend.value()->port(), "/search", &status);
  EXPECT_EQ(status, 400);
  frontend.value()->stop();
}

TEST_F(HttpFrontendTest, UnknownPathIs404) {
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok());
  int status = 0;
  (void)http_get(frontend.value()->port(), "/nope", &status);
  EXPECT_EQ(status, 404);
  frontend.value()->stop();
}

TEST_F(HttpFrontendTest, NonGetIs405) {
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok());
  auto stream = TcpStream::connect("127.0.0.1", frontend.value()->port());
  ASSERT_TRUE(stream.is_ok());
  ASSERT_TRUE(stream.value()
                  .write_all(to_bytes("POST /search HTTP/1.1\r\nHost: l\r\n"
                                      "Content-Length: 0\r\n\r\n"))
                  .is_ok());
  int status = 0;
  (void)read_http_response_body(stream.value(), &status);
  EXPECT_EQ(status, 405);
  frontend.value()->stop();
}

TEST_F(HttpFrontendTest, KeepAliveServesMultipleRequests) {
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok());
  auto stream = TcpStream::connect("127.0.0.1", frontend.value()->port());
  ASSERT_TRUE(stream.is_ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(stream.value()
                    .write_all(to_bytes("GET /healthz HTTP/1.1\r\nHost: l\r\n\r\n"))
                    .is_ok());
    int status = 0;
    const auto body = read_http_response_body(stream.value(), &status);
    ASSERT_TRUE(body.is_ok());
    EXPECT_EQ(status, 200);
  }
  frontend.value()->stop();
  EXPECT_GE(frontend.value()->metrics().value("http.requests"), 3u);
}

TEST_F(HttpFrontendTest, OverflowingContentLengthClosesWithoutReply) {
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok());
  auto stream = TcpStream::connect("127.0.0.1", frontend.value()->port());
  ASSERT_TRUE(stream.is_ok());
  // 2^64 + 1 wraps to 1 in a size_t: read that way, the 'X' would be the
  // body and the second GET a new request.
  ASSERT_TRUE(stream.value()
                  .write_all(to_bytes("GET /healthz HTTP/1.1\r\nHost: l\r\n"
                                      "Content-Length: 18446744073709551617\r\n\r\n"
                                      "XGET /healthz HTTP/1.1\r\nHost: l\r\n\r\n"))
                  .is_ok());
  const auto reply = stream.value().read_exact(1, Deadline::after(5 * kSecond));
  ASSERT_FALSE(reply.is_ok()) << "the server answered a wrapped length";
  EXPECT_NE(reply.status().code(), StatusCode::kDeadlineExceeded)
      << "the connection was left open instead of closed";
  frontend.value()->stop();
}

TEST_F(HttpFrontendTest, QueriesGoThroughObfuscation) {
  std::vector<std::string> observed;
  engine_.set_observer([&observed](std::string_view q) { observed.emplace_back(q); });
  auto frontend = HttpFrontend::start(proxy_, authority_);
  ASSERT_TRUE(frontend.is_ok());
  // Warm the proxy history through the HTTP path itself.
  for (std::size_t i = 0; i < 10; ++i) {
    (void)http_get(frontend.value()->port(),
                   "/search?q=" + url_encode(log_.records()[i].text));
  }
  observed.clear();
  const std::string secret = log_.records()[77].text;
  (void)http_get(frontend.value()->port(), "/search?q=" + url_encode(secret));
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_NE(observed[0], secret);
  EXPECT_NE(observed[0].find(" OR "), std::string::npos);
  frontend.value()->stop();
}

}  // namespace
}  // namespace xsearch::net
