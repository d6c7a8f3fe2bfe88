#include "xsearch/filter.hpp"

#include <gtest/gtest.h>

#include "engine/analytics.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

engine::SearchResult make_result(std::string title, std::string description,
                                 std::string url = "https://x.example/") {
  engine::SearchResult r;
  r.title = std::move(title);
  r.description = std::move(description);
  r.url = std::move(url);
  return r;
}

TEST(ResultFilter, KeepsResultsMatchingOriginal) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("pasta recipes tonight", "pasta sauce tomato"),
      make_result("web privacy tools", "private web search tools"),
  };
  const auto kept = filter.filter("private web search", {"pasta recipes"}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].title, "web privacy tools");
}

TEST(ResultFilter, DropsResultsMatchingFakesBetter) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("pasta recipes tonight", "pasta sauce tomato recipes"),
  };
  const auto kept = filter.filter("quantum physics", {"pasta recipes"}, results);
  EXPECT_TRUE(kept.empty());
}

TEST(ResultFilter, TieGoesToOriginal) {
  // Algorithm 2 keeps a result when score[original] equals the max.
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("shared word here", "nothing else"),
  };
  const auto kept = filter.filter("shared alpha", {"shared beta"}, results);
  ASSERT_EQ(kept.size(), 1u);
}

TEST(ResultFilter, NoFakesKeepsEverything) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("anything at all", "whatever"),
      make_result("something else", "entirely"),
  };
  EXPECT_EQ(filter.filter("query", {}, results).size(), 2u);
}

TEST(ResultFilter, EmptyResults) {
  ResultFilter filter;
  EXPECT_TRUE(filter.filter("query", {"fake"}, {}).empty());
}

TEST(ResultFilter, ScoresUseTitleAndDescription) {
  ResultFilter filter;
  // Original matches the title once; fake matches the description twice.
  std::vector<engine::SearchResult> results = {
      make_result("original topic", "fake subject matter fake words subject matter"),
  };
  const auto kept = filter.filter("original", {"fake subject matter"}, results);
  EXPECT_TRUE(kept.empty());  // fake scores 3 (fake+subject+matter), original 1
}

TEST(ResultFilter, StripsTrackingUrls) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("match query words", "query words",
                  engine::make_tracking_url("https://real.example/page", 7)),
  };
  const auto kept = filter.filter("query words", {}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].url, "https://real.example/page");
}

TEST(ResultFilter, StripTrackingLeavesCleanUrls) {
  std::vector<engine::SearchResult> results = {
      make_result("t", "d", "https://already-clean.example/")};
  ResultFilter::strip_tracking(results);
  EXPECT_EQ(results[0].url, "https://already-clean.example/");
}

TEST(ResultFilter, CosineVariantWorks) {
  ResultFilter filter(FilterScoring::kCosine);
  std::vector<engine::SearchResult> results = {
      make_result("private web search guide", "private web search explained"),
      make_result("pasta cooking guide", "pasta recipes explained"),
  };
  const auto kept = filter.filter("private web search", {"pasta cooking"}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].title, "private web search guide");
}

// ---- wire formats ---------------------------------------------------------------

TEST(Wire, ResultsRoundTrip) {
  std::vector<engine::SearchResult> results = {
      make_result("title one", "desc one", "https://one.example/"),
      make_result("title two", "desc two", "https://two.example/"),
  };
  results[0].doc = 17;
  results[0].score = 3.14;
  const auto parsed = wire::parse_results(wire::serialize_results(results));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value(), results);
}

TEST(Wire, EmptyResultsRoundTrip) {
  const auto parsed = wire::parse_results(wire::serialize_results({}));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(Wire, ParseResultsRejectsTruncation) {
  const Bytes raw = wire::serialize_results({make_result("t", "d")});
  for (const std::size_t cut : {1u, 5u, 10u}) {
    if (cut < raw.size()) {
      EXPECT_FALSE(wire::parse_results(ByteSpan(raw.data(), raw.size() - cut)).is_ok());
    }
  }
}

TEST(Wire, ParseResultsRejectsTrailingGarbage) {
  Bytes raw = wire::serialize_results({});
  raw.push_back(0xff);
  EXPECT_FALSE(wire::parse_results(raw).is_ok());
}

// A hostile engine's 8-byte reply claiming 65,535 results must be refused
// before the parser reserves room for them: each result takes at least
// kMinResultBytes on the wire, and none follow.
TEST(Wire, ResultCountBeyondRemainingBytesIsDataLoss) {
  Bytes raw;
  wire::put_u32(raw, 65'535);
  wire::put_u32(raw, 0);
  ASSERT_EQ(raw.size(), 8u);
  const auto owned = wire::parse_results(raw);
  ASSERT_FALSE(owned.is_ok());
  EXPECT_EQ(owned.status().code(), StatusCode::kDataLoss);
  const auto views = wire::parse_result_views(raw);
  ASSERT_FALSE(views.is_ok());
  EXPECT_EQ(views.status().code(), StatusCode::kDataLoss);

  // The bound is exact: one minimal result fits in kMinResultBytes.
  Bytes minimal = wire::serialize_results({engine::SearchResult{}});
  ASSERT_EQ(minimal.size(), 4 + wire::kMinResultBytes);
  EXPECT_TRUE(wire::parse_result_views(minimal).is_ok());
  store_be32(minimal.data(), 2);
  EXPECT_EQ(wire::parse_result_views(minimal).status().code(), StatusCode::kDataLoss);
}

TEST(Wire, EngineRequestRoundTrip) {
  wire::EngineRequest req;
  req.sub_queries = {"alpha", "beta gamma", "delta"};
  req.top_k_each = 17;
  const auto parsed = wire::parse_engine_request(wire::serialize_engine_request(req));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().sub_queries, req.sub_queries);
  EXPECT_EQ(parsed.value().top_k_each, 17u);
}

// Tags 1-3 once carried single-query/results/error messages. A search is a
// batch of one now, so the retired tags must parse as unknown, whatever
// payload follows them.
TEST(Wire, RetiredSingleQueryTagsAreRejected) {
  Bytes query{1};
  wire::put_string(query, "my secret query");
  Bytes results{2};
  append(results, wire::serialize_results({make_result("t", "d", "u")}));
  Bytes error{3};
  wire::put_string(error, "engine down");
  for (const Bytes& retired : {query, results, error}) {
    const auto parsed = wire::parse_client_message(retired);
    ASSERT_FALSE(parsed.is_ok()) << "tag " << static_cast<int>(retired[0]);
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(parsed.status().message().find("unknown client message type"),
              std::string::npos);
  }
}

TEST(Wire, ClientMessageRejectsEmpty) {
  EXPECT_FALSE(wire::parse_client_message({}).is_ok());
}

TEST(Wire, ClientMessageRejectsUnknownTag) {
  EXPECT_FALSE(wire::parse_client_message(Bytes{99, 0, 0, 0, 0}).is_ok());
}

TEST(Wire, PrimitivesRejectTruncation) {
  Bytes buf;
  wire::put_u32(buf, 7);
  std::size_t offset = 2;
  EXPECT_FALSE(wire::get_u32(ByteSpan(buf.data(), 3), offset).is_ok());
  offset = 0;
  EXPECT_FALSE(wire::get_u64(ByteSpan(buf.data(), 4), offset).is_ok());
}

TEST(Wire, WriteStringMatchesPutStringAndReadsBackAsView) {
  Bytes put;
  for (const std::string_view s : {"", "q", "a query of some length"}) wire::put_string(put, s);
  Bytes written(put.size());
  std::uint8_t* cursor = written.data();
  for (const std::string_view s : {"", "q", "a query of some length"}) {
    cursor = wire::write_string(cursor, s);
  }
  EXPECT_EQ(cursor, written.data() + written.size());
  EXPECT_EQ(written, put);

  std::size_t offset = 0;
  EXPECT_EQ(wire::get_view(written, offset).value(), "");
  EXPECT_EQ(wire::get_view(written, offset).value(), "q");
  const auto last = wire::get_view(written, offset);
  ASSERT_TRUE(last.is_ok());
  EXPECT_EQ(last.value(), "a query of some length");
  EXPECT_EQ(last.value().data(), reinterpret_cast<const char*>(written.data()) + 13);
  offset = 9;  // the last string's length word: one byte short is refused
  EXPECT_FALSE(wire::get_view(ByteSpan(written).first(written.size() - 1), offset).is_ok());
}

TEST(Wire, DoubleRoundTrip) {
  Bytes buf;
  wire::put_double(buf, -123.456e-7);
  std::size_t offset = 0;
  const auto v = wire::get_double(buf, offset);
  ASSERT_TRUE(v.is_ok());
  EXPECT_DOUBLE_EQ(v.value(), -123.456e-7);
}

}  // namespace
}  // namespace xsearch::core
