// Property tests of the X-Search core invariants, swept over the (k,
// history size) parameter grid with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string_view>
#include <tuple>
#include <unordered_set>

#include "common/rng.hpp"
#include "engine/document.hpp"
#include "sgx/epc.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/history.hpp"
#include "xsearch/obfuscator.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

// ---- Obfuscator invariants over (k, warm size) -------------------------------

class ObfuscatorGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  std::size_t k() const { return std::get<0>(GetParam()); }
  std::size_t warm() const { return std::get<1>(GetParam()); }
};

TEST_P(ObfuscatorGrid, StructuralInvariants) {
  QueryHistory history(10'000);
  for (std::size_t i = 0; i < warm(); ++i) history.add("past " + std::to_string(i));
  Obfuscator obfuscator(history, k());
  Rng rng(k() * 31 + warm());

  for (int trial = 0; trial < 30; ++trial) {
    const std::string query = "real query " + std::to_string(trial);
    const auto obf = obfuscator.obfuscate(query, rng);

    // (1) The original survives verbatim.
    EXPECT_EQ(obf.original, query);
    // (2) Exactly min(k, available) fakes.
    EXPECT_EQ(obf.fakes.size(), std::min(k(), warm() + static_cast<std::size_t>(trial)));
    // (3) sub_queries = fakes + original, nothing more.
    EXPECT_EQ(obf.sub_queries.size(), obf.fakes.size() + 1);
    EXPECT_EQ(std::count(obf.sub_queries.begin(), obf.sub_queries.end(), query), 1);
    for (const auto& fake : obf.fakes) {
      EXPECT_NE(std::find(obf.sub_queries.begin(), obf.sub_queries.end(), fake),
                obf.sub_queries.end());
    }
    // (4) The OR string contains every sub-query.
    const std::string or_string = obf.to_query_string();
    for (const auto& sub : obf.sub_queries) {
      EXPECT_NE(or_string.find(sub), std::string::npos);
    }
    // (5) A query is never its own decoy.
    for (const auto& fake : obf.fakes) EXPECT_NE(fake, query);
  }
}

TEST_P(ObfuscatorGrid, HistoryNeverExceedsCapacity) {
  constexpr std::size_t kCapacity = 64;
  QueryHistory history(kCapacity);
  Obfuscator obfuscator(history, k());
  Rng rng(99);
  for (std::size_t i = 0; i < warm() + 200; ++i) {
    (void)obfuscator.obfuscate("q" + std::to_string(i), rng);
    EXPECT_LE(history.size(), kCapacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAndWarmth, ObfuscatorGrid,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 3, 7),
                       ::testing::Values<std::size_t>(0, 1, 5, 100)));

// ---- Filter invariants over k ----------------------------------------------------

class FilterGrid : public ::testing::TestWithParam<std::size_t> {};

engine::SearchResult result_about(const std::string& topic, unsigned index) {
  engine::SearchResult r;
  r.doc = index;
  r.title = topic + " article " + std::to_string(index);
  r.description = "all about " + topic + " and more " + topic;
  r.url = "https://site.example/" + std::to_string(index);
  return r;
}

TEST_P(FilterGrid, KeptSetIsSubsetAndOriginalBiased) {
  const std::size_t k = GetParam();
  std::vector<std::string> fakes;
  std::vector<engine::SearchResult> mixed;
  unsigned id = 0;
  for (std::size_t f = 0; f < k; ++f) {
    const std::string topic = "decoy" + std::to_string(f);
    fakes.push_back(topic + " words");
    mixed.push_back(result_about(topic, id++));
  }
  mixed.push_back(result_about("target", id++));
  mixed.push_back(result_about("target", id++));

  ResultFilter filter;
  const auto kept = filter.filter("target words", fakes, mixed);

  // Subset property: every kept result was in the input.
  std::unordered_set<unsigned> input_ids;
  for (const auto& r : mixed) input_ids.insert(r.doc);
  for (const auto& r : kept) EXPECT_TRUE(input_ids.contains(r.doc));

  // Both target results survive; every decoy-topic result is dropped.
  EXPECT_EQ(kept.size(), 2u);
  for (const auto& r : kept) {
    EXPECT_NE(r.title.find("target"), std::string::npos);
  }
}

TEST_P(FilterGrid, FilterIsIdempotent) {
  const std::size_t k = GetParam();
  std::vector<std::string> fakes;
  for (std::size_t f = 0; f < k; ++f) fakes.push_back("decoy" + std::to_string(f));
  std::vector<engine::SearchResult> results;
  for (unsigned i = 0; i < 10; ++i) results.push_back(result_about("mixed", i));

  ResultFilter filter;
  const auto once = filter.filter("mixed subject", fakes, results);
  const auto twice = filter.filter("mixed subject", fakes, once);
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(Ks, FilterGrid, ::testing::Values<std::size_t>(0, 1, 2, 5, 8));

// ---- History sampling distribution over window sizes ------------------------------

class HistoryGrid : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistoryGrid, SamplingIsApproximatelyUniform) {
  const std::size_t n = GetParam();
  QueryHistory history(n);
  for (std::size_t i = 0; i < n; ++i) history.add("q" + std::to_string(i));
  Rng rng(n);
  std::unordered_map<std::string, int> counts;
  const int trials = static_cast<int>(n) * 60;
  for (int t = 0; t < trials; ++t) {
    for (auto& q : history.sample(1, rng)) ++counts[q];
  }
  // Every entry sampled at least once; no entry dominates.
  EXPECT_EQ(counts.size(), n);
  for (const auto& [q, c] : counts) {
    EXPECT_GT(c, 0) << q;
    EXPECT_LT(c, trials / static_cast<int>(n) * 4) << q;
  }
}

TEST_P(HistoryGrid, SnapshotMatchesSizeAndOrder) {
  const std::size_t n = GetParam();
  QueryHistory history(n);
  for (std::size_t i = 0; i < n * 2; ++i) history.add("q" + std::to_string(i));
  const auto snap = history.snapshot();
  ASSERT_EQ(snap.size(), n);
  // Oldest surviving entry is q[n], newest is q[2n-1].
  EXPECT_EQ(snap.front(), "q" + std::to_string(n));
  EXPECT_EQ(snap.back(), "q" + std::to_string(2 * n - 1));
}

INSTANTIATE_TEST_SUITE_P(Windows, HistoryGrid,
                         ::testing::Values<std::size_t>(1, 2, 7, 32, 100));

// ---- Bulk insert against the one-at-a-time model ---------------------------------
//
// `add_all` must leave the window exactly as the same entries added one by
// one would: contents, order, size, charged bytes. Only the EPC's
// high-water mark and fault count may differ, and only when the batch
// evicts (one-at-a-time pays a release and a charge per evicted slot, the
// batch one of each); whenever the batch fits the window they match too.

class HistoryBulkModel : public ::testing::TestWithParam<int> {};

std::vector<std::string> random_queries(Rng& rng, std::size_t n) {
  std::vector<std::string> out(n);
  for (auto& q : out) {
    // Lengths straddle the small-string buffer, so slot sizes vary.
    q = "q" + std::to_string(rng.next() % 1000) + ":";
    q.append(rng.uniform(40), static_cast<char>('a' + rng.uniform(26)));
  }
  return out;
}

TEST_P(HistoryBulkModel, BatchMatchesOneAtATimeLoop) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t capacity = 1 + rng.uniform(48);
    // A small EPC limit so charges cross it and page faults are counted.
    const std::size_t limit = 256 + rng.uniform(4096);
    sgx::EpcAccountant bulk_epc(limit);
    sgx::EpcAccountant loop_epc(limit);
    QueryHistory bulk(capacity, &bulk_epc);
    QueryHistory loop(capacity, &loop_epc);

    // The same prefix through the same path: empty, partly full or full.
    for (const auto& q : random_queries(rng, rng.uniform(2 * capacity + 1))) {
      bulk.add(q);
      loop.add(q);
    }
    const std::size_t before = loop.size();

    // Growing, sliding or overflowing the window in one batch.
    const auto batch = random_queries(rng, rng.uniform(2 * capacity + 4));
    bulk.add_all(batch);
    for (const auto& q : batch) loop.add(q);

    SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                 " before=" + std::to_string(before) +
                 " batch=" + std::to_string(batch.size()));
    EXPECT_EQ(bulk.snapshot(), loop.snapshot());
    EXPECT_EQ(bulk.size(), loop.size());
    EXPECT_EQ(bulk.memory_bytes(), loop.memory_bytes());
    EXPECT_EQ(bulk_epc.in_use(), loop_epc.in_use());
    EXPECT_EQ(bulk_epc.in_use(), bulk.memory_bytes());
    if (before + batch.size() <= capacity) {
      EXPECT_EQ(bulk_epc.peak(), loop_epc.peak());
      EXPECT_EQ(bulk_epc.page_faults(), loop_epc.page_faults());
    }
  }
}

TEST_P(HistoryBulkModel, BatchSequenceTracksModelWindow) {
  // The window after any sequence of batches is the last `capacity`
  // entries ever inserted, oldest first, and sampling only ever draws
  // from it.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::size_t capacity = 1 + rng.uniform(32);
  sgx::EpcAccountant epc;
  QueryHistory history(capacity, &epc);
  std::vector<std::string> model;
  for (int step = 0; step < 30; ++step) {
    const auto batch = random_queries(rng, rng.uniform(capacity + capacity / 2 + 2));
    std::vector<std::string_view> views(batch.begin(), batch.end());
    history.add_all(views);
    model.insert(model.end(), batch.begin(), batch.end());
    if (model.size() > capacity) {
      model.erase(model.begin(), model.end() - static_cast<std::ptrdiff_t>(capacity));
    }
    ASSERT_EQ(history.snapshot(), model);
    ASSERT_EQ(epc.in_use(), history.memory_bytes());
    for (const auto& fake : history.sample(3, rng)) {
      EXPECT_NE(std::find(model.begin(), model.end(), fake), model.end());
    }
  }
}

// The chunked window against a sequential reference: every entry ever
// inserted in a vector, the window its last x, and sampling the same
// partial Fisher–Yates over logical positions (0 = oldest). Windows sit
// around and beyond one 1024-entry chunk (C = clamp(x / 64, 1, 1024) gives
// C = 15, 16, 16, 48 there) and at a 64-chunk window of 1024-entry chunks,
// under random interleavings of add, add_all, sample and snapshot with
// batches of C − 1, C, C + 1 and 3C + 7 entries, and of x ± 1.
struct WindowReference {
  std::size_t capacity;
  std::vector<std::string> inserted;

  void add_all(std::span<const std::string> batch) {
    if (batch.size() > capacity) batch = batch.last(capacity);
    inserted.insert(inserted.end(), batch.begin(), batch.end());
  }
  [[nodiscard]] std::span<const std::string> window() const {
    return std::span<const std::string>(inserted).last(std::min(capacity, inserted.size()));
  }
  [[nodiscard]] std::vector<std::string> sample(std::size_t k, Rng& rng,
                                                std::string_view exclude) const {
    const auto live = window();
    std::vector<std::string> out;
    if (k == 0 || live.empty()) return out;
    if (k >= live.size()) {
      for (const auto& entry : live) {
        if (entry != exclude) out.push_back(entry);
      }
      for (std::size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.uniform(i)]);
      return out;
    }
    std::vector<std::size_t> order(live.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = 0; i < live.size() && out.size() < k; ++i) {
      std::swap(order[i], order[i + rng.uniform(live.size() - i)]);
      if (live[order[i]] != exclude) out.push_back(live[order[i]]);
    }
    return out;
  }
};

void expect_window_matches(const QueryHistory& history, const WindowReference& model,
                           const sgx::EpcAccountant& epc) {
  ASSERT_EQ(history.size(), model.window().size());
  ASSERT_EQ(history.memory_bytes(), epc.in_use());
  ASSERT_GE(history.resident(), history.size());
  ASSERT_LE(history.resident(), history.capacity() + history.chunk_entries() - 1);
}

TEST_P(HistoryBulkModel, ChunkedWindowTracksSequentialReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863);
  std::vector<std::size_t> capacities = {1023, 1024, 1025, 3079};
  if (GetParam() <= 2) capacities.push_back(65'543);  // C = 1024
  for (const std::size_t capacity : capacities) {
    sgx::EpcAccountant epc;
    QueryHistory history(capacity, &epc);
    WindowReference model{capacity, {}};
    const std::size_t c = history.chunk_entries();
    ASSERT_EQ(c, std::clamp<std::size_t>(capacity / 64, 1, 1024));
    const std::size_t sizes[] = {c - 1, c, c + 1, 3 * c + 7, capacity - 1, capacity,
                                 capacity + 1};
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    for (int step = 0; step < 60; ++step) {
      switch (rng.uniform(4)) {
        case 0: {  // single adds
          const auto queries = random_queries(rng, 1 + rng.uniform(2 * c));
          for (const auto& q : queries) history.add(q);
          model.add_all(queries);
          break;
        }
        case 1: {  // one batch
          const std::size_t n = rng.uniform(3) == 0 ? rng.uniform(4 * c)
                                                    : sizes[rng.uniform(std::size(sizes))];
          const auto batch = random_queries(rng, n);
          history.add_all(batch);
          model.add_all(batch);
          break;
        }
        case 2: {  // samples: only the last x, the reference's exact draws
          const std::size_t k = std::vector<std::size_t>{1, 3, 7, c + 1}[rng.uniform(4)];
          const auto live = model.window();
          const std::string exclude =
              live.empty() || rng.uniform(2) == 0 ? std::string("-")
                                                  : live[rng.uniform(live.size())];
          const std::uint64_t seed = rng.next();
          Rng drawn(seed);
          Rng reference(seed);
          const auto fakes = history.sample(k, drawn, exclude);
          ASSERT_EQ(fakes, model.sample(k, reference, exclude));
          for (const auto& fake : fakes) {
            EXPECT_NE(fake, exclude);
            EXPECT_NE(std::find(live.begin(), live.end(), fake), live.end()) << fake;
          }
          break;
        }
        default: {  // whole-window readers, oldest first
          const auto live = model.window();
          ASSERT_TRUE(std::ranges::equal(history.snapshot(), live));
          break;
        }
      }
      expect_window_matches(history, model, epc);
    }
    ASSERT_TRUE(std::ranges::equal(history.snapshot(), model.window()));
  }
}

TEST(HistoryChunks, ColdStartSamplesTheOpenChunk) {
  // A 100k window has 1024-entry chunks; after k + 1 inserts every other
  // entry sits in the open chunk, and a sample must still find all k.
  for (const std::size_t k : {1, 3, 7}) {
    QueryHistory history(100'000);
    ASSERT_EQ(history.chunk_entries(), 1024u);
    for (std::size_t i = 0; i <= k; ++i) history.add("cold " + std::to_string(i));
    Rng rng(k);
    const std::string own = "cold " + std::to_string(k);
    const auto fakes = history.sample(k, rng, own);
    ASSERT_EQ(fakes.size(), k);
    for (const auto& fake : fakes) EXPECT_NE(fake, own);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryBulkModel, ::testing::Range(1, 9));

// ---- wire format round-trips over structured random inputs -------------------------

class WireGrid : public ::testing::TestWithParam<int> {};

std::vector<engine::SearchResult> random_results(Rng& rng, std::size_t max_count) {
  const auto rand_string = [&rng](std::size_t max_len) {
    std::string s;
    const std::size_t len = rng.uniform(max_len + 1);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    return s;
  };
  std::vector<engine::SearchResult> results(1 + rng.uniform(max_count));
  for (auto& r : results) {
    r.doc = static_cast<engine::DocId>(rng.next());
    r.title = rand_string(60);
    r.description = rand_string(200);
    r.url = rand_string(80);
    r.score = rng.normal(0, 100);
  }
  return results;
}

// One result in the list format, appended field by field through the
// put_* primitives.
void put_result_fields(Bytes& out, const engine::SearchResult& r) {
  wire::put_u32(out, r.doc);
  wire::put_string(out, r.title);
  wire::put_string(out, r.description);
  wire::put_string(out, r.url);
  wire::put_double(out, r.score);
}

TEST_P(WireGrid, ResultListRoundTripsForRandomContent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<engine::SearchResult> results;
  const std::size_t n = rng.uniform(20);
  for (std::size_t i = 0; i < n; ++i) {
    engine::SearchResult r;
    r.doc = static_cast<engine::DocId>(rng.next());
    const auto rand_string = [&rng](std::size_t max_len) {
      std::string s;
      const std::size_t len = rng.uniform(max_len + 1);
      for (std::size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
      }
      return s;
    };
    r.title = rand_string(60);
    r.description = rand_string(200);
    r.url = rand_string(80);
    r.score = rng.normal(0, 100);
    results.push_back(std::move(r));
  }
  const Bytes encoded = wire::serialize_results(results);
  const auto parsed = wire::parse_results(encoded);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value(), results);

  // The cursor encoders write exactly what the field-by-field put_*
  // encoding appends: the list, and a results item over a random subset
  // in a random order.
  Bytes expected;
  wire::put_u32(expected, static_cast<std::uint32_t>(results.size()));
  for (const auto& r : results) put_result_fields(expected, r);
  EXPECT_EQ(encoded, expected);

  std::vector<engine::ResultView> views;
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < results.size(); ++i) {
    views.push_back(engine::view_of(results[i]));
    if (rng.uniform(3) != 0) kept.push_back(i);
  }
  std::shuffle(kept.begin(), kept.end(), rng);
  Bytes item;
  wire::begin_results_batch(item, 1);
  wire::put_results_item(item, views, kept, /*spare=*/16);
  Bytes expected_item;
  expected_item.push_back(static_cast<std::uint8_t>(wire::ClientMessageType::kResultsBatch));
  wire::put_u32(expected_item, 1);
  expected_item.push_back(1);
  wire::put_u32(expected_item, static_cast<std::uint32_t>(kept.size()));
  for (const std::size_t i : kept) put_result_fields(expected_item, results[i]);
  EXPECT_EQ(item, expected_item);
  EXPECT_GE(item.capacity(), item.size() + 16);
  const auto message = wire::parse_client_message(item);
  ASSERT_TRUE(message.is_ok()) << message.status().to_string();
  ASSERT_EQ(message.value().batch.size(), 1u);
  ASSERT_EQ(message.value().batch[0].results.size(), kept.size());
  for (std::size_t j = 0; j < kept.size(); ++j) {
    EXPECT_EQ(message.value().batch[0].results[j], results[kept[j]]);
  }
}

TEST_P(WireGrid, TruncationNeverCrashesParser) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) ^ 0x771);
  std::vector<engine::SearchResult> results(3);
  results[0].title = "alpha";
  results[1].description = "beta";
  results[2].url = "gamma";
  const Bytes raw = wire::serialize_results(results);
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    // Every strict prefix must be cleanly rejected (totality).
    EXPECT_FALSE(wire::parse_results(ByteSpan(raw.data(), cut)).is_ok()) << cut;
  }
}

// Views must agree with the owning parser field for field and point into
// the buffer they were parsed from.
TEST_P(WireGrid, ResultViewsRoundTripFieldForField) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) ^ 0x5eed);
  const std::vector<engine::SearchResult> results = random_results(rng, 30);
  const Bytes raw = wire::serialize_results(results);
  const auto views = wire::parse_result_views(raw);
  ASSERT_TRUE(views.is_ok()) << views.status().to_string();
  ASSERT_EQ(views.value().size(), results.size());
  const auto* begin = reinterpret_cast<const char*>(raw.data());
  const auto* end = begin + raw.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const engine::ResultView& v = views.value()[i];
    EXPECT_EQ(v.doc, results[i].doc);
    EXPECT_EQ(v.title, results[i].title);
    EXPECT_EQ(v.description, results[i].description);
    EXPECT_EQ(v.url, results[i].url);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.score),
              std::bit_cast<std::uint64_t>(results[i].score));
    for (const std::string_view field : {v.title, v.description, v.url}) {
      EXPECT_TRUE(field.data() >= begin && field.data() + field.size() <= end);
    }
  }
}

TEST_P(WireGrid, ResultViewParserRefusesEveryTruncationAndATrailingByte) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) ^ 0x7a11);
  const Bytes raw = wire::serialize_results(random_results(rng, 6));
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    EXPECT_FALSE(wire::parse_result_views(ByteSpan(raw.data(), cut)).is_ok()) << cut;
  }
  Bytes trailing = raw;
  trailing.push_back(0);
  EXPECT_FALSE(wire::parse_result_views(trailing).is_ok());
}

// Seeded byte mutations of a valid list: the parser either refuses the
// bytes or returns views that lie inside them, and it agrees with the
// owning parser. Each input sits in an exactly sized heap block, so an
// out-of-bounds read fails the sanitizer builds.
TEST_P(WireGrid, ResultViewParserStaysInBoundsUnderByteMutations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) ^ 0xb17e);
  const Bytes raw = wire::serialize_results(random_results(rng, 8));
  constexpr std::size_t kMutations = 10'000 / 8;  // 10k across the 8 seeds
  for (std::size_t m = 0; m < kMutations; ++m) {
    Bytes mutated = raw;
    const std::size_t flips = 1 + rng.uniform(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] = static_cast<std::uint8_t>(rng.uniform(256));
    }
    const std::size_t size = rng.uniform(mutated.size() + 1);
    const auto block = std::make_unique<std::uint8_t[]>(size);
    std::copy_n(mutated.begin(), size, block.get());
    const ByteSpan input(block.get(), size);

    const auto views = wire::parse_result_views(input);
    const auto owned = wire::parse_results(input);
    ASSERT_EQ(views.is_ok(), owned.is_ok()) << "mutation " << m;
    if (!views.is_ok()) continue;
    const auto* begin = reinterpret_cast<const char*>(block.get());
    ASSERT_EQ(views.value().size(), owned.value().size());
    for (std::size_t i = 0; i < views.value().size(); ++i) {
      const engine::ResultView& v = views.value()[i];
      for (const std::string_view field : {v.title, v.description, v.url}) {
        ASSERT_TRUE(field.empty() ||
                    (field.data() >= begin && field.data() + field.size() <= begin + size));
      }
      EXPECT_EQ(v.title, owned.value()[i].title);
      EXPECT_EQ(v.url, owned.value()[i].url);
    }
  }
}

// The handshake reply the enclave writes, the host relays and the client
// reads: one encoder, one parser, exact length.
TEST_P(WireGrid, HandshakeResponseRoundTripsAndRefusesTruncationAndATrailingByte) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) ^ 0x4e110);
  wire::HandshakeResponse response;
  response.session_id = rng.next();
  for (auto& b : response.quote.measurement) b = static_cast<std::uint8_t>(rng.next());
  response.quote.report_data.resize(rng.uniform(64));
  for (auto& b : response.quote.report_data) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : response.quote.mac) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : response.server_ephemeral_pub) b = static_cast<std::uint8_t>(rng.next());

  const Bytes raw = wire::serialize_handshake_response(response);
  const auto parsed = wire::parse_handshake_response(raw);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().session_id, response.session_id);
  EXPECT_EQ(parsed.value().quote.serialize(), response.quote.serialize());
  EXPECT_EQ(parsed.value().server_ephemeral_pub, response.server_ephemeral_pub);

  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    EXPECT_FALSE(wire::parse_handshake_response(ByteSpan(raw.data(), cut)).is_ok()) << cut;
  }
  Bytes trailing = raw;
  trailing.push_back(0);
  const auto refused = wire::parse_handshake_response(trailing);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireGrid, ::testing::Range(1, 9));

}  // namespace
}  // namespace xsearch::core
