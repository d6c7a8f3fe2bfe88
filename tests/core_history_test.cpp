#include "xsearch/history.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>

#include "sgx/epc.hpp"
#include "xsearch/obfuscator.hpp"

namespace xsearch::core {
namespace {

TEST(QueryHistory, StartsEmpty) {
  QueryHistory h(10);
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.capacity(), 10u);
}

TEST(QueryHistory, AddGrowsUntilCapacity) {
  QueryHistory h(3);
  h.add("a");
  h.add("b");
  EXPECT_EQ(h.size(), 2u);
  h.add("c");
  h.add("d");
  EXPECT_EQ(h.size(), 3u);  // sliding window
}

TEST(QueryHistory, EvictsOldest) {
  QueryHistory h(2);
  h.add("first");
  h.add("second");
  h.add("third");  // evicts "first"
  Rng rng(1);
  const auto all = h.sample(2, rng);
  std::unordered_set<std::string> set(all.begin(), all.end());
  EXPECT_FALSE(set.contains("first"));
  EXPECT_TRUE(set.contains("second"));
  EXPECT_TRUE(set.contains("third"));
}

TEST(QueryHistory, SampleEmptyReturnsNothing) {
  QueryHistory h(5);
  Rng rng(1);
  EXPECT_TRUE(h.sample(3, rng).empty());
}

TEST(QueryHistory, SampleFewerWhenSmall) {
  QueryHistory h(10);
  h.add("only");
  Rng rng(1);
  EXPECT_EQ(h.sample(5, rng).size(), 1u);
}

TEST(QueryHistory, SampleDistinctPositions) {
  QueryHistory h(100);
  for (int i = 0; i < 100; ++i) h.add("q" + std::to_string(i));
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s = h.sample(5, rng);
    std::unordered_set<std::string> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 5u);  // distinct entries are distinct strings here
  }
}

TEST(QueryHistory, SampleNearWindowSizeStaysDistinctAndFast) {
  // k close to count was the rejection sampler's pathological regime
  // (O(k·count)); the partial Fisher–Yates must stay O(k) and distinct.
  constexpr std::size_t kCount = 2000;
  QueryHistory h(kCount);
  for (std::size_t i = 0; i < kCount; ++i) h.add("q" + std::to_string(i));
  Rng rng(11);
  for (const std::size_t k : {kCount - 1, kCount / 2 + 1, kCount - 100}) {
    const auto s = h.sample(k, rng);
    ASSERT_EQ(s.size(), k);
    const std::unordered_set<std::string> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), k);  // inputs distinct, so positions were distinct
  }
}

TEST(QueryHistory, SampleCoversWholeWindow) {
  QueryHistory h(20);
  for (int i = 0; i < 20; ++i) h.add("q" + std::to_string(i));
  Rng rng(3);
  std::unordered_set<std::string> seen;
  for (int trial = 0; trial < 300; ++trial) {
    for (auto& q : h.sample(3, rng)) seen.insert(std::move(q));
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(QueryHistory, MemoryMeteredAgainstEpc) {
  sgx::EpcAccountant epc(1 << 20);
  {
    QueryHistory h(100, &epc);
    EXPECT_EQ(epc.in_use(), 0u);  // accounting grows with contents
    h.add("some query text here");
    EXPECT_GE(epc.in_use(), sizeof(std::string) + 20);
  }
  EXPECT_EQ(epc.in_use(), 0u);  // destructor releases everything
}

TEST(QueryHistory, MemoryStableAtCapacity) {
  sgx::EpcAccountant epc(1 << 22);
  QueryHistory h(50, &epc);
  for (int i = 0; i < 50; ++i) h.add("query text of roughly stable size 00");
  const std::size_t at_capacity = epc.in_use();
  for (int i = 0; i < 500; ++i) h.add("query text of roughly stable size 11");
  // Window is full: usage stays flat (same-sized entries replace old ones).
  EXPECT_EQ(epc.in_use(), at_capacity);
}

TEST(QueryHistory, MemoryBytesMatchesEpcCharge) {
  sgx::EpcAccountant epc(1 << 22);
  QueryHistory h(10, &epc);
  h.add("alpha");
  h.add("beta");
  EXPECT_EQ(h.memory_bytes(), epc.in_use());
}

TEST(QueryHistory, ConcurrentAddAndSample) {
  QueryHistory h(1000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        h.add("thread " + std::to_string(t) + " query " + std::to_string(i));
        (void)h.sample(3, rng);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.size(), 1000u);
}

TEST(QueryHistory, ConcurrentBatchesSamplesAndReaders) {
  // Batch loads, single adds, samples and whole-window readers (the
  // checkpoint seal's path) on one history: each reader sees a consistent
  // window, oldest first, and the accounting ends exact.
  sgx::EpcAccountant epc;
  QueryHistory h(500, &epc);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&h, t] {
      for (int round = 0; round < 40; ++round) {
        std::vector<std::string> batch;
        for (int i = 0; i < 60; ++i) {
          batch.push_back("t" + std::to_string(t) + " r" + std::to_string(round) +
                          " q" + std::to_string(i));
        }
        h.add_all(batch);
        h.add("single " + std::to_string(t));
      }
    });
  }
  threads.emplace_back([&h] {
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) (void)h.sample(3, rng);
  });
  threads.emplace_back([&h] {
    for (int i = 0; i < 200; ++i) {
      // Oldest first: each writer's batch entries appear in the order it
      // inserted them (numbered round * 100 + position).
      const std::size_t seen = h.with_entries([](const QueryHistory::Entries& entries) {
        int last[2] = {-1, -1};
        entries.for_each([&last](std::string_view entry) {
          const std::string q(entry);
          int t = 0, round = 0, i = 0;
          if (std::sscanf(q.c_str(), "t%d r%d q%d", &t, &round, &i) != 3) return;
          EXPECT_GT(round * 100 + i, last[t]) << q;
          last[t] = round * 100 + i;
        });
        return entries.size();
      });
      EXPECT_LE(seen, 500u);
      EXPECT_LE(h.snapshot().size(), 500u);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.size(), 500u);
  EXPECT_EQ(h.memory_bytes(), epc.in_use());
}

TEST(QueryHistory, SnapshotRefreshRacesEvictionSafely) {
  // A 256-entry window has 4-entry chunks, so the writer opens one chunk
  // and drops another every 4 inserts while samplers refresh their
  // snapshots and whole-window readers walk the chunks. Entry i is "e<i>".
  // Every draw must be an entry that was in the last x at some point during
  // its call, every reader sees consecutive entries oldest first, and the
  // accounting ends exact once the samplers' snapshots are gone.
  constexpr std::size_t kWindow = 256;
  constexpr std::uint64_t kEntries = 30'000;
  sgx::EpcAccountant epc;
  QueryHistory h(kWindow, &epc);
  ASSERT_EQ(h.chunk_entries(), 4u);
  const auto number = [](std::string_view entry) {
    return std::stoull(std::string(entry.substr(1)));
  };
  std::atomic<std::uint64_t> started{0};   // entries whose insert began
  std::atomic<std::uint64_t> inserted{0};  // entries whose insert returned
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Rng rng(5);
    std::vector<std::string> batch;
    for (std::uint64_t next = 0; next < kEntries;) {
      const std::uint64_t count = std::min<std::uint64_t>(1 + rng.uniform(9), kEntries - next);
      batch.clear();
      for (std::uint64_t i = 0; i < count; ++i) batch.push_back("e" + std::to_string(next + i));
      started.store(next + count);
      if (count == 1) {
        h.add(batch.front());
      } else {
        h.add_all(batch);
      }
      next += count;
      inserted.store(next);
    }
  });
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 11);
      while (inserted.load() < kEntries) {
        const std::uint64_t floor = inserted.load();
        const auto fakes = h.sample(5, rng);
        const std::uint64_t ceiling = started.load();
        for (const auto& fake : fakes) {
          const std::uint64_t n = number(fake);
          ASSERT_LT(n, ceiling) << fake;
          ASSERT_GE(n + kWindow, floor) << fake;
        }
        if (t == 0 && rng.uniform(16) == 0) {
          h.with_entries([&](const QueryHistory::Entries& entries) {
            std::uint64_t expected = 0;
            bool first = true;
            entries.for_each([&](std::string_view entry) {
              const std::uint64_t n = number(entry);
              if (!first) EXPECT_EQ(n, expected) << entry;
              first = false;
              expected = n + 1;
            });
            EXPECT_LE(entries.size(), kWindow);
          });
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.size(), kWindow);
  EXPECT_LE(h.resident(), kWindow + h.chunk_entries() - 1);
  EXPECT_EQ(h.memory_bytes(), epc.in_use());
  const auto window = h.snapshot();
  EXPECT_EQ(window.front(), "e" + std::to_string(kEntries - kWindow));
  EXPECT_EQ(window.back(), "e" + std::to_string(kEntries - 1));
}

TEST(QueryHistoryDeathTest, ZeroCapacityAbortsInEveryBuild) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(QueryHistory(0), "at least one entry");
}

// ---- Obfuscator (Algorithm 1) --------------------------------------------------

TEST(Obfuscator, ColdStartHasNoFakes) {
  QueryHistory h(10);
  Obfuscator obf(h, 3);
  Rng rng(1);
  const auto q = obf.obfuscate("first ever query", rng);
  EXPECT_EQ(q.original, "first ever query");
  EXPECT_TRUE(q.fakes.empty());
  EXPECT_EQ(q.sub_queries.size(), 1u);
}

TEST(Obfuscator, ProducesKFakesWhenWarm) {
  QueryHistory h(100);
  for (int i = 0; i < 50; ++i) h.add("past " + std::to_string(i));
  Obfuscator obf(h, 3);
  Rng rng(1);
  const auto q = obf.obfuscate("real query", rng);
  EXPECT_EQ(q.fakes.size(), 3u);
  EXPECT_EQ(q.sub_queries.size(), 4u);
}

TEST(Obfuscator, OriginalAlwaysPresent) {
  QueryHistory h(100);
  for (int i = 0; i < 50; ++i) h.add("past " + std::to_string(i));
  Obfuscator obf(h, 5);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto q = obf.obfuscate("needle " + std::to_string(i), rng);
    EXPECT_NE(std::find(q.sub_queries.begin(), q.sub_queries.end(), q.original),
              q.sub_queries.end());
  }
}

TEST(Obfuscator, OriginalPositionIsUniform) {
  QueryHistory h(100);
  for (int i = 0; i < 100; ++i) h.add("past " + std::to_string(i));
  Obfuscator obf(h, 3);
  Rng rng(3);
  int position_counts[4] = {};
  constexpr int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    // A unique needle each trial: prior needles live in the history and
    // could otherwise be drawn as decoys for later trials.
    const std::string needle = "needle-" + std::to_string(i);
    const auto q = obf.obfuscate(needle, rng);
    ASSERT_EQ(q.sub_queries.size(), 4u);
    for (std::size_t p = 0; p < q.sub_queries.size(); ++p) {
      if (q.sub_queries[p] == needle) {
        ++position_counts[p];
        break;
      }
    }
  }
  for (const int c : position_counts) {
    EXPECT_NEAR(c, kTrials / 4, kTrials / 4 * 0.2);
  }
}

TEST(Obfuscator, FakesComeFromHistory) {
  QueryHistory h(100);
  std::unordered_set<std::string> past;
  for (int i = 0; i < 30; ++i) {
    const std::string q = "past " + std::to_string(i);
    h.add(q);
    past.insert(q);
  }
  Obfuscator obf(h, 4);
  Rng rng(4);
  const auto q = obf.obfuscate("fresh query", rng);
  for (const auto& fake : q.fakes) EXPECT_TRUE(past.contains(fake)) << fake;
}

TEST(Obfuscator, StoresOriginalInHistory) {
  QueryHistory h(10);
  Obfuscator obf(h, 2);
  Rng rng(5);
  (void)obf.obfuscate("remember me", rng);
  EXPECT_EQ(h.size(), 1u);
  // The stored query becomes a candidate fake for the *next* request.
  const auto next = obf.obfuscate("another", rng);
  ASSERT_EQ(next.fakes.size(), 1u);
  EXPECT_EQ(next.fakes[0], "remember me");
}

TEST(Obfuscator, QueryNeverItsOwnDecoy) {
  QueryHistory h(10);
  Obfuscator obf(h, 5);
  Rng rng(6);
  const auto q = obf.obfuscate("unique-snowflake", rng);
  for (const auto& fake : q.fakes) EXPECT_NE(fake, "unique-snowflake");

  // A repeated query is already in the window: its earlier copies must not
  // be drawn as decoys either, whether the window holds more entries than
  // k (partial shuffle) or fewer (everything is returned).
  for (const std::size_t others : {std::size_t{20}, std::size_t{2}}) {
    QueryHistory repeated(100);
    for (int i = 0; i < 10; ++i) repeated.add("repeated query");
    for (std::size_t i = 0; i < others; ++i) repeated.add("other " + std::to_string(i));
    Obfuscator again(repeated, 5);
    for (int trial = 0; trial < 50; ++trial) {
      const auto r = again.obfuscate("repeated query", rng);
      EXPECT_EQ(r.fakes.size(), std::min<std::size_t>(5, others));
      EXPECT_EQ(std::count(r.sub_queries.begin(), r.sub_queries.end(), "repeated query"), 1);
    }
  }
}

TEST(Obfuscator, ToQueryStringJoinsWithOr) {
  ObfuscatedQuery q;
  q.sub_queries = {"alpha", "beta gamma", "delta"};
  EXPECT_EQ(q.to_query_string(), "alpha OR beta gamma OR delta");
}

TEST(Obfuscator, KZeroIsUnlinkabilityOnly) {
  QueryHistory h(10);
  h.add("noise");
  Obfuscator obf(h, 0);
  Rng rng(7);
  const auto q = obf.obfuscate("plain", rng);
  EXPECT_TRUE(q.fakes.empty());
  EXPECT_EQ(q.to_query_string(), "plain");
}

}  // namespace
}  // namespace xsearch::core
