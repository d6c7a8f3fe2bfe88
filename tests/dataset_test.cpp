#include <gtest/gtest.h>

#include <unordered_set>

#include "dataset/query_log.hpp"
#include "dataset/synthetic.hpp"
#include "text/tokenizer.hpp"

namespace xsearch::dataset {
namespace {

QueryLog small_log() {
  return QueryLog({{1, 10, "alpha"},
                   {2, 5, "beta"},
                   {1, 20, "gamma"},
                   {3, 15, "delta"},
                   {1, 30, "epsilon"}});
}

TEST(QueryLog, SortsByTimestamp) {
  const QueryLog log = small_log();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log.records().front().text, "beta");
  EXPECT_EQ(log.records().back().text, "epsilon");
}

TEST(QueryLog, UsersSorted) {
  EXPECT_EQ(small_log().users(), (std::vector<UserId>{1, 2, 3}));
}

TEST(QueryLog, UserQueryCount) {
  const QueryLog log = small_log();
  EXPECT_EQ(log.user_query_count(1), 3u);
  EXPECT_EQ(log.user_query_count(2), 1u);
  EXPECT_EQ(log.user_query_count(99), 0u);
}

TEST(QueryLog, QueriesOfUserInTimeOrder) {
  EXPECT_EQ(small_log().queries_of(1),
            (std::vector<std::string>{"alpha", "gamma", "epsilon"}));
}

TEST(QueryLog, AppendKeepsOrder) {
  QueryLog log = small_log();
  log.append({4, 1, "first"});
  EXPECT_EQ(log.records().front().text, "first");
  log.append({4, 100, "last"});
  EXPECT_EQ(log.records().back().text, "last");
}

TEST(QueryLog, MostActiveUsers) {
  const QueryLog log = small_log();
  const auto top = log.most_active_users(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);  // 3 queries
}

TEST(QueryLog, MostActiveUsersDeterministicTieBreak) {
  const QueryLog log = small_log();
  const auto top = log.most_active_users(3);
  EXPECT_EQ(top, (std::vector<UserId>{1, 2, 3}));  // ties by id
}

TEST(QueryLog, FilterUsers) {
  const QueryLog filtered = small_log().filter_users({1, 3});
  EXPECT_EQ(filtered.size(), 4u);
  EXPECT_EQ(filtered.users(), (std::vector<UserId>{1, 3}));
}

TEST(QueryLog, SplitPerUserFractions) {
  std::vector<QueryRecord> records;
  for (int i = 0; i < 9; ++i) {
    records.push_back({1, i, "q" + std::to_string(i)});
  }
  const auto split = split_per_user(QueryLog(std::move(records)), 2.0 / 3.0);
  EXPECT_EQ(split.train.size(), 6u);
  EXPECT_EQ(split.test.size(), 3u);
  // Training queries strictly precede test queries in time.
  EXPECT_EQ(split.train.records().back().text, "q5");
  EXPECT_EQ(split.test.records().front().text, "q6");
}

TEST(QueryLog, SplitHandlesTinyUsers) {
  const auto split = split_per_user(QueryLog({{1, 0, "only"}}), 2.0 / 3.0);
  EXPECT_EQ(split.train.size(), 0u);
  EXPECT_EQ(split.test.size(), 1u);
}

// ---- synthetic generator ----------------------------------------------------

SyntheticLogConfig tiny_config() {
  SyntheticLogConfig config;
  config.num_users = 50;
  config.total_queries = 5000;
  config.vocab_size = 2000;
  config.num_topics = 20;
  config.words_per_topic = 100;
  return config;
}

TEST(Synthetic, GeneratesRequestedSize) {
  const QueryLog log = generate_synthetic_log(tiny_config());
  EXPECT_EQ(log.size(), 5000u);
}

TEST(Synthetic, DeterministicInSeed) {
  const QueryLog a = generate_synthetic_log(tiny_config());
  const QueryLog b = generate_synthetic_log(tiny_config());
  EXPECT_EQ(a.records(), b.records());
}

TEST(Synthetic, DifferentSeedsDiffer) {
  auto config = tiny_config();
  const QueryLog a = generate_synthetic_log(config);
  config.seed ^= 0xdead;
  const QueryLog b = generate_synthetic_log(config);
  EXPECT_NE(a.records(), b.records());
}

// The generator's config contract holds in every build: each of the seven
// checks aborts with its own message instead of sampling from an empty
// range.
TEST(SyntheticDeathTest, InvalidConfigAbortsInEveryBuild) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto breaks = [](auto mutate) {
    SyntheticLogConfig config = tiny_config();
    mutate(config);
    return config;
  };
  EXPECT_DEATH((void)generate_synthetic_log(
                   breaks([](SyntheticLogConfig& c) { c.num_users = 0; })),
               "at least one user");
  EXPECT_DEATH((void)generate_synthetic_log(
                   breaks([](SyntheticLogConfig& c) { c.vocab_size = 0; })),
               "needs a vocabulary");
  EXPECT_DEATH((void)generate_synthetic_log(
                   breaks([](SyntheticLogConfig& c) { c.num_topics = 0; })),
               "at least one topic");
  EXPECT_DEATH((void)generate_synthetic_log(
                   breaks([](SyntheticLogConfig& c) { c.min_query_words = 0; })),
               "at least one word");
  EXPECT_DEATH((void)generate_synthetic_log(breaks([](SyntheticLogConfig& c) {
                 c.min_query_words = c.max_query_words + 1;
               })),
               "min_query_words exceeds max_query_words");
  EXPECT_DEATH((void)generate_synthetic_log(
                   breaks([](SyntheticLogConfig& c) { c.min_topics_per_user = 0; })),
               "users need at least one topic");
  EXPECT_DEATH((void)generate_synthetic_log(breaks([](SyntheticLogConfig& c) {
                 c.min_topics_per_user = c.max_topics_per_user + 1;
               })),
               "min_topics_per_user exceeds max_topics_per_user");
}

TEST(Synthetic, TimestampsWithinWindowAndSorted) {
  const auto config = tiny_config();
  const QueryLog log = generate_synthetic_log(config);
  std::int64_t prev = config.start_timestamp;
  for (const auto& r : log.records()) {
    EXPECT_GE(r.timestamp, prev);
    EXPECT_LE(r.timestamp, config.start_timestamp + config.duration_seconds + 60);
    prev = r.timestamp;
  }
}

TEST(Synthetic, ActivityIsHeavyTailed) {
  const QueryLog log = generate_synthetic_log(tiny_config());
  const auto top = log.most_active_users(5);
  ASSERT_EQ(top.size(), 5u);
  // The most active user should dwarf the median user.
  std::vector<std::size_t> counts;
  for (const UserId u : log.users()) counts.push_back(log.user_query_count(u));
  std::sort(counts.begin(), counts.end());
  EXPECT_GT(log.user_query_count(top[0]), 4 * counts[counts.size() / 2]);
}

TEST(Synthetic, UsersRepeatQueries) {
  const QueryLog log = generate_synthetic_log(tiny_config());
  const auto top = log.most_active_users(1);
  const auto queries = log.queries_of(top[0]);
  std::unordered_set<std::string> distinct(queries.begin(), queries.end());
  // Repetition: distinct queries are clearly fewer than total queries.
  EXPECT_LT(distinct.size(), queries.size() * 4 / 5);
}

TEST(Synthetic, QueriesAreShort) {
  const QueryLog log = generate_synthetic_log(tiny_config());
  for (std::size_t i = 0; i < 100; ++i) {
    const auto& text = log.records()[i * 37 % log.size()].text;
    const auto words = text::tokenize(text).size();
    EXPECT_GE(words, 1u);
    EXPECT_LE(words, 6u);
  }
}

TEST(Synthetic, NoEmptyQueries) {
  const QueryLog log = generate_synthetic_log(tiny_config());
  for (const auto& r : log.records()) EXPECT_FALSE(r.text.empty());
}

TEST(Synthetic, VocabularyShared) {
  // Different users share a common vocabulary (needed for co-occurrence
  // statistics and for X-Search fakes to be plausible for other users).
  const QueryLog log = generate_synthetic_log(tiny_config());
  const auto top = log.most_active_users(2);
  std::unordered_set<std::string> words_a, words_b;
  for (const auto& q : log.queries_of(top[0])) {
    for (auto& t : text::tokenize(q)) words_a.insert(std::move(t));
  }
  for (const auto& q : log.queries_of(top[1])) {
    for (auto& t : text::tokenize(q)) words_b.insert(std::move(t));
  }
  std::size_t shared = 0;
  for (const auto& w : words_a) shared += words_b.contains(w);
  EXPECT_GT(shared, 0u);
}

}  // namespace
}  // namespace xsearch::dataset
