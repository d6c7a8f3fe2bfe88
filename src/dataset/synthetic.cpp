#include "dataset/synthetic.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace xsearch::dataset {

namespace {

/// Deterministic pseudo-English word for a vocabulary index: 2-4 syllables
/// drawn from a fixed syllable inventory, with a numeric suffix on the rare
/// collision. Pseudo-words keep the generator self-contained (no external
/// word list) while preserving realistic token-length statistics.
std::string make_word(std::uint64_t index, std::uint64_t seed,
                      std::unordered_set<std::string>& used) {
  static constexpr const char* kSyllables[] = {
      "ba", "be", "bi", "bo", "bu", "ca", "ce", "co", "cu", "da", "de", "di",
      "do", "du", "fa", "fe", "fi", "fo", "ga", "ge", "go", "ha", "he", "hi",
      "ho", "ja", "jo", "ka", "ke", "ki", "ko", "la", "le", "li", "lo", "lu",
      "ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu", "pa", "pe",
      "pi", "po", "ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
      "ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "wa", "we", "wi",
      "za", "zo", "ster", "tion", "land", "berg", "ford", "ton"};
  constexpr std::size_t kNumSyllables = std::size(kSyllables);

  std::uint64_t state = seed ^ (index * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t mixed = xsearch::splitmix64(state);
  const std::size_t syllable_count = 2 + (mixed % 3);
  std::string word;
  std::uint64_t bits = mixed;
  for (std::size_t s = 0; s < syllable_count; ++s) {
    word += kSyllables[bits % kNumSyllables];
    bits = xsearch::splitmix64(state);
  }
  if (!used.insert(word).second) {
    word += std::to_string(index % 1000);
    while (!used.insert(word).second) word += 'x';
  }
  return word;
}

}  // namespace

QueryLog generate_synthetic_log(const SyntheticLogConfig& config) {
  XS_CHECK(config.num_users > 0, "synthetic log needs at least one user");
  XS_CHECK(config.vocab_size > 0, "synthetic log needs a vocabulary");
  XS_CHECK(config.num_topics > 0, "synthetic log needs at least one topic");
  XS_CHECK(config.min_query_words >= 1, "queries need at least one word");
  XS_CHECK(config.min_query_words <= config.max_query_words,
           "min_query_words exceeds max_query_words");
  XS_CHECK(config.min_topics_per_user >= 1, "users need at least one topic");
  XS_CHECK(config.min_topics_per_user <= config.max_topics_per_user,
           "min_topics_per_user exceeds max_topics_per_user");

  xsearch::Rng rng(config.seed);

  // --- Vocabulary, ordered by global popularity rank. ---
  std::vector<std::string> vocab;
  vocab.reserve(config.vocab_size);
  std::unordered_set<std::string> used;
  for (std::size_t i = 0; i < config.vocab_size; ++i) {
    vocab.push_back(make_word(i, config.seed, used));
  }
  const xsearch::ZipfSampler word_popularity(config.vocab_size,
                                             config.word_zipf_exponent);

  // --- Topics: word subsets sampled by global popularity, then shuffled so
  // each topic has its own internal ranking. ---
  std::vector<std::vector<std::size_t>> topic_words(config.num_topics);
  for (auto& words : topic_words) {
    std::unordered_set<std::size_t> seen;
    words.reserve(config.words_per_topic);
    // Cap attempts so a tiny vocabulary cannot loop forever.
    std::size_t attempts = 0;
    while (words.size() < config.words_per_topic &&
           attempts < config.words_per_topic * 20) {
      ++attempts;
      const std::size_t w = word_popularity.sample(rng);
      if (seen.insert(w).second) words.push_back(w);
    }
    for (std::size_t i = words.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(words[i - 1], words[rng.uniform(i)]);
    }
  }
  const xsearch::ZipfSampler topic_word_sampler(
      topic_words.front().empty() ? 1 : topic_words.front().size(),
      config.topic_word_zipf);
  const xsearch::ZipfSampler topic_popularity(config.num_topics,
                                              config.topic_popularity_zipf);

  // --- Users: interest mixtures and activity. ---
  struct UserModel {
    std::vector<std::size_t> topics;
    std::vector<std::string> history;
  };
  std::vector<UserModel> user_models(config.num_users);
  for (auto& u : user_models) {
    const std::size_t count = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(config.min_topics_per_user),
        static_cast<std::int64_t>(config.max_topics_per_user)));
    std::unordered_set<std::size_t> seen;
    while (u.topics.size() < count) {
      const std::size_t t = topic_popularity.sample(rng);
      if (seen.insert(t).second) u.topics.push_back(t);
    }
  }
  const xsearch::ZipfSampler user_activity(config.num_users, config.user_activity_zipf);

  // --- Query stream. ---
  auto sample_topic_word = [&](std::size_t topic) -> const std::string& {
    const auto& words = topic_words[topic];
    std::size_t rank = topic_word_sampler.sample(rng);
    if (rank >= words.size()) rank = words.size() - 1;
    return vocab[words[rank]];
  };

  auto make_fresh_query = [&](UserModel& u) {
    // A user's first topic is their dominant interest.
    const std::size_t which =
        u.topics.size() == 1 ? 0 : (rng.bernoulli(0.5) ? 0 : rng.uniform(u.topics.size()));
    const std::size_t topic = u.topics[which];
    const auto n_words = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(config.min_query_words),
                        static_cast<std::int64_t>(config.max_query_words)));
    std::string query;
    std::unordered_set<std::string> in_query;
    for (std::size_t w = 0; w < n_words; ++w) {
      const std::string& word = sample_topic_word(topic);
      if (!in_query.insert(word).second) continue;
      if (!query.empty()) query += ' ';
      query += word;
    }
    return query;
  };

  std::vector<QueryRecord> records;
  records.reserve(config.total_queries);
  const double step = static_cast<double>(config.duration_seconds) /
                      static_cast<double>(std::max<std::size_t>(config.total_queries, 1));

  for (std::size_t i = 0; i < config.total_queries; ++i) {
    const auto user = static_cast<UserId>(user_activity.sample(rng));
    UserModel& u = user_models[user];

    std::string query;
    if (!u.history.empty() && rng.bernoulli(config.repeat_probability)) {
      query = u.history[rng.uniform(u.history.size())];
    } else if (!u.history.empty() && rng.bernoulli(config.refine_probability)) {
      // Refinement: re-issue a past query with one word replaced/added.
      query = u.history[rng.uniform(u.history.size())];
      const std::size_t topic = u.topics[rng.uniform(u.topics.size())];
      const std::string& extra = sample_topic_word(topic);
      const auto space = query.find(' ');
      if (space != std::string::npos && rng.bernoulli(0.5)) {
        query = query.substr(0, space) + ' ' + extra;  // replace the tail
      } else {
        query += ' ';
        query += extra;
      }
    } else {
      query = make_fresh_query(u);
    }
    if (query.empty()) query = vocab[word_popularity.sample(rng)];

    u.history.push_back(query);

    QueryRecord record;
    record.user = user;
    record.timestamp = config.start_timestamp +
                       static_cast<std::int64_t>(static_cast<double>(i) * step) +
                       static_cast<std::int64_t>(rng.uniform(30));
    record.text = std::move(query);
    records.push_back(std::move(record));
  }

  return QueryLog(std::move(records));
}

}  // namespace xsearch::dataset
