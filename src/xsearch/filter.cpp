#include "xsearch/filter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"
#include "engine/analytics.hpp"
#include "text/sparse_vector.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"

namespace xsearch::core {

namespace {

// Token bytes are ASCII alphanumerics, whose lower case is the byte with
// 0x20 set (digits already have it). That lets a whole word of token bytes
// be folded with one OR.
constexpr bool kFoldIsOr20 = [] {
  for (unsigned c = 0; c < 256; ++c) {
    if (text::is_token_char(static_cast<unsigned char>(c)) &&
        text::to_lower_ascii(static_cast<unsigned char>(c)) != static_cast<char>(c | 0x20)) {
      return false;
    }
  }
  return true;
}();
static_assert(kFoldIsOr20, "token folding assumes ASCII alphanumeric tokens");

// kFirstBytes[n]: the little-endian word mask of the first n bytes.
constexpr std::array<std::uint64_t, 9> kFirstBytes = [] {
  std::array<std::uint64_t, 9> t{};
  for (unsigned n = 1; n < 8; ++n) t[n] = (std::uint64_t{1} << (8 * n)) - 1;
  t[8] = ~std::uint64_t{0};
  return t;
}();

// A token's identity for the table: its first 16 lower-cased bytes as two
// words (zero past the token's end), and a hash of all its bytes and its
// length. Two tokens of equal length and equal words are equal once any
// bytes past the 16th match too.
struct TokenKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t hash = 0;
};

constexpr std::uint64_t kFold = 0x2020202020202020ULL;
constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;  // 2^64 / golden ratio

// Reads the token text[begin, begin + length) with word loads, not byte by
// byte: two unaligned loads cover the first 16 bytes unless they would run
// past the end of `text`.
TokenKey token_key(std::string_view text, std::size_t begin, std::size_t length) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(text.data() + begin);
  TokenKey key;
  if (text.size() - begin >= 16) {
    key.lo = load_le64(p);
    key.hi = load_le64(p + 8);
  } else {
    std::uint8_t tail[16] = {};
    std::memcpy(tail, p, text.size() - begin);
    key.lo = load_le64(tail);
    key.hi = load_le64(tail + 8);
  }
  key.lo = (key.lo | kFold) & kFirstBytes[std::min<std::size_t>(length, 8)];
  key.hi = (key.hi | kFold) &
           kFirstBytes[std::min<std::size_t>(std::max<std::size_t>(length, 8) - 8, 8)];
  // Fibonacci hashing: the product's top bits, which pick the slot, depend
  // on every input bit.
  std::uint64_t h = (key.lo ^ std::rotl(key.hi, 31) ^ length) * kMul;
  for (std::size_t at = 16; at < length; at += 8) {
    std::uint8_t chunk[8] = {};
    const std::size_t n = std::min<std::size_t>(length - at, 8);
    std::memcpy(chunk, p + at, n);
    h = (h ^ ((load_le64(chunk) | kFold) & kFirstBytes[n])) * kMul;
  }
  key.hash = h;
  return key;
}

// Index of the distinct lower-cased tokens of one filter call's sub-queries.
// Sub-query 0 is the original; 1..k are the fakes. Token ids are dense, and
// each sub-query gets a bitset of the ids it contains, so a field's matches
// score against every sub-query with a few AND + popcount steps.
//
// Lookups go through an open-addressing table (linear probing) whose slot
// count is a power of two at least 4x the sub-queries' token count, so it
// is sized from the input and stays mostly empty. A probe walks one cluster
// and stops at an empty slot; clusters depend only on the sub-query tokens,
// so the cost of a result token is bounded whatever bytes the engine sends.
// Key texts are views of the caller's query strings, which outlive the call.
class SubQueryTokens {
 public:
  SubQueryTokens(std::string_view original, const std::vector<std::string>& fakes) {
    struct Occurrence {
      std::string_view text;
      std::size_t begin;
      std::size_t length;
      std::size_t query;
    };
    std::vector<Occurrence> occurrences;
    const auto collect = [&](std::string_view query, std::size_t q) {
      text::scan_tokens(query, [&](std::size_t begin, std::size_t length) {
        occurrences.push_back({query, begin, length, q});
      });
    };
    collect(original, 0);
    for (std::size_t i = 0; i < fakes.size(); ++i) collect(fakes[i], i + 1);
    query_count_ = fakes.size() + 1;

    const std::size_t slot_count =
        std::bit_ceil(std::max<std::size_t>(4 * occurrences.size(), 8));
    slots_.assign(slot_count, Slot{});
    slot_mask_ = slot_count - 1;
    shift_ = 64 - std::countr_zero(slot_count);

    std::vector<std::size_t> ids;
    ids.reserve(occurrences.size());
    for (const Occurrence& o : occurrences) {
      const TokenKey key = token_key(o.text, o.begin, o.length);
      std::size_t i = key.hash >> shift_;
      while (slots_[i].length != 0 && !matches(slots_[i], key, o.text, o.begin, o.length)) {
        i = (i + 1) & slot_mask_;
      }
      if (slots_[i].length == 0) {
        slots_[i] = Slot{key.hash, o.length, keys_.size()};
        keys_.push_back({key.lo, key.hi, o.text.substr(o.begin, o.length)});
        max_length_ = std::max(max_length_, o.length);
      }
      ids.push_back(slots_[i].id);
    }

    words_ = (keys_.size() + 63) / 64;
    masks_.assign(query_count_ * words_, 0);
    for (std::size_t n = 0; n < occurrences.size(); ++n) {
      masks_[occurrences[n].query * words_ + ids[n] / 64] |= std::uint64_t{1} << (ids[n] % 64);
    }
  }

  [[nodiscard]] std::size_t query_count() const { return query_count_; }

  /// 64-bit words in one token-id bitset.
  [[nodiscard]] std::size_t words() const { return words_; }

  /// The token ids sub-query `q` contains, `words()` wide.
  [[nodiscard]] const std::uint64_t* mask(std::size_t q) const {
    return masks_.data() + q * words_;
  }

  /// One pass over `field` with no copy: sets the bit of each sub-query
  /// token it contains in `hit` (`words()` wide). Returns whether any bit
  /// was set.
  bool mark(std::string_view field, std::uint64_t* hit) const {
    bool any = false;
    text::scan_tokens(field, [&](std::size_t begin, std::size_t length) {
      if (length > max_length_) return;
      const TokenKey key = token_key(field, begin, length);
      for (std::size_t i = key.hash >> shift_; slots_[i].length != 0;
           i = (i + 1) & slot_mask_) {
        if (matches(slots_[i], key, field, begin, length)) {
          hit[slots_[i].id / 64] |= std::uint64_t{1} << (slots_[i].id % 64);
          any = true;
          return;
        }
      }
    });
    return any;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t length = 0;  // 0 marks an empty slot (tokens are non-empty)
    std::size_t id = 0;
  };
  struct Key {
    std::uint64_t lo;
    std::uint64_t hi;
    std::string_view text;  // original case
  };

  [[nodiscard]] bool matches(const Slot& slot, const TokenKey& key, std::string_view text,
                             std::size_t begin, std::size_t length) const {
    if (slot.hash != key.hash || slot.length != length) return false;
    const Key& stored = keys_[slot.id];
    if (stored.lo != key.lo || stored.hi != key.hi) return false;
    for (std::size_t i = 16; i < length; ++i) {
      if (text::to_lower_ascii(static_cast<unsigned char>(text[begin + i])) !=
          text::to_lower_ascii(static_cast<unsigned char>(stored.text[i]))) {
        return false;
      }
    }
    return true;
  }

  std::vector<Slot> slots_;
  std::size_t slot_mask_ = 0;
  int shift_ = 0;
  std::vector<Key> keys_;  // by token id
  std::size_t max_length_ = 0;
  std::size_t query_count_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> masks_;  // query_count_ x words_
};

}  // namespace

std::vector<engine::SearchResult> ResultFilter::filter(
    std::string_view original, const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) const {
  std::vector<engine::SearchResult> kept =
      scoring_ == FilterScoring::kCommonWords
          ? filter_common_words(original, fakes, std::move(results))
          : filter_cosine(original, fakes, std::move(results));
  strip_tracking(kept);
  return kept;
}

std::vector<engine::SearchResult> ResultFilter::filter_common_words(
    std::string_view original, const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) const {
  const SubQueryTokens index(original, fakes);
  const std::size_t words = index.words();

  std::vector<engine::SearchResult> kept;
  kept.reserve(results.size());
  std::vector<std::uint64_t> hit(words);
  std::vector<std::size_t> scores(index.query_count());

  // score[q] = distinct title tokens shared with q + distinct description
  // tokens shared with q — nbCommonWords(q, title) + nbCommonWords(q, desc).
  // The per-field bitset counts a repeated token once.
  const auto accumulate_field = [&](std::string_view field) {
    std::fill(hit.begin(), hit.end(), 0);
    if (!index.mark(field, hit.data())) return;
    for (std::size_t q = 0; q < scores.size(); ++q) {
      const std::uint64_t* mask = index.mask(q);
      for (std::size_t w = 0; w < words; ++w) {
        scores[q] += static_cast<std::size_t>(std::popcount(hit[w] & mask[w]));
      }
    }
  };

  for (auto& r : results) {
    std::fill(scores.begin(), scores.end(), 0);
    accumulate_field(r.title);
    accumulate_field(r.description);
    const std::size_t original_score = scores[0];
    bool is_max = true;
    for (std::size_t q = 1; q < scores.size(); ++q) {
      if (scores[q] > original_score) {
        is_max = false;
        break;
      }
    }
    if (is_max) kept.push_back(std::move(r));
  }
  return kept;
}

std::vector<engine::SearchResult> ResultFilter::filter_cosine(
    std::string_view original, const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) const {
  // One vocabulary for the whole batch; each sub-query's TF vector is built
  // exactly once. Cosine depends only on term identity, not id values, so
  // sharing the vocabulary leaves every score unchanged.
  text::Vocabulary vocab;
  std::vector<text::SparseVector> query_vecs;
  query_vecs.reserve(fakes.size() + 1);
  query_vecs.push_back(text::tf_vector(vocab, original));
  for (const auto& fake : fakes) query_vecs.push_back(text::tf_vector(vocab, fake));

  std::vector<engine::SearchResult> kept;
  kept.reserve(results.size());
  std::string textual;
  for (auto& r : results) {
    textual.assign(r.title);
    textual += ' ';
    textual += r.description;
    const text::SparseVector r_vec = text::tf_vector(vocab, textual);
    const double original_score = query_vecs[0].cosine(r_vec);
    bool is_max = true;
    for (std::size_t q = 1; q < query_vecs.size(); ++q) {
      if (query_vecs[q].cosine(r_vec) > original_score) {
        is_max = false;
        break;
      }
    }
    if (is_max) kept.push_back(std::move(r));
  }
  return kept;
}

void ResultFilter::strip_tracking(std::vector<engine::SearchResult>& results) {
  for (auto& r : results) {
    if (auto target = engine::extract_target_url(r.url)) {
      r.url = *std::move(target);
    }
  }
}

}  // namespace xsearch::core
