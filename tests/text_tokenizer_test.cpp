#include "text/tokenizer.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.hpp"

namespace xsearch::text {
namespace {

TEST(Tokenizer, BasicSplit) {
  EXPECT_EQ(tokenize("hello world"), (std::vector<std::string>{"hello", "world"}));
}

TEST(Tokenizer, Lowercases) {
  EXPECT_EQ(tokenize("Hello WORLD"), (std::vector<std::string>{"hello", "world"}));
}

TEST(Tokenizer, SplitsOnPunctuation) {
  EXPECT_EQ(tokenize("back-pain, treatment?"),
            (std::vector<std::string>{"back", "pain", "treatment"}));
}

TEST(Tokenizer, KeepsDigits) {
  EXPECT_EQ(tokenize("windows 98 drivers"),
            (std::vector<std::string>{"windows", "98", "drivers"}));
}

TEST(Tokenizer, EmptyInput) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("   ...   ").empty());
}

TEST(Tokenizer, NonAsciiBytesSeparateTokens) {
  EXPECT_EQ(tokenize("caf\xc3\xa9 na\xc3\xafve web\xe2\x80\x94search"),
            (std::vector<std::string>{"caf", "na", "ve", "web", "search"}));
}

using Spans = std::vector<std::pair<std::size_t, std::size_t>>;

Spans scanned(std::string_view text) {
  Spans spans;
  scan_tokens(text, [&](std::size_t begin, std::size_t length) {
    spans.emplace_back(begin, length);
  });
  return spans;
}

// Byte-at-a-time statement of the boundary rule.
Spans reference_spans(std::string_view text) {
  Spans spans;
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_token_char(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text.size() && is_token_char(static_cast<unsigned char>(text[i]))) ++i;
    spans.emplace_back(begin, i - begin);
  }
  return spans;
}

TEST(Tokenizer, ScanClassifiesEveryByteAtEveryBlockPosition) {
  // The scan classifies eight bytes per word operation in 64-byte blocks;
  // each byte value must join or split tokens as is_token_char says
  // wherever it falls in a word, a block or the tail.
  for (unsigned c = 0; c < 256; ++c) {
    for (std::size_t pos = 0; pos < 150; ++pos) {
      std::string text(150, 'Q');
      text[pos] = static_cast<char>(c);
      ASSERT_EQ(scanned(text), reference_spans(text)) << "byte " << c << " at " << pos;
    }
  }
}

TEST(Tokenizer, ScanMatchesReferenceOnRandomBytes) {
  Rng rng(0x5ca9);
  const std::string alphabet = "aZ09 .-\x80\xc3\xff\t";
  for (int round = 0; round < 2000; ++round) {
    std::string text(rng.uniform(300), ' ');
    for (char& c : text) {
      c = rng.bernoulli(0.5) ? alphabet[rng.uniform(alphabet.size())]
                             : static_cast<char>(rng.uniform(256));
    }
    ASSERT_EQ(scanned(text), reference_spans(text)) << "round " << round;
  }
}

TEST(Tokenizer, StopwordsFiltered) {
  EXPECT_EQ(tokenize_no_stopwords("the best of the best"),
            (std::vector<std::string>{"best", "best"}));
}

TEST(Tokenizer, IsStopword) {
  EXPECT_TRUE(is_stopword("the"));
  EXPECT_TRUE(is_stopword("and"));
  EXPECT_FALSE(is_stopword("privacy"));
}

TEST(Tokenizer, CommonWordCountBasic) {
  EXPECT_EQ(common_word_count("private web search", "web search engine"), 2u);
}

TEST(Tokenizer, CommonWordCountCaseInsensitive) {
  EXPECT_EQ(common_word_count("Private WEB", "web private"), 2u);
}

TEST(Tokenizer, CommonWordCountNoOverlap) {
  EXPECT_EQ(common_word_count("alpha beta", "gamma delta"), 0u);
}

TEST(Tokenizer, CommonWordCountDistinctWordsOnly) {
  // Repeated matches count once (set semantics, as in Algorithm 2).
  EXPECT_EQ(common_word_count("cat", "cat cat cat"), 1u);
}

TEST(Tokenizer, CommonWordCountEmpty) {
  EXPECT_EQ(common_word_count("", "anything"), 0u);
  EXPECT_EQ(common_word_count("anything", ""), 0u);
}

}  // namespace
}  // namespace xsearch::text
