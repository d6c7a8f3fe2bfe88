#include "text/tokenizer.hpp"

#include <algorithm>
#include <unordered_set>

namespace xsearch::text {

namespace {

// A compact English stopword list; enough to strip query glue words. The
// keys are string literals (static storage), so the set stores views and
// `is_stopword` probes it without constructing a std::string.
const std::unordered_set<std::string_view>& stopword_set() {
  static const std::unordered_set<std::string_view> kStopwords = {
      "a",    "an",   "and",  "are",  "as",   "at",   "be",   "by",   "for",
      "from", "has",  "he",   "how",  "in",   "is",   "it",   "its",  "of",
      "on",   "or",   "that", "the",  "to",   "was",  "what", "when", "where",
      "which", "who", "will", "with", "you",  "your", "i",    "my",   "me",
      "we",   "our",  "they", "them", "this", "these", "do",  "does", "not"};
  return kStopwords;
}

}  // namespace

std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string buffer;
  for (const std::string_view view : tokenize_views(text, buffer)) {
    tokens.emplace_back(view);
  }
  return tokens;
}

void tokenize_views_into(std::string_view text, std::string& buffer,
                         std::vector<std::string_view>& tokens) {
  // The lower-cased tokens are packed back to back into the buffer, which
  // is sized for the whole input up front, so it never reallocates under
  // the views.
  buffer.resize(text.size());
  char* out = buffer.data();
  scan_tokens(text, [&](std::size_t begin, std::size_t length) {
    for (std::size_t i = 0; i < length; ++i) {
      out[i] = to_lower_ascii(static_cast<unsigned char>(text[begin + i]));
    }
    tokens.emplace_back(out, length);
    out += length;
  });
}

std::vector<std::string_view> tokenize_views(std::string_view text,
                                             std::string& buffer) {
  std::vector<std::string_view> tokens;
  tokenize_views_into(text, buffer, tokens);
  return tokens;
}

std::vector<std::string> tokenize_no_stopwords(std::string_view text) {
  std::vector<std::string> tokens = tokenize(text);
  std::erase_if(tokens, [](const std::string& t) { return is_stopword(t); });
  return tokens;
}

bool is_stopword(std::string_view word) {
  return stopword_set().contains(word);
}

std::size_t common_word_count(std::string_view a, std::string_view b) {
  std::string a_buffer;
  std::string b_buffer;
  std::unordered_set<std::string_view> a_words;
  for (const std::string_view token : tokenize_views(a, a_buffer)) {
    a_words.insert(token);
  }
  std::size_t count = 0;
  std::unordered_set<std::string_view> seen;
  for (const std::string_view token : tokenize_views(b, b_buffer)) {
    if (a_words.contains(token) && seen.insert(token).second) ++count;
  }
  return count;
}

}  // namespace xsearch::text
