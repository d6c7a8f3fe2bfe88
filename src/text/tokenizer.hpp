// Query/document tokenization.
//
// All text processing in the reproduction (query similarity, BM25 indexing,
// the common-word filter of Algorithm 2, SimAttack profiles) shares this
// tokenizer so that every component sees the same word boundaries:
// lower-cased maximal runs of ASCII alphanumerics. `scan_tokens` is the one
// definition of those boundaries; everything else here is built on it.
//
// Classification and case folding go through constexpr lookup tables rather
// than <cctype>, so tokenization is locale-independent (std::isalnum honors
// the global C locale) and branch-light. Hot paths use `tokenize_views`,
// which lower-cases into a caller-owned reusable buffer and returns
// string_views — one amortized allocation per call instead of one
// std::string per token — or call `scan_tokens` directly when they need no
// lower-cased copy at all.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace xsearch::text {

namespace detail {

inline constexpr std::array<bool, 256> kIsTokenChar = [] {
  std::array<bool, 256> t{};
  for (unsigned c = '0'; c <= '9'; ++c) t[c] = true;
  for (unsigned c = 'a'; c <= 'z'; ++c) t[c] = true;
  for (unsigned c = 'A'; c <= 'Z'; ++c) t[c] = true;
  return t;
}();

inline constexpr std::array<char, 256> kToLower = [] {
  std::array<char, 256> t{};
  for (unsigned c = 0; c < 256; ++c) t[c] = static_cast<char>(c);
  for (unsigned c = 'A'; c <= 'Z'; ++c) t[c] = static_cast<char>(c - 'A' + 'a');
  return t;
}();

// Bit i set iff byte i of the little-endian word `x` is a token byte:
// eight `kIsTokenChar` lookups in a few word operations. For a byte b below
// 0x80, the high bit of b + (0x80 - lo) is set iff b >= lo, and that of
// b + (0x7f - hi) iff b > hi; no byte sum reaches 0x100, so no carry
// crosses into the next byte. OR-ing 0x20 maps exactly 'A'..'Z' into
// 'a'..'z', and bytes from 0x80 up are never token bytes.
constexpr std::uint64_t token_byte_bits(std::uint64_t x) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x80 * kOnes;
  const auto in_range = [](std::uint64_t b, std::uint64_t lo, std::uint64_t hi) {
    return (b + (0x80 - lo) * kOnes) & ~(b + (0x7f - hi) * kOnes);
  };
  const std::uint64_t low7 = x & ~kHigh;
  const std::uint64_t flags =
      (in_range(low7, '0', '9') | in_range(low7 | (0x20 * kOnes), 'a', 'z')) & ~x & kHigh;
  // Byte i's flag is bit 8i + 7; the multiply moves each to bit 56 + i
  // (the partial products never collide, so nothing carries).
  return ((flags >> 7) * 0x0102040810204080ULL) >> 56;
}

}  // namespace detail

/// True for the ASCII alphanumerics that form tokens (locale-independent).
[[nodiscard]] constexpr bool is_token_char(unsigned char c) {
  return detail::kIsTokenChar[c];
}

/// ASCII lower-casing; non-letters pass through unchanged.
[[nodiscard]] constexpr char to_lower_ascii(unsigned char c) {
  return detail::kToLower[c];
}

/// The token-boundary scan: a token is a maximal run of `is_token_char`
/// bytes; every other byte (punctuation, whitespace, any non-ASCII byte)
/// separates tokens. Calls `on_token(begin, length)` — offsets into `text` —
/// for each token in order. Accepts any bytes and any length.
///
/// Each 64-byte block is classified into a bitmask, eight bytes per word
/// operation, and the tokens are read off the mask's start and end bits:
/// no per-byte branch and no branch misprediction per token boundary.
template <typename OnToken>
void scan_tokens(std::string_view text, OnToken&& on_token) {
  const std::size_t size = text.size();
  std::uint64_t carry = 0;  // 1 when the previous block ended inside a token
  std::size_t begin = 0;    // start of the open token
  for (std::size_t base = 0; base < size; base += 64) {
    const std::size_t n = std::min<std::size_t>(64, size - base);
    std::uint64_t in_token = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      in_token |= detail::token_byte_bits(load_le64(
                      reinterpret_cast<const std::uint8_t*>(text.data() + base + i)))
                  << i;
    }
    for (; i < n; ++i) {
      in_token |= std::uint64_t{is_token_char(static_cast<unsigned char>(text[base + i]))}
                  << i;
    }
    // Bit i of `after_token`: byte i - 1 is a token byte. A token starts at
    // a token byte that follows none and ends before a separator that
    // follows one; an end past the block is the next block's carry.
    const std::uint64_t after_token = (in_token << 1) | carry;
    std::uint64_t starts = in_token & ~after_token;
    std::uint64_t ends = ~in_token & after_token;
    if (n < 64) ends &= (std::uint64_t{1} << n) - 1;
    // Starts and ends alternate; inside an open token an end comes first.
    if (carry == 0 && starts != 0) {
      begin = base + static_cast<std::size_t>(std::countr_zero(starts));
      starts &= starts - 1;
    }
    while (ends != 0) {
      on_token(begin, base + static_cast<std::size_t>(std::countr_zero(ends)) - begin);
      ends &= ends - 1;
      if (starts != 0) {
        begin = base + static_cast<std::size_t>(std::countr_zero(starts));
        starts &= starts - 1;
      }
    }
    carry = (in_token >> (n - 1)) & 1;
  }
  if (carry != 0) on_token(begin, size - begin);
}

/// Splits `text` into lower-cased alphanumeric tokens.
[[nodiscard]] std::vector<std::string> tokenize(std::string_view text);

/// Allocation-lean tokenization: writes the lower-cased tokens of `text`
/// into `buffer` (reused across calls, so its allocation amortizes away) and
/// returns views of them. The views point into `buffer` and are valid only
/// until the next call that reuses it.
[[nodiscard]] std::vector<std::string_view> tokenize_views(std::string_view text,
                                                           std::string& buffer);

/// Same, but appends into a caller-owned token vector (also reused).
void tokenize_views_into(std::string_view text, std::string& buffer,
                         std::vector<std::string_view>& tokens);

/// Tokenizes and removes stopwords (a small fixed English list, matching
/// the preprocessing applied to the AOL log in the PEAS/SimAttack line of
/// work).
[[nodiscard]] std::vector<std::string> tokenize_no_stopwords(std::string_view text);

/// True if `word` is on the built-in stopword list. Allocation-free: the
/// list is a static set of string_views.
[[nodiscard]] bool is_stopword(std::string_view word);

/// Number of distinct tokens the two texts share (the nbCommonWords
/// function of Algorithm 2 in the paper).
[[nodiscard]] std::size_t common_word_count(std::string_view a, std::string_view b);

}  // namespace xsearch::text
