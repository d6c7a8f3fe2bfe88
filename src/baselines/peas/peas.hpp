// PEAS baseline (Petit et al., TrustCom 2015) — the paper's closest
// competitor (§5.2).
//
// PEAS combines unlinkability and indistinguishability under a *weaker*
// adversary model than X-Search: two proxies assumed not to collude.
//
//  * The client obfuscates locally: k fake queries are generated from a
//    co-occurrence graph of past user queries and OR-aggregated with the
//    real one in random order.
//  * The *receiver* proxy sees the client identity but only a ciphertext of
//    the query (a crypto/envelope sealed to the issuer's key).
//  * The *issuer* proxy decrypts and executes the query against the engine
//    but never learns who asked.
//
// If receiver and issuer collude, the protection collapses — this is the
// adversarial gap X-Search closes with SGX.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/random.hpp"
#include "crypto/x25519.hpp"
#include "dataset/query_log.hpp"
#include "engine/search_engine.hpp"
#include "text/cooccurrence.hpp"

namespace xsearch::baselines::peas {

/// Client-side fake-query generator: random walks on the term
/// co-occurrence graph of a past-query log.
class FakeQueryGenerator {
 public:
  explicit FakeQueryGenerator(const dataset::QueryLog& past_queries);

  /// One fake query whose word count mimics `reference` (the real query),
  /// as PEAS does to avoid trivially distinguishable lengths.
  [[nodiscard]] std::string generate(std::string_view reference, Rng& rng) const;

  /// `k` fakes for one real query.
  [[nodiscard]] std::vector<std::string> generate_k(std::string_view reference,
                                                    std::size_t k, Rng& rng) const;

 private:
  text::Vocabulary vocab_;
  text::CooccurrenceMatrix cooc_;
};

/// The issuer proxy: decrypts protected queries, queries the engine.
class PeasIssuer {
 public:
  PeasIssuer(const engine::SearchEngine* engine, std::uint64_t seed);

  [[nodiscard]] const crypto::X25519Key& public_key() const {
    return keys_.public_key;
  }

  /// Handles one protected query envelope (no client identity attached):
  /// decrypts, runs the OR query, returns serialized results. When built
  /// without an engine it echoes an empty result list (saturation mode).
  [[nodiscard]] Result<Bytes> handle(ByteSpan envelope);

 private:
  const engine::SearchEngine* engine_;
  crypto::X25519KeyPair keys_;
};

/// The receiver proxy: knows who the client is, forwards the opaque
/// envelope to the issuer, relays the response back.
class PeasReceiver {
 public:
  explicit PeasReceiver(PeasIssuer& issuer) : issuer_(&issuer) {}

  /// `client_id` models the identity the receiver inevitably sees.
  [[nodiscard]] Result<Bytes> forward(std::uint32_t client_id, ByteSpan envelope);

  [[nodiscard]] std::uint64_t forwarded_count() const {
    return forwarded_.load(std::memory_order_relaxed);
  }

 private:
  PeasIssuer* issuer_;
  std::atomic<std::uint64_t> forwarded_{0};
};

/// The PEAS client: obfuscates locally, encrypts to the issuer, talks to
/// the receiver, and filters the merged results for the real query.
class PeasClient {
 public:
  PeasClient(std::uint32_t client_id, PeasReceiver& receiver,
             const crypto::X25519Key& issuer_public_key,
             const FakeQueryGenerator& fakes, std::size_t k, std::uint64_t seed);

  /// The k+1 shuffled sub-queries PEAS would send for `query` — used by the
  /// privacy benches, which attack the protected form directly.
  [[nodiscard]] std::vector<std::string> protect(std::string_view query);

  /// Full round trip: protect, send through both proxies, decrypt, keep the
  /// results matching the real query.
  [[nodiscard]] Result<std::vector<engine::SearchResult>> search(
      std::string_view query, std::uint32_t top_k_each = 20);

  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  std::uint32_t client_id_;
  PeasReceiver* receiver_;
  crypto::X25519Key issuer_public_key_;
  const FakeQueryGenerator* fakes_;
  std::size_t k_;
  Rng rng_;
  crypto::SecureRandom secure_rng_;
};

}  // namespace xsearch::baselines::peas
