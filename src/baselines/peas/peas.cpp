#include "baselines/peas/peas.hpp"

#include "crypto/envelope.hpp"
#include "text/tokenizer.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::baselines::peas {

namespace {

// Associated data binding every PEAS envelope and reply to this protocol.
constexpr char kEnvelopeAad[] = "peas-envelope-v1";

}  // namespace

// --- FakeQueryGenerator -----------------------------------------------------

FakeQueryGenerator::FakeQueryGenerator(const dataset::QueryLog& past_queries)
    : cooc_(vocab_) {
  for (const auto& record : past_queries.records()) cooc_.add_query(record.text);
}

std::string FakeQueryGenerator::generate(std::string_view reference, Rng& rng) const {
  std::size_t length = text::tokenize_no_stopwords(reference).size();
  if (length == 0) length = 1 + rng.uniform(3);
  return cooc_.generate_fake_query(length, rng);
}

std::vector<std::string> FakeQueryGenerator::generate_k(std::string_view reference,
                                                        std::size_t k, Rng& rng) const {
  std::vector<std::string> fakes;
  fakes.reserve(k);
  for (std::size_t i = 0; i < k; ++i) fakes.push_back(generate(reference, rng));
  return fakes;
}

// --- PeasIssuer --------------------------------------------------------------

PeasIssuer::PeasIssuer(const engine::SearchEngine* engine, std::uint64_t seed)
    : engine_(engine) {
  keys_ = crypto::x25519_keypair_from_seed(
      crypto::domain_seed(seed, /*tag=*/0x15));  // issuer domain separation
}

Result<Bytes> PeasIssuer::handle(ByteSpan envelope) {
  auto opened = crypto::envelope_open(keys_, to_bytes(kEnvelopeAad), envelope);
  if (!opened) return opened.status();

  auto request = core::wire::parse_engine_request(opened.value().plaintext);
  if (!request) return request.status();

  const Bytes payload =
      engine_ != nullptr ? engine_->search_or_encoded(request.value().sub_queries,
                                                      request.value().top_k_each)
                         : core::wire::serialize_results({});
  return crypto::envelope_reply_seal(opened.value().response_key,
                                     to_bytes(kEnvelopeAad), payload);
}

// --- PeasReceiver ------------------------------------------------------------

Result<Bytes> PeasReceiver::forward(std::uint32_t client_id, ByteSpan envelope) {
  // The receiver knows `client_id` (it terminates the client connection)
  // but can only relay the opaque envelope. Nothing about the query leaks
  // here unless receiver and issuer collude.
  (void)client_id;
  ++forwarded_;
  return issuer_->handle(envelope);
}

// --- PeasClient ---------------------------------------------------------------

PeasClient::PeasClient(std::uint32_t client_id, PeasReceiver& receiver,
                       const crypto::X25519Key& issuer_public_key,
                       const FakeQueryGenerator& fakes, std::size_t k,
                       std::uint64_t seed)
    : client_id_(client_id),
      receiver_(&receiver),
      issuer_public_key_(issuer_public_key),
      fakes_(&fakes),
      k_(k),
      rng_(seed),
      secure_rng_(crypto::domain_seed(seed, /*tag=*/0x9e)) {}

std::vector<std::string> PeasClient::protect(std::string_view query) {
  std::vector<std::string> sub_queries = fakes_->generate_k(query, k_, rng_);
  const std::size_t position = rng_.uniform(sub_queries.size() + 1);
  sub_queries.insert(sub_queries.begin() + static_cast<std::ptrdiff_t>(position),
                     std::string(query));
  return sub_queries;
}

Result<std::vector<engine::SearchResult>> PeasClient::search(std::string_view query,
                                                             std::uint32_t top_k_each) {
  const std::vector<std::string> sub_queries = protect(query);
  core::wire::EngineRequest request;
  request.sub_queries = sub_queries;
  request.top_k_each = top_k_each;
  crypto::AeadKey response_key{};
  const Bytes envelope = crypto::envelope_seal(
      issuer_public_key_, secure_rng_, to_bytes(kEnvelopeAad),
      core::wire::serialize_engine_request(request), &response_key);

  auto sealed_response = receiver_->forward(client_id_, envelope);
  if (!sealed_response) return sealed_response.status();

  auto payload = crypto::envelope_reply_open(response_key, to_bytes(kEnvelopeAad),
                                             sealed_response.value());
  if (!payload) return payload.status();

  auto results = core::wire::parse_results(payload.value());
  if (!results) return results.status();

  // Client-side filtering: the client knows which sub-query was real.
  std::vector<std::string> fake_only;
  for (const auto& q : sub_queries) {
    if (q != query) fake_only.push_back(q);
  }
  core::ResultFilter filter;
  return filter.filter(query, fake_only, std::move(results).value());
}

}  // namespace xsearch::baselines::peas
