#include "xsearch/engine_gateway.hpp"

#include "crypto/random.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {

namespace {
constexpr char kLinkAad[] = "xsearch-engine-link-v1";
}

SecureEngineGateway::SecureEngineGateway(const engine::SearchEngine* engine,
                                         std::uint64_t seed)
    : engine_(engine) {
  keys_ = crypto::x25519_keypair_from_seed(
      crypto::domain_seed(seed, /*tag=*/0x71));  // gateway domain separation
}

Result<Bytes> SecureEngineGateway::handle(ByteSpan envelope) const {
  auto opened = crypto::envelope_open(keys_, to_bytes(kLinkAad), envelope);
  if (!opened) return opened.status();

  auto request = wire::parse_engine_request(opened.value().plaintext);
  if (!request) return request.status();

  const Bytes results =
      engine_ != nullptr ? engine_->search_or_encoded(request.value().sub_queries,
                                                      request.value().top_k_each)
                         : wire::serialize_results({});
  return crypto::envelope_reply_seal(opened.value().response_key, to_bytes(kLinkAad),
                                     results);
}

}  // namespace xsearch::core
