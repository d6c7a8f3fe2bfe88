// Wire formats used across the X-Search deployment:
//
//  * client <-> proxy: the attested handshake's reply, then query batches
//    and their per-item results carried inside SecureChannel records;
//  * enclave <-> host <-> engine: the "socket" payloads crossing the ocall
//    boundary (an OR-query request and a serialized result list).
//
// Formats are length-prefixed binary; parsers are total (they never read
// out of bounds and report malformed input as Status).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/x25519.hpp"
#include "engine/document.hpp"
#include "sgx/attestation.hpp"

namespace xsearch::core::wire {

// --- primitives ----------------------------------------------------------

/// Appends a u32-length-prefixed string.
void put_string(Bytes& out, std::string_view s);

/// Writes `put_string`'s encoding of `s` at `at`, which must have room for
/// its 4 + s.size() bytes, and returns the end. Encoders that size their
/// buffer up front write many strings this way without a per-string
/// capacity check.
std::uint8_t* write_string(std::uint8_t* at, std::string_view s);

/// Reads a u32-length-prefixed string, advancing `offset`.
[[nodiscard]] Result<std::string> get_string(ByteSpan in, std::size_t& offset);

/// `get_string` without the copy: the view points into `in`, which must
/// outlive it.
[[nodiscard]] Result<std::string_view> get_view(ByteSpan in, std::size_t& offset);

void put_u32(Bytes& out, std::uint32_t v);
[[nodiscard]] Result<std::uint32_t> get_u32(ByteSpan in, std::size_t& offset);

void put_u64(Bytes& out, std::uint64_t v);
[[nodiscard]] Result<std::uint64_t> get_u64(ByteSpan in, std::size_t& offset);

void put_double(Bytes& out, double v);
[[nodiscard]] Result<double> get_double(ByteSpan in, std::size_t& offset);

// --- result lists ---------------------------------------------------------
//
// u32 count, then per result: u32 doc, title, description and url as
// u32-length-prefixed strings, f64 score (all big-endian). The engine
// appends pre-encoded entries in this format (SearchEngine::
// search_or_encoded).

/// The smallest encoded result: doc + three empty strings + score. A count
/// claiming more results than the remaining bytes can hold at this size is
/// refused before anything is reserved.
inline constexpr std::size_t kMinResultBytes = 4 + 3 * 4 + 8;

[[nodiscard]] Bytes serialize_results(const std::vector<engine::SearchResult>& results);
[[nodiscard]] Result<std::vector<engine::SearchResult>> parse_results(ByteSpan raw);

/// `parse_results` without the copies: the same bounds, count and
/// trailing-byte checks, but each result's strings view `raw`, which must
/// outlive the views.
[[nodiscard]] Result<std::vector<engine::ResultView>> parse_result_views(ByteSpan raw);

// --- engine request (crosses the ocall "socket") --------------------------

/// What the enclave writes to the engine socket: the sub-queries of the OR
/// query plus how many results to retrieve per sub-query.
struct EngineRequest {
  std::vector<std::string> sub_queries;
  std::uint32_t top_k_each = 20;
};

[[nodiscard]] Bytes serialize_engine_request(const EngineRequest& request);
[[nodiscard]] Result<EngineRequest> parse_engine_request(ByteSpan raw);

// --- handshake reply (enclave -> host -> client, in the clear) ----------------

/// What the host returns to a connecting client: a fresh session, the
/// enclave's attestation quote over its static channel key, and the
/// session's server ephemeral key.
struct HandshakeResponse {
  std::uint64_t session_id = 0;
  sgx::Quote quote;
  crypto::X25519Key server_ephemeral_pub{};
};

/// u64 session || u32 quote_len || quote || server ephemeral key. The
/// enclave writes it, the host relays it as the hello reply, the client
/// reads it.
[[nodiscard]] Bytes serialize_handshake_response(const HandshakeResponse& response);
/// Refuses (DATA_LOSS) input whose length is not exactly what its quote
/// length implies: truncated, or with trailing bytes.
[[nodiscard]] Result<HandshakeResponse> parse_handshake_response(ByteSpan raw);

// --- client messages (inside SecureChannel records) ------------------------

enum class ClientMessageType : std::uint8_t {
  // Tags 1-3 are retired and parse as unknown: a search is a batch of one.
  kQueryBatch = 4,    // 1..kMaxBatchQueries queries sealed as ONE record
  kResultsBatch = 5,  // per-item results/errors, sealed as one record
};

/// Upper bound on queries per batch message. Bounds the work one sealed
/// record can demand from the enclave and the allocation a parsed batch can
/// force; parsers reject bigger (and empty) batches as malformed.
inline constexpr std::size_t kMaxBatchQueries = 64;

/// Outcome of one query inside a batch: either a result list or an error
/// string. Item failures (engine unavailable for one query) must not poison
/// the batch, so each slot carries its own verdict.
struct BatchItem {
  bool ok = false;
  std::vector<engine::SearchResult> results;  // ok
  std::string error;                          // !ok
};

/// Frames a query batch (client -> enclave plaintext): 1..kMaxBatchQueries
/// queries carried in one sealed record, so a batch costs one AEAD
/// seal/open instead of one per query.
[[nodiscard]] Bytes frame_query_batch(const std::vector<std::string>& queries);

/// A results batch (enclave -> client plaintext) is written item by item
/// into one buffer, so the enclave encodes results straight from the views
/// it filtered: begin_results_batch, then one put_results_item or
/// put_error_item per item.
void begin_results_batch(Bytes& out, std::size_t items);

/// Appends a results item holding `results[i]` for each i of `kept`, in
/// that order. Reserves the item's exact size plus `spare` bytes first (the
/// enclave keeps room for the seal's tag), then writes every field through
/// one cursor.
void put_results_item(Bytes& out, std::span<const engine::ResultView> results,
                      std::span<const std::size_t> kept, std::size_t spare);

void put_error_item(Bytes& out, std::string_view error);

struct ClientMessage {
  ClientMessageType type = ClientMessageType::kQueryBatch;
  std::vector<std::string> queries;  // kQueryBatch
  std::vector<BatchItem> batch;      // kResultsBatch
};

[[nodiscard]] Result<ClientMessage> parse_client_message(ByteSpan raw);

}  // namespace xsearch::core::wire
