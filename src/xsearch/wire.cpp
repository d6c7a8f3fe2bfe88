#include "xsearch/wire.hpp"

#include <cstring>

namespace xsearch::core::wire {

void put_u32(Bytes& out, std::uint32_t v) {
  std::uint8_t buf[4];
  store_be32(buf, v);
  append(out, ByteSpan(buf, 4));
}

Result<std::uint32_t> get_u32(ByteSpan in, std::size_t& offset) {
  if (offset + 4 > in.size()) return data_loss("wire: truncated u32");
  const std::uint32_t v = load_be32(in.data() + offset);
  offset += 4;
  return v;
}

void put_u64(Bytes& out, std::uint64_t v) {
  std::uint8_t buf[8];
  store_be64(buf, v);
  append(out, ByteSpan(buf, 8));
}

Result<std::uint64_t> get_u64(ByteSpan in, std::size_t& offset) {
  if (offset + 8 > in.size()) return data_loss("wire: truncated u64");
  std::uint64_t hi = load_be32(in.data() + offset);
  std::uint64_t lo = load_be32(in.data() + offset + 4);
  offset += 8;
  return (hi << 32) | lo;
}

void put_double(Bytes& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

Result<double> get_double(ByteSpan in, std::size_t& offset) {
  auto bits = get_u64(in, offset);
  if (!bits) return bits.status();
  double v = 0;
  const std::uint64_t b = bits.value();
  std::memcpy(&v, &b, sizeof v);
  return v;
}

void put_string(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::uint8_t* write_string(std::uint8_t* at, std::string_view s) {
  store_be32(at, static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) std::memcpy(at + 4, s.data(), s.size());
  return at + 4 + s.size();
}

Result<std::string_view> get_view(ByteSpan in, std::size_t& offset) {
  auto len = get_u32(in, offset);
  if (!len) return len.status();
  if (len.value() > in.size() - offset) return data_loss("wire: truncated string");
  const std::string_view s(reinterpret_cast<const char*>(in.data() + offset), len.value());
  offset += len.value();
  return s;
}

namespace {

/// Encoded size of one result in the list format.
std::size_t result_wire_size(const engine::ResultView& r) {
  return kMinResultBytes + r.title.size() + r.description.size() + r.url.size();
}

std::uint8_t* write_u32(std::uint8_t* at, std::uint32_t v) {
  store_be32(at, v);
  return at + 4;
}

/// Writes one result in the list format at `at`, which must have room for
/// its result_wire_size bytes, and returns the end.
std::uint8_t* write_result(std::uint8_t* at, const engine::ResultView& r) {
  at = write_u32(at, r.doc);
  at = write_string(at, r.title);
  at = write_string(at, r.description);
  at = write_string(at, r.url);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.score, sizeof bits);
  store_be64(at, bits);
  return at + 8;
}

}  // namespace

Result<std::string> get_string(ByteSpan in, std::size_t& offset) {
  auto s = get_view(in, offset);
  if (!s) return s.status();
  return std::string(s.value());
}

namespace {

/// Parses one result list *prefix* of `raw` starting at `offset`. The batch
/// framing concatenates several lists, so unlike parse_result_views this
/// must not require the list to exhaust the input. The count is checked
/// against the bytes that follow before anything is reserved, so a short
/// hostile list cannot force a large allocation.
Result<std::vector<engine::ResultView>> parse_result_views_at(ByteSpan raw,
                                                              std::size_t& offset) {
  auto count = get_u32(raw, offset);
  if (!count) return count.status();
  if (count.value() > (raw.size() - offset) / kMinResultBytes) {
    return data_loss("wire: result count exceeds the bytes that follow");
  }
  std::vector<engine::ResultView> results;
  results.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    engine::ResultView r;
    auto doc = get_u32(raw, offset);
    if (!doc) return doc.status();
    r.doc = doc.value();
    auto title = get_view(raw, offset);
    if (!title) return title.status();
    r.title = title.value();
    auto desc = get_view(raw, offset);
    if (!desc) return desc.status();
    r.description = desc.value();
    auto url = get_view(raw, offset);
    if (!url) return url.status();
    r.url = url.value();
    auto score = get_double(raw, offset);
    if (!score) return score.status();
    r.score = score.value();
    results.push_back(r);
  }
  return results;
}

/// The owning form of parse_result_views_at.
Result<std::vector<engine::SearchResult>> parse_results_at(ByteSpan raw,
                                                           std::size_t& offset) {
  auto views = parse_result_views_at(raw, offset);
  if (!views) return views.status();
  std::vector<engine::SearchResult> results;
  results.reserve(views.value().size());
  for (const engine::ResultView& v : views.value()) {
    results.push_back({v.doc, std::string(v.title), std::string(v.description),
                       std::string(v.url), v.score});
  }
  return results;
}

/// A batch count of zero is as malformed as an oversized one: an empty
/// batch would make the enclave seal a reply for nothing.
Status check_batch_count(std::uint32_t count) {
  if (count == 0) return data_loss("wire: empty batch");
  if (count > kMaxBatchQueries) return data_loss("wire: batch too large");
  return Status::ok();
}

}  // namespace

Bytes serialize_results(const std::vector<engine::SearchResult>& results) {
  std::size_t size = 4;  // count
  for (const auto& r : results) size += result_wire_size(engine::view_of(r));
  Bytes out(size);
  std::uint8_t* cursor = write_u32(out.data(), static_cast<std::uint32_t>(results.size()));
  for (const auto& r : results) cursor = write_result(cursor, engine::view_of(r));
  return out;
}

Result<std::vector<engine::SearchResult>> parse_results(ByteSpan raw) {
  std::size_t offset = 0;
  auto results = parse_results_at(raw, offset);
  if (!results) return results.status();
  if (offset != raw.size()) return data_loss("wire: trailing bytes after results");
  return results;
}

Result<std::vector<engine::ResultView>> parse_result_views(ByteSpan raw) {
  std::size_t offset = 0;
  auto results = parse_result_views_at(raw, offset);
  if (!results) return results.status();
  if (offset != raw.size()) return data_loss("wire: trailing bytes after results");
  return results;
}

Bytes serialize_engine_request(const EngineRequest& request) {
  std::size_t size = 8;
  for (const auto& q : request.sub_queries) size += 4 + q.size();
  Bytes out;
  out.reserve(size);
  put_u32(out, request.top_k_each);
  put_u32(out, static_cast<std::uint32_t>(request.sub_queries.size()));
  for (const auto& q : request.sub_queries) put_string(out, q);
  return out;
}

Result<EngineRequest> parse_engine_request(ByteSpan raw) {
  std::size_t offset = 0;
  EngineRequest req;
  auto top_k = get_u32(raw, offset);
  if (!top_k) return top_k.status();
  req.top_k_each = top_k.value();
  auto count = get_u32(raw, offset);
  if (!count) return count.status();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto q = get_string(raw, offset);
    if (!q) return q.status();
    req.sub_queries.push_back(std::move(q).value());
  }
  if (offset != raw.size()) return data_loss("wire: trailing bytes after request");
  return req;
}

Bytes serialize_handshake_response(const HandshakeResponse& response) {
  const Bytes quote = response.quote.serialize();
  Bytes out;
  out.reserve(8 + 4 + quote.size() + response.server_ephemeral_pub.size());
  put_u64(out, response.session_id);
  put_u32(out, static_cast<std::uint32_t>(quote.size()));
  append(out, quote);
  append(out, response.server_ephemeral_pub);
  return out;
}

Result<HandshakeResponse> parse_handshake_response(ByteSpan raw) {
  std::size_t offset = 0;
  HandshakeResponse out;
  auto session_id = get_u64(raw, offset);
  if (!session_id) return session_id.status();
  out.session_id = session_id.value();
  auto quote_len = get_u32(raw, offset);
  if (!quote_len) return quote_len.status();
  if (offset + quote_len.value() + crypto::kX25519KeySize != raw.size()) {
    return data_loss("wire: malformed handshake response");
  }
  auto quote = sgx::Quote::deserialize(raw.subspan(offset, quote_len.value()));
  if (!quote) return quote.status();
  out.quote = std::move(quote).value();
  offset += quote_len.value();
  std::memcpy(out.server_ephemeral_pub.data(), raw.data() + offset,
              out.server_ephemeral_pub.size());
  return out;
}

Bytes frame_query_batch(const std::vector<std::string>& queries) {
  std::size_t size = 1 + 4;
  for (const auto& q : queries) size += 4 + q.size();
  Bytes out;
  out.reserve(size);
  out.push_back(static_cast<std::uint8_t>(ClientMessageType::kQueryBatch));
  put_u32(out, static_cast<std::uint32_t>(queries.size()));
  for (const auto& q : queries) put_string(out, q);
  return out;
}

void begin_results_batch(Bytes& out, std::size_t items) {
  out.push_back(static_cast<std::uint8_t>(ClientMessageType::kResultsBatch));
  put_u32(out, static_cast<std::uint32_t>(items));
}

void put_results_item(Bytes& out, std::span<const engine::ResultView> results,
                      std::span<const std::size_t> kept, std::size_t spare) {
  std::size_t size = 1 + 4;
  for (const std::size_t i : kept) size += result_wire_size(results[i]);
  const std::size_t at = out.size();
  out.reserve(at + size + spare);
  out.resize(at + size);
  std::uint8_t* cursor = out.data() + at;
  *cursor++ = 1;
  cursor = write_u32(cursor, static_cast<std::uint32_t>(kept.size()));
  for (const std::size_t i : kept) cursor = write_result(cursor, results[i]);
}

void put_error_item(Bytes& out, std::string_view error) {
  out.push_back(0);
  put_string(out, error);
}

Result<ClientMessage> parse_client_message(ByteSpan raw) {
  if (raw.empty()) return data_loss("wire: empty client message");
  ClientMessage msg;
  const auto type = static_cast<ClientMessageType>(raw[0]);
  const ByteSpan payload = raw.subspan(1);
  std::size_t offset = 0;
  switch (type) {
    case ClientMessageType::kQueryBatch: {
      auto count = get_u32(payload, offset);
      if (!count) return count.status();
      XS_RETURN_IF_ERROR(check_batch_count(count.value()));
      msg.queries.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto q = get_string(payload, offset);
        if (!q) return q.status();
        msg.queries.push_back(std::move(q).value());
      }
      if (offset != payload.size()) {
        return data_loss("wire: trailing bytes after query batch");
      }
      msg.type = ClientMessageType::kQueryBatch;
      return msg;
    }
    case ClientMessageType::kResultsBatch: {
      auto count = get_u32(payload, offset);
      if (!count) return count.status();
      XS_RETURN_IF_ERROR(check_batch_count(count.value()));
      msg.batch.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        if (offset >= payload.size()) return data_loss("wire: truncated batch");
        BatchItem item;
        item.ok = payload[offset] != 0;
        ++offset;
        if (item.ok) {
          auto results = parse_results_at(payload, offset);
          if (!results) return results.status();
          item.results = std::move(results).value();
        } else {
          auto e = get_string(payload, offset);
          if (!e) return e.status();
          item.error = std::move(e).value();
        }
        msg.batch.push_back(std::move(item));
      }
      if (offset != payload.size()) {
        return data_loss("wire: trailing bytes after results batch");
      }
      msg.type = ClientMessageType::kResultsBatch;
      return msg;
    }
  }
  return data_loss("wire: unknown client message type");
}

}  // namespace xsearch::core::wire
