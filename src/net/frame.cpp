#include "net/frame.hpp"

namespace xsearch::net {

namespace {
// Length word + budget word; the type byte follows.
constexpr std::size_t kLengthBytes = 4;
constexpr std::size_t kBudgetBytes = 4;
constexpr std::size_t kHeaderBytes = kLengthBytes + kBudgetBytes;

// `length` counts the type byte and the payload.
[[nodiscard]] bool length_in_range(std::uint32_t length) {
  return length != 0 && length <= kMaxFramePayload + 1;
}
}  // namespace

FrameCursor::Step FrameCursor::parse(ByteSpan buffered) {
  Step step;
  if (buffered.size() < kLengthBytes) {
    step.state = State::kNeedHeader;
    step.need = kLengthBytes;
    return step;
  }
  // Validate the length word as soon as it is in, before waiting for the
  // budget word: a garbage header is refused on its first four bytes.
  const std::uint32_t length = load_be32(buffered.data());
  if (!length_in_range(length)) {
    step.state = State::kError;
    step.error = data_loss("frame length out of range");
    return step;
  }
  const std::size_t total = kHeaderBytes + length;
  if (buffered.size() < kHeaderBytes) {
    step.state = State::kNeedHeader;
    step.need = kHeaderBytes;
    return step;
  }
  if (buffered.size() < total) {
    step.state = State::kNeedBody;
    step.need = total;
    return step;
  }

  step.state = State::kFrame;
  step.frame.budget_millis = load_be32(buffered.data() + 4);
  step.frame.type = static_cast<FrameType>(buffered[kHeaderBytes]);
  step.frame.payload = buffered.subspan(kHeaderBytes + 1, length - 1);
  step.frame.frame_bytes = total;
  return step;
}

Result<Bytes> encode_frame_header(FrameType type, std::size_t payload_size,
                                  const FrameWriteOptions& options) {
  if (payload_size > kMaxFramePayload) {
    return invalid_argument("frame payload too large");
  }
  Bytes header(kHeaderBytes + 1);
  store_be32(header.data(), static_cast<std::uint32_t>(payload_size + 1));
  store_be32(header.data() + 4, options.budget_millis);
  header[kHeaderBytes] = static_cast<std::uint8_t>(type);
  return header;
}

Status write_frame(ByteStream& stream, FrameType type, ByteSpan payload,
                   const FrameWriteOptions& options) {
  auto frame = encode_frame_header(type, payload.size(), options);
  if (!frame) return frame.status();
  // One write per frame: a header sent alone would cost its own send(2)
  // and, under TCP_NODELAY, its own segment. The payloads here are small.
  append(frame.value(), payload);
  return stream.write_all(frame.value(), options.io_deadline);
}

Result<Frame> read_frame(ByteStream& stream, const FrameReadOptions& options) {
  // Two reads per frame: the length word, refused at once if out of range,
  // then the rest of the frame (budget word, type byte, payload) in one
  // call, whose buffer becomes the payload.
  auto length_word = stream.read_exact(kLengthBytes, options.io_deadline);
  if (!length_word) return length_word.status();
  const std::uint32_t length = load_be32(length_word.value().data());
  if (!length_in_range(length)) return data_loss("frame length out of range");
  // The budget word, then `length` bytes: the type byte and the payload.
  auto rest = stream.read_exact(kBudgetBytes + length, options.io_deadline);
  if (!rest) return rest.status();
  Bytes& body = rest.value();
  Frame frame;
  frame.budget_millis = load_be32(body.data());
  frame.type = static_cast<FrameType>(body[kBudgetBytes]);
  // The one copy: the payload slides to the front of its own buffer.
  body.erase(body.begin(), body.begin() + kBudgetBytes + 1);
  frame.payload = std::move(body);
  return frame;
}

Bytes encode_error_status(const Status& status) {
  Bytes payload;
  payload.reserve(1 + status.message().size());
  payload.push_back(static_cast<std::uint8_t>(status.code()));
  for (const char c : status.message()) {
    payload.push_back(static_cast<std::uint8_t>(c));
  }
  return payload;
}

Status decode_error_status(ByteSpan payload) {
  if (payload.empty()) {
    return internal_error("malformed error-status frame");
  }
  const StatusCode code = status_code_from_wire(payload[0]);
  std::string message(reinterpret_cast<const char*>(payload.data()) + 1,
                      payload.size() - 1);
  if (code == StatusCode::kOk) {
    return internal_error("error-status frame carried OK: " + message);
  }
  return Status(code, std::move(message));
}

}  // namespace xsearch::net
