#include "net/frame.hpp"

namespace xsearch::net {

namespace {
// Length word + budget word; the type byte follows.
constexpr std::size_t kHeaderBytes = 8;
}  // namespace

FrameCursor::Step FrameCursor::parse(ByteSpan buffered) {
  Step step;
  if (buffered.size() < 4) {
    step.state = State::kNeedHeader;
    step.need = 4;
    return step;
  }
  // Validate the length word as soon as it is in, before waiting for the
  // budget word: a garbage header is refused on its first four bytes.
  const std::uint32_t length = load_be32(buffered.data());
  if (length == 0 || length > kMaxFramePayload + 1) {
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
  auto header = encode_frame_header(type, payload.size(), options);
  if (!header) return header.status();
  XS_RETURN_IF_ERROR(stream.write_all(header.value(), options.io_deadline));
  return stream.write_all(payload, options.io_deadline);
}

Result<Frame> read_frame(ByteStream& stream, const FrameReadOptions& options) {
  // Blocking shim over the incremental parser: one parse logic for both the
  // reactor's zero-copy path and the clients' exact-read path.
  Bytes buffer;
  Deadline deadline = options.io_deadline;
  bool body_bounded = false;
  for (;;) {
    const auto step = FrameCursor::parse(buffer);
    switch (step.state) {
      case FrameCursor::State::kError:
        return step.error;
      case FrameCursor::State::kFrame: {
        Frame frame;
        frame.type = step.frame.type;
        frame.budget_millis = step.frame.budget_millis;
        frame.payload.assign(step.frame.payload.begin(),
                             step.frame.payload.end());
        return frame;
      }
      case FrameCursor::State::kNeedHeader:
      case FrameCursor::State::kNeedBody: {
        // Once the length word is in, the frame has started: the (optional)
        // body budget applies on top of the caller's overall deadline.
        if (buffer.size() >= 4 && !body_bounded && options.body_budget > 0) {
          body_bounded = true;
          deadline = deadline.min(Deadline::after(options.body_budget));
        }
        auto chunk = stream.read_exact(step.need - buffer.size(), deadline);
        if (!chunk) return chunk.status();
        append(buffer, chunk.value());
        break;
      }
    }
  }
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
