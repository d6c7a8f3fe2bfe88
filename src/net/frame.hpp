// Length-prefixed message framing over a ByteStream.
//
// Every message on the client↔proxy wire is one frame:
//
//   u32_be length || u32_be budget_millis || type || payload
//
// `length` counts the type byte and the payload (so it is never 0, and at
// most kMaxFramePayload + 1). `budget_millis` is the request's *remaining*
// deadline budget, not an absolute time (the endpoints share no clock);
// 0 means "no deadline". Errors travel as kErrorStatus frames carrying a
// typed status code, so a client can tell a shed request from a dead
// session from a refused handshake.
//
// The framing layer is deliberately dumb: all confidentiality and integrity
// comes from the SecureChannel records *inside* the frames, so a network
// attacker tampering with frames only produces authentication failures at
// the enclave boundary.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/deadline.hpp"
#include "common/status.hpp"
#include "net/socket.hpp"

namespace xsearch::net {

/// Frame types of the proxy protocol.
enum class FrameType : std::uint8_t {
  kHello = 0x01,          // client ephemeral public key
  kHelloReply = 0x81,     // session id + quote + server ephemeral key
  kQuery = 0x02,          // session id + encrypted query-batch record
                          // (ONE seal/open for the whole batch)
  kQueryReply = 0x82,     // encrypted results-batch record
  kErrorStatus = 0x7e,    // u8 status code || human-readable message
};

struct Frame {
  FrameType type = FrameType::kErrorStatus;
  Bytes payload;
  /// Remaining request budget; 0 = no deadline.
  std::uint32_t budget_millis = 0;
};

/// Hard cap keeps a malicious peer from forcing giant allocations.
inline constexpr std::size_t kMaxFramePayload = 4u * 1024 * 1024;

struct FrameWriteOptions {
  /// Deadline for the socket writes themselves (infinite by default).
  Deadline io_deadline;
  /// Remaining request budget carried on the wire (0 = no deadline).
  std::uint32_t budget_millis = 0;
};

struct FrameReadOptions {
  /// Deadline for reading the whole frame. Infinite by default.
  Deadline io_deadline;
};

/// Incremental, zero-copy frame parser over a connection's receive buffer.
///
/// Where `read_frame` pulls fresh `Bytes` out of a blocking stream,
/// the cursor examines whatever bytes the reactor has buffered and either
/// reports how many more are needed or yields a `View` whose payload is a
/// span *into the caller's buffer* — no allocation, no copy (the PR 3
/// tokenizer idiom applied to the wire). The caller owns buffer lifetime:
/// a View is valid only until the buffer is mutated or the parsed prefix
/// (`frame_bytes`) is consumed.
class FrameCursor {
 public:
  /// A parsed frame borrowed from the buffer.
  struct View {
    FrameType type = FrameType::kErrorStatus;
    ByteSpan payload;                  // view into the parsed buffer
    std::uint32_t budget_millis = 0;   // deadline budget (0 = none)
    std::size_t frame_bytes = 0;       // total wire size; consume this much
  };

  enum class State : std::uint8_t {
    kNeedHeader,  // length or budget word incomplete
    kNeedBody,    // length known, body incomplete
    kFrame,       // `frame` holds one complete frame
    kError,       // malformed input; the connection is unrecoverable
  };

  struct Step {
    State state = State::kNeedHeader;
    View frame;            // valid when state == kFrame
    /// Total buffered bytes required before the next parse can progress
    /// (valid for kNeedHeader/kNeedBody; a read-size hint, not a promise
    /// the frame completes there).
    std::size_t need = 0;
    Status error = Status::ok();  // valid when state == kError
  };

  /// Examines `buffered` (the unconsumed front of a receive buffer) and
  /// parses at most one frame. Pure and stateless: re-invoke with a longer
  /// prefix after reading more, or with the remainder after consuming
  /// `frame_bytes`.
  [[nodiscard]] static Step parse(ByteSpan buffered);
};

/// Serializes a frame header (length word, budget word, type byte) for `payload_size` payload bytes. The write side of FrameCursor:
/// queue the header and the payload as separate buffers and a vectored
/// write sends both without gluing them into a fresh allocation.
[[nodiscard]] Result<Bytes> encode_frame_header(
    FrameType type, std::size_t payload_size,
    const FrameWriteOptions& options = {});

/// Writes one frame: header and payload in one `write_all`.
[[nodiscard]] Status write_frame(ByteStream& stream, FrameType type,
                                 ByteSpan payload,
                                 const FrameWriteOptions& options = {});

/// Reads one frame in two reads (the length word, then the rest); the
/// second read's buffer becomes the payload. DATA_LOSS on malformed/oversized
/// input or mid-frame EOF, DEADLINE_EXCEEDED past the read options' deadlines.
[[nodiscard]] Result<Frame> read_frame(ByteStream& stream,
                                       const FrameReadOptions& options = {});

/// Payload helpers for kErrorStatus frames (`u8 code || message`).
[[nodiscard]] Bytes encode_error_status(const Status& status);
/// The carried Status; malformed payloads (or a carried OK) decode to
/// kInternal so an error frame can never read as success.
[[nodiscard]] Status decode_error_status(ByteSpan payload);

}  // namespace xsearch::net
