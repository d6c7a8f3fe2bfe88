#include "net/frame_protocol.hpp"

#include <cstring>
#include <optional>
#include <utility>

#include "net/frame.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::net {

namespace {

/// Per-connection protocol: incremental frame parsing on the loop thread,
/// enclave/handler work on dispatch workers. Job bytes are
/// `[type byte][frame payload]` — the single copy out of the recv buffer.
class FrameProtocol final : public ConnectionProtocol {
 public:
  explicit FrameProtocol(core::ProxyHandler* proxy) : proxy_(proxy) {}

  Action on_input(ByteSpan buffered) override {
    Action action;
    const FrameCursor::Step step = FrameCursor::parse(buffered);
    switch (step.state) {
      case FrameCursor::State::kError:
        // Malformed length word: the stream has lost framing, so there is
        // no frame boundary to answer at. Close silently.
        action.close = true;
        return action;
      case FrameCursor::State::kNeedHeader:
      case FrameCursor::State::kNeedBody:
        action.need = step.need;
        // Once the length word is in, the frame has started: the reactor's
        // io budget bounds finishing it (anti-slowloris).
        action.mid_message = buffered.size() >= 4;
        return action;
      case FrameCursor::State::kFrame:
        break;
    }

    const FrameCursor::View& frame = step.frame;
    action.consumed = frame.frame_bytes;
    switch (frame.type) {
      case FrameType::kHello:
        if (frame.payload.size() != crypto::kX25519KeySize) {
          action.reply = encode_error_frame(invalid_argument("bad hello"));
          action.close = true;
          return action;
        }
        break;
      case FrameType::kQuery:
      case FrameType::kBatchQuery:
        if (frame.payload.size() < 8) {
          action.reply = encode_error_frame(invalid_argument("bad query frame"));
          action.close = true;
          return action;
        }
        break;
      default:
        action.reply = encode_error_frame(invalid_argument("unexpected frame"));
        action.close = true;
        return action;
    }

    action.dispatch = true;
    action.deadline = Deadline::from_budget_millis(frame.budget_millis);
    action.job.reserve(1 + frame.payload.size());
    action.job.push_back(static_cast<std::uint8_t>(frame.type));
    append(action.job, frame.payload);
    return action;
  }

  JobResult run_job(ByteSpan job, const Deadline& deadline) override {
    JobResult result;
    const auto type = static_cast<FrameType>(job[0]);
    const ByteSpan payload = job.subspan(1);

    if (type == FrameType::kHello) {
      crypto::X25519Key client_pub;
      std::memcpy(client_pub.data(), payload.data(), client_pub.size());
      auto response = proxy_->handshake(client_pub);
      if (!response) {
        result.reply.push_back(encode_error_frame(response.status()));
        result.close = true;
        return result;
      }
      Bytes body;
      core::wire::put_u64(body, response.value().session_id);
      const Bytes quote = response.value().quote.serialize();
      core::wire::put_u32(body, static_cast<std::uint32_t>(quote.size()));
      append(body, quote);
      append(body, response.value().server_ephemeral_pub);
      push_frame(result.reply, FrameType::kHelloReply, std::move(body));
      return result;
    }

    // kQuery / kBatchQuery (on_input admits nothing else). Identical
    // host-side handling: the frame carries session id + one sealed record;
    // whether that record holds one query or a batch is decided inside the
    // enclave. Only the reply type mirrors the request's.
    const FrameType reply_type = type == FrameType::kQuery
                                     ? FrameType::kQueryReply
                                     : FrameType::kBatchReply;
    std::size_t offset = 0;
    const std::uint64_t session = core::wire::get_u64(payload, offset).value();
    auto response =
        proxy_->handle_query_record(session, payload.subspan(offset), deadline);
    if (!response) {
      Status status = response.status();
      if (status.code() == StatusCode::kUnavailable) {
        // On the query path UNAVAILABLE means the handler's own dependency
        // (fleet worker, enclave) is the problem — tell the client so it
        // stops retrying a proxy that cannot help it.
        status = upstream_down(status.message());
      }
      result.reply.push_back(encode_error_frame(status));
      return result;  // the connection keeps serving
    }
    push_frame(result.reply, reply_type, std::move(response).value());
    return result;
  }

  JobResult shed(const Status& status) override {
    JobResult result;
    result.reply.push_back(encode_error_frame(status));
    result.close = true;
    return result;
  }

 private:
  /// Queues header + payload as separate buffers; the reactor's vectored
  /// write sends both without a gluing copy.
  static void push_frame(std::vector<Bytes>& out, FrameType type,
                         Bytes payload) {
    out.push_back(encode_frame_header(type, payload.size()).value());
    out.push_back(std::move(payload));
  }

  core::ProxyHandler* proxy_;
};

/// A connection to a FrameProtocol run in the caller's thread. Writes are
/// parsed at once; a complete request waits, like one in a reactor's
/// dispatch queue, until its reply is read, and is then run — or shed if
/// its budget ran out in the meantime.
class InProcessStream final : public ByteStream {
 public:
  explicit InProcessStream(core::ProxyHandler& proxy)
      : protocol_(make_frame_protocol(proxy)) {}

  using ByteStream::read_exact;
  using ByteStream::write_all;

  Status write_all(ByteSpan data, const Deadline& deadline) override {
    if (deadline.expired()) {
      return deadline_exceeded("in-process: send deadline exceeded");
    }
    if (shut_ || closed_) return unavailable("in-process: connection closed");
    append(inbox_, data);
    parse();
    return Status::ok();
  }

  Result<Bytes> read_exact(std::size_t n, const Deadline& /*deadline*/) override {
    while (!shut_ && outbox_.size() - read_pos_ < n && job_.has_value()) {
      run_job();
    }
    if (shut_) return data_loss("in-process: connection shut down");
    if (outbox_.size() - read_pos_ >= n) {
      const auto first = outbox_.begin() + static_cast<std::ptrdiff_t>(read_pos_);
      Bytes out(first, first + static_cast<std::ptrdiff_t>(n));
      read_pos_ += n;
      if (read_pos_ == outbox_.size()) {
        outbox_.clear();
        read_pos_ = 0;
      }
      return out;
    }
    if (closed_) return data_loss("in-process: peer closed connection");
    // No request is waiting that could produce these bytes: blocking would
    // only ever run into the deadline, so report that at once.
    return deadline_exceeded("in-process: no reply pending");
  }

  void shutdown_both() override { shut_ = true; }
  /// False once either side closed the connection (replies already
  /// produced stay readable).
  [[nodiscard]] bool valid() const override { return !shut_ && !closed_; }

 private:
  struct Job {
    Bytes bytes;
    Deadline deadline;
  };

  /// Feeds buffered input to the protocol until a request is dispatched
  /// (one is in flight at a time, as in the reactor), the input runs out,
  /// or the protocol closes the connection.
  void parse() {
    std::size_t offset = 0;
    while (!job_.has_value() && !closed_) {
      ConnectionProtocol::Action action =
          protocol_->on_input(ByteSpan(inbox_).subspan(offset));
      offset += action.consumed;
      append(outbox_, action.reply);
      closed_ = action.close;
      if (action.dispatch) {
        job_.emplace(Job{std::move(action.job), action.deadline});
      }
      if (action.consumed == 0) break;  // incomplete frame: wait for bytes
    }
    inbox_.erase(inbox_.begin(),
                 inbox_.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  /// What a reactor worker does with a dequeued job, then resumes parsing.
  void run_job() {
    Job job = std::move(*job_);
    job_.reset();
    const ConnectionProtocol::JobResult result =
        job.deadline.expired()
            ? protocol_->shed(
                  deadline_exceeded("request deadline expired while queued"))
            : protocol_->run_job(job.bytes, job.deadline);
    for (const Bytes& chunk : result.reply) append(outbox_, chunk);
    closed_ = closed_ || result.close;
    parse();
  }

  std::unique_ptr<ConnectionProtocol> protocol_;
  Bytes inbox_;              // written bytes not yet consumed as a frame
  std::optional<Job> job_;   // the dispatched request awaiting its reader
  Bytes outbox_;             // reply bytes not yet read
  std::size_t read_pos_ = 0;
  bool closed_ = false;      // the protocol closed the connection
  bool shut_ = false;        // our side shut the stream down
};

}  // namespace

std::unique_ptr<ConnectionProtocol> make_frame_protocol(
    core::ProxyHandler& proxy) {
  return std::make_unique<FrameProtocol>(&proxy);
}

Bytes encode_error_frame(const Status& status) {
  // Error paths are cold: gluing header and payload into one buffer is fine.
  Bytes payload = encode_error_status(status);
  Bytes frame = encode_frame_header(FrameType::kErrorStatus, payload.size())
                    .value();
  append(frame, payload);
  return frame;
}

Connector in_process_connector(core::ProxyHandler& proxy) {
  return [&proxy]() -> Result<std::unique_ptr<ByteStream>> {
    return std::unique_ptr<ByteStream>(std::make_unique<InProcessStream>(proxy));
  };
}

}  // namespace xsearch::net
