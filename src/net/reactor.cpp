#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "net/timer_wheel.hpp"

namespace xsearch::net {

namespace {

// epoll_event.data.u64 tags; connection ids start at 2.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenerTag = 1;

// How long the accept loop parks after EMFILE/ENFILE before retrying.
constexpr Nanos kAcceptBackoff = 20 * kMilli;

// Read chunk bounds: small enough not to over-allocate for chatty peers,
// large enough to drain a bulk sender in few syscalls.
constexpr std::size_t kMinReadChunk = 4 * 1024;
constexpr std::size_t kMaxReadChunk = 64 * 1024;

std::size_t resolve_shards(std::size_t requested) {
  return requested > 0 ? requested : 1;
}

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(8, std::thread::hardware_concurrency());
}

}  // namespace

/// Per-connection state. Owned and touched exclusively by its shard's loop
/// thread; dispatch workers only ever see the (shared_ptr) protocol and
/// communicate back through the shard inbox.
struct Reactor::Connection {
  enum class State : std::uint8_t {
    kReadingHeader,  // between messages (idle TTL applies)
    kReadingBody,    // a message has started (body budget applies)
    kDispatched,     // a job is queued or running on a worker
    kWriting,        // reply (or shed/error bytes) draining to the peer
  };

  TcpStream stream;
  std::uint64_t id = 0;
  State state = State::kReadingHeader;
  std::shared_ptr<ConnectionProtocol> protocol;

  // Receive buffer: unconsumed bytes live in [rpos, rbuf.size()). Consuming
  // advances rpos; the buffer compacts when the dead prefix dominates, so
  // FrameCursor views stay valid between on_input and the consume.
  Bytes rbuf;
  std::size_t rpos = 0;
  std::size_t need = 0;

  // Write queue: reply chunks flushed with vectored writes; wfront is the
  // flushed prefix of the front chunk.
  std::deque<Bytes> wqueue;
  std::size_t wfront = 0;
  bool epollout_armed = false;

  bool peer_eof = false;       // orderly half-close seen; flush, then close
  bool pending_close = false;  // close once writes flush / job completes
  std::uint64_t generation = 0;  // matches completions to the live request

  Nanos last_activity = 0;
  Nanos body_deadline = 0;   // abs ns; 0 = none (message-in-progress bound)
  Nanos write_deadline = 0;  // abs ns; 0 = none (slow-reader bound)
};

/// One event loop: epoll fd + eventfd + timer wheel + the connections it
/// owns. Only `inbox` is shared with other threads.
struct Reactor::Shard {
  explicit Shard(Nanos now) : wheel(now) {}

  FileDescriptor epoll;
  FileDescriptor wakefd;
  TimerWheel wheel;
  std::size_t index = 0;
  bool owns_listener = false;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  std::thread thread;

  struct Completion {
    std::uint64_t id = 0;
    std::uint64_t generation = 0;
    std::vector<Bytes> reply;
    bool close = false;
  };
  struct Incoming {
    TcpStream stream;
    std::uint64_t id = 0;
  };
  struct Inbox {
    Mutex mutex;
    std::vector<Completion> completions XS_GUARDED_BY(mutex);
    std::vector<Incoming> incoming XS_GUARDED_BY(mutex);
    bool stop XS_GUARDED_BY(mutex) = false;
  };
  Inbox inbox;
};

Result<std::unique_ptr<Reactor>> Reactor::start(TcpListener listener,
                                                Options options) {
  if (!options.protocol_factory) {
    return invalid_argument("reactor needs a protocol factory");
  }
  XS_RETURN_IF_ERROR(listener.set_nonblocking(true));
  auto reactor = std::unique_ptr<Reactor>(
      new Reactor(std::move(listener), std::move(options)));

  const Nanos now = wall_now();
  const std::size_t shard_count = resolve_shards(reactor->options_.shards);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>(now);
    shard->index = i;
    shard->owns_listener = i == 0;
    shard->epoll = FileDescriptor(::epoll_create1(EPOLL_CLOEXEC));
    if (!shard->epoll.valid()) {
      return unavailable(std::string("epoll_create1: ") + std::strerror(errno));
    }
    shard->wakefd = FileDescriptor(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!shard->wakefd.valid()) {
      return unavailable(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(shard->epoll.get(), EPOLL_CTL_ADD, shard->wakefd.get(),
                    &ev) != 0) {
      return unavailable(std::string("epoll_ctl(wake): ") +
                         std::strerror(errno));
    }
    if (shard->owns_listener) {
      epoll_event lev{};
      lev.events = EPOLLIN;  // level-triggered: drain_accept reads to EAGAIN
      lev.data.u64 = kListenerTag;
      if (::epoll_ctl(shard->epoll.get(), EPOLL_CTL_ADD,
                      reactor->listener_.native_fd(), &lev) != 0) {
        return unavailable(std::string("epoll_ctl(listener): ") +
                           std::strerror(errno));
      }
    }
    reactor->shards_.push_back(std::move(shard));
  }

  reactor->pool_ = std::make_unique<ThreadPool>(
      resolve_workers(reactor->options_.dispatch_workers),
      std::max<std::size_t>(1, reactor->options_.dispatch_queue));
  for (auto& shard : reactor->shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([reactor = reactor.get(), raw] {
      reactor->shard_loop(*raw);
    });
  }
  return reactor;
}

Reactor::Reactor(TcpListener listener, Options options)
    : listener_(std::move(listener)), options_(std::move(options)) {}

Reactor::~Reactor() { stop(); }

void Reactor::stop() {
  MutexLock lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  listener_.close();
  for (auto& shard : shards_) {
    {
      MutexLock inbox_lock(shard->inbox.mutex);
      shard->inbox.stop = true;
    }
    wake(*shard);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // In-flight jobs finish against their shared protocol objects; their
  // completions are dropped at the (now stopping) inboxes.
  if (pool_) pool_->shutdown();
  // No thread can be inside the listener anymore: free the port.
  listener_.release();
}

void Reactor::wake(Shard& shard) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(shard.wakefd.get(), &one, sizeof one);
}

void Reactor::shard_loop(Shard& shard) {
  std::vector<epoll_event> events(64);
  std::vector<TimerWheel::Entry> fired;
  for (;;) {
    const int timeout = shard.wheel.poll_timeout_millis(wall_now());
    const int n = ::epoll_wait(shard.epoll.get(), events.data(),
                               static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: only happens at teardown
    }

    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kWakeTag) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(shard.wakefd.get(), &drain, sizeof drain);
        bool stop_now = false;
        std::vector<Shard::Completion> completions;
        std::vector<Shard::Incoming> incoming;
        {
          MutexLock lock(shard.inbox.mutex);
          stop_now = shard.inbox.stop;
          completions.swap(shard.inbox.completions);
          incoming.swap(shard.inbox.incoming);
        }
        for (auto& in : incoming) {
          adopt_connection(shard, std::move(in.stream), in.id);
        }
        for (auto& c : completions) {
          apply_completion(shard, c.id, c.generation, std::move(c.reply),
                           c.close);
        }
        if (stop_now) {
          // Tear down every connection this shard owns and leave.
          std::vector<std::uint64_t> ids;
          ids.reserve(shard.conns.size());
          for (const auto& [id, conn] : shard.conns) ids.push_back(id);
          for (const std::uint64_t id : ids) destroy_connection(shard, id);
          return;
        }
        continue;
      }
      if (ev.data.u64 == kListenerTag) {
        drain_accept(shard);
        continue;
      }
      const std::uint64_t id = ev.data.u64;
      if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
        // Hard error: nothing more can be read or written.
        destroy_connection(shard, id);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) on_writable(shard, id);
      if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) on_readable(shard, id);
    }

    const Nanos now = wall_now();
    fired.clear();
    shard.wheel.advance(now, fired);
    for (const auto& entry : fired) on_timer(shard, entry.key, now);
  }
}

// ---- accept path -----------------------------------------------------------

void Reactor::drain_accept(Shard& shard) {
  if (accept_paused_) return;
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) return;
    bool simulated_exhaustion = false;
    if (options_.accept_fault) {
      const int fault = options_.accept_fault();
      if (fault == EMFILE || fault == ENFILE) {
        simulated_exhaustion = true;
      } else if (fault != 0) {
        return;
      }
    }
    TcpStream stream;
    if (!simulated_exhaustion) {
      auto accepted = listener_.accept_nonblocking();
      if (!accepted) return;  // listener closed or fatal
      if (accepted.value().would_block) return;
      if (accepted.value().fd_exhausted) simulated_exhaustion = true;
      if (!simulated_exhaustion) stream = std::move(accepted.value().stream);
    }
    if (simulated_exhaustion) {
      // Out of descriptors: the pending connection stays in the kernel
      // backlog. Retrying immediately would spin on the same error, so
      // park the accept loop and let the timer wheel resume it.
      fd_exhausted_.inc();
      pause_accept(shard);
      return;
    }

    accepted_.inc();
    if (options_.max_connections > 0 &&
        active_.value() >= options_.max_connections) {
      // Typed accept-time shed: tell the client it hit a full server, not a
      // dead one. Best effort — the socket is fresh, so a single
      // nonblocking write virtually always takes the few error bytes.
      shed_.inc();
      reaped_.inc();
      if (options_.encode_shed) {
        const Bytes reply = options_.encode_shed(
            overloaded("server busy: connection limit reached"));
        const ConstBuffer buffer{reply.data(), reply.size()};
        (void)stream.write_some(std::span<const ConstBuffer>(&buffer, 1));
      }
      continue;  // stream destructor closes the fd
    }

    active_.add();
    const std::uint64_t id =
        next_id_.fetch_add(1, std::memory_order_relaxed);
    Shard& target = *shards_[id % shards_.size()];
    if (&target == &shard) {
      adopt_connection(shard, std::move(stream), id);
    } else {
      {
        MutexLock lock(target.inbox.mutex);
        target.inbox.incoming.push_back(
            Shard::Incoming{std::move(stream), id});
      }
      wake(target);
    }
  }
}

void Reactor::pause_accept(Shard& shard) {
  if (accept_paused_) return;
  accept_paused_ = true;
  (void)::epoll_ctl(shard.epoll.get(), EPOLL_CTL_DEL, listener_.native_fd(),
                    nullptr);
  shard.wheel.schedule(kListenerTag, wall_now() + kAcceptBackoff);
}

void Reactor::resume_accept(Shard& shard) {
  if (!accept_paused_) return;
  accept_paused_ = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  (void)::epoll_ctl(shard.epoll.get(), EPOLL_CTL_ADD, listener_.native_fd(),
                    &ev);
  drain_accept(shard);
}

void Reactor::adopt_connection(Shard& shard, TcpStream stream,
                               std::uint64_t id) {
  auto conn = std::make_unique<Connection>();
  conn->stream = std::move(stream);
  conn->id = id;
  conn->protocol = options_.protocol_factory();
  conn->last_activity = wall_now();

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = id;
  if (::epoll_ctl(shard.epoll.get(), EPOLL_CTL_ADD, conn->stream.native_fd(),
                  &ev) != 0) {
    active_.sub();
    reaped_.inc();
    return;
  }
  Connection& ref = *conn;
  shard.conns.emplace(id, std::move(conn));
  if (options_.idle_ttl > 0) {
    schedule_conn_timer(shard, ref, ref.last_activity + options_.idle_ttl);
  }
  // Data may have arrived before the fd joined the epoll set; with
  // edge-triggered registration that edge is already behind us.
  on_readable(shard, id);
}

void Reactor::destroy_connection(Shard& shard, std::uint64_t id) {
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  // If a worker still runs this connection's job it holds its own
  // shared_ptr to the protocol; the completion will miss the id and drop.
  (void)::epoll_ctl(shard.epoll.get(), EPOLL_CTL_DEL,
                    it->second->stream.native_fd(), nullptr);
  shard.conns.erase(it);
  active_.sub();
  reaped_.inc();
}

void Reactor::schedule_conn_timer(Shard& shard, Connection& conn, Nanos due) {
  shard.wheel.schedule(conn.id, due);
}

// ---- read path -------------------------------------------------------------

void Reactor::on_readable(Shard& shard, std::uint64_t id) {
  auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  Connection* conn = it->second.get();

  // While a job is dispatched or a reply is draining we stop reading: the
  // kernel socket buffer backpressures the peer, bounding memory at one
  // request per connection. finish_request() re-enters here afterwards.
  for (;;) {
    if (conn->state == Connection::State::kDispatched ||
        conn->state == Connection::State::kWriting || conn->peer_eof) {
      return;
    }
    // Grow the buffer towards the protocol's `need` hint (whole frame) or
    // by a chunk when the need is unknown.
    const std::size_t buffered = conn->rbuf.size() - conn->rpos;
    std::size_t chunk = kMinReadChunk;
    if (conn->need > buffered) {
      chunk = std::clamp(conn->need - buffered, kMinReadChunk, kMaxReadChunk);
    }
    const std::size_t old_size = conn->rbuf.size();
    conn->rbuf.resize(old_size + chunk);
    auto progress = conn->stream.read_some(
        std::span<std::uint8_t>(conn->rbuf.data() + old_size, chunk));
    if (!progress) {
      conn->rbuf.resize(old_size);
      destroy_connection(shard, id);
      return;
    }
    conn->rbuf.resize(old_size + progress.value().bytes);
    if (progress.value().would_block) return;
    if (progress.value().eof) {
      // Orderly half-close. Anything already buffered still gets parsed and
      // answered (a client may legally send-then-shutdown); the connection
      // dies once outstanding work and writes drain.
      conn->peer_eof = true;
      conn->pending_close = true;
      process_input(shard, *conn);
      // process_input may have destroyed the connection or dispatched.
      const auto again = shard.conns.find(id);
      if (again == shard.conns.end()) return;
      conn = again->second.get();
      if (conn->state != Connection::State::kDispatched &&
          conn->state != Connection::State::kWriting) {
        destroy_connection(shard, id);
      }
      return;
    }
    conn->last_activity = wall_now();
    process_input(shard, *conn);
    const auto again = shard.conns.find(id);
    if (again == shard.conns.end()) return;
    conn = again->second.get();
  }
}

void Reactor::process_input(Shard& shard, Connection& conn) {
  const std::uint64_t id = conn.id;
  for (;;) {
    if (conn.state == Connection::State::kDispatched ||
        conn.state == Connection::State::kWriting) {
      return;
    }
    const std::size_t buffered = conn.rbuf.size() - conn.rpos;
    if (buffered < conn.need) return;  // protocol asked for more bytes

    ConnectionProtocol::Action action = conn.protocol->on_input(
        ByteSpan(conn.rbuf.data() + conn.rpos, buffered));

    if (action.consumed > 0) {
      conn.rpos += std::min(action.consumed, buffered);
      // Compact once the dead prefix dominates; views handed to on_input
      // are never held across iterations, so moving bytes here is safe.
      if (conn.rpos == conn.rbuf.size()) {
        conn.rbuf.clear();
        conn.rpos = 0;
      } else if (conn.rpos >= 4096 && conn.rpos * 2 >= conn.rbuf.size()) {
        conn.rbuf.erase(conn.rbuf.begin(),
                        conn.rbuf.begin() +
                            static_cast<std::ptrdiff_t>(conn.rpos));
        conn.rpos = 0;
      }
    }
    conn.need = action.need;

    // Body-budget bookkeeping: arms when a message starts, disarms when it
    // completes (or the connection goes back to waiting between messages).
    if (action.mid_message) {
      conn.state = Connection::State::kReadingBody;
      if (options_.io_budget > 0 && conn.body_deadline == 0) {
        conn.body_deadline = wall_now() + options_.io_budget;
        schedule_conn_timer(shard, conn, conn.body_deadline);
      }
    } else {
      conn.state = Connection::State::kReadingHeader;
      conn.body_deadline = 0;
    }

    if (action.close) conn.pending_close = true;

    if (!action.reply.empty()) {
      std::vector<Bytes> chunks;
      chunks.push_back(std::move(action.reply));
      enqueue_reply(conn, std::move(chunks), /*close=*/false);
      conn.state = Connection::State::kWriting;
      if (!flush_writes(shard, conn)) return;
      if (shard.conns.find(id) == shard.conns.end()) return;
      if (conn.state == Connection::State::kWriting) return;
    }

    if (action.dispatch) {
      dispatch_job(shard, conn, std::move(action.job), action.deadline);
      return;
    }

    if (conn.pending_close && conn.wqueue.empty() &&
        conn.state != Connection::State::kDispatched) {
      destroy_connection(shard, id);
      return;
    }

    if (action.consumed == 0) return;  // no progress without more input
  }
}

// ---- dispatch path ---------------------------------------------------------

void Reactor::dispatch_job(Shard& shard, Connection& conn, Bytes job,
                           const Deadline& deadline) {
  conn.state = Connection::State::kDispatched;
  conn.body_deadline = 0;
  const std::uint64_t generation = ++conn.generation;
  const Deadline queue_deadline =
      options_.queue_timeout > 0 ? Deadline::after(options_.queue_timeout)
                                 : Deadline();
  const std::uint64_t id = conn.id;
  auto protocol = conn.protocol;
  Shard* shard_ptr = &shard;
  const bool queued = pool_->submit(
      [this, shard_ptr, id, generation, protocol, job = std::move(job),
       deadline, queue_deadline]() mutable {
        run_dispatched(*shard_ptr, id, generation, protocol, std::move(job),
                       deadline, queue_deadline);
      });
  if (!queued) {
    // Dispatch queue full: shed this request right here on the loop thread
    // (the protocol object is ours again the moment submit refused).
    shed_.inc();
    auto result =
        conn.protocol->shed(overloaded("server busy: dispatch queue full"));
    apply_completion(shard, id, generation, std::move(result.reply),
                     result.close);
  }
}

void Reactor::run_dispatched(Shard& shard, std::uint64_t id,
                             std::uint64_t generation,
                             const std::shared_ptr<ConnectionProtocol>& protocol,
                             Bytes job, const Deadline& deadline,
                             const Deadline& queue_deadline) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  ConnectionProtocol::JobResult result;
  if (queue_deadline.expired()) {
    // Waited past the queue timeout: its client has likely timed out, so
    // shed instead of burning a worker on abandoned work.
    queue_expired_.inc();
    shed_.inc();
    result = protocol->shed(
        overloaded("server busy: request expired in dispatch queue"));
  } else if (deadline.expired()) {
    // The request's own end-to-end budget ran out while queued. Refusing
    // before the handler runs is exactly-once safe: no record was opened.
    deadline_expired_.inc();
    result = protocol->shed(
        deadline_exceeded("request deadline expired while queued"));
  } else {
    result = protocol->run_job(job, deadline);
  }
  {
    MutexLock lock(shard.inbox.mutex);
    if (shard.inbox.stop) return;
    shard.inbox.completions.push_back(Shard::Completion{
        id, generation, std::move(result.reply), result.close});
  }
  wake(shard);
}

void Reactor::apply_completion(Shard& shard, std::uint64_t id,
                               std::uint64_t generation,
                               std::vector<Bytes> reply, bool close) {
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;  // connection died while dispatched
  Connection& conn = *it->second;
  if (conn.generation != generation) return;  // stale completion
  conn.state = Connection::State::kWriting;
  enqueue_reply(conn, std::move(reply), close);
  if (!flush_writes(shard, conn)) return;
  if (conn.state != Connection::State::kWriting) finish_request(shard, id);
}

// ---- write path ------------------------------------------------------------

void Reactor::enqueue_reply(Connection& conn, std::vector<Bytes> reply,
                            bool close) {
  for (Bytes& chunk : reply) {
    if (!chunk.empty()) conn.wqueue.push_back(std::move(chunk));
  }
  if (close) conn.pending_close = true;
}

bool Reactor::flush_writes(Shard& shard, Connection& conn) {
  const std::uint64_t id = conn.id;
  while (!conn.wqueue.empty()) {
    // Gather up to a write's worth of queued chunks into one syscall.
    ConstBuffer buffers[16];
    std::size_t count = 0;
    std::size_t offset = conn.wfront;
    for (const Bytes& chunk : conn.wqueue) {
      buffers[count].data = chunk.data() + offset;
      buffers[count].size = chunk.size() - offset;
      offset = 0;
      if (++count == 16) break;
    }
    auto progress =
        conn.stream.write_some(std::span<const ConstBuffer>(buffers, count));
    if (!progress) {
      destroy_connection(shard, id);
      return false;
    }
    if (progress.value().would_block) {
      // Slow reader: hand the rest to EPOLLOUT and bound the stall.
      if (!conn.epollout_armed) {
        conn.epollout_armed = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        ev.data.u64 = id;
        (void)::epoll_ctl(shard.epoll.get(), EPOLL_CTL_MOD,
                          conn.stream.native_fd(), &ev);
      }
      if (options_.io_budget > 0 && conn.write_deadline == 0) {
        conn.write_deadline = wall_now() + options_.io_budget;
        schedule_conn_timer(shard, conn, conn.write_deadline);
      }
      conn.state = Connection::State::kWriting;
      return true;
    }
    conn.last_activity = wall_now();
    if (options_.io_budget > 0 && conn.write_deadline != 0) {
      // Progress re-arms the slow-reader budget.
      conn.write_deadline = conn.last_activity + options_.io_budget;
    }
    std::size_t remaining = progress.value().bytes;
    while (remaining > 0 && !conn.wqueue.empty()) {
      Bytes& front = conn.wqueue.front();
      const std::size_t left = front.size() - conn.wfront;
      if (remaining >= left) {
        remaining -= left;
        conn.wfront = 0;
        conn.wqueue.pop_front();
      } else {
        conn.wfront += remaining;
        remaining = 0;
      }
    }
  }

  // Fully flushed: the reply (or inline error) is out, so a kWriting
  // connection goes back to waiting for the next message.
  if (conn.state == Connection::State::kWriting) {
    conn.state = Connection::State::kReadingHeader;
  }
  conn.write_deadline = 0;
  if (conn.epollout_armed) {
    conn.epollout_armed = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = id;
    (void)::epoll_ctl(shard.epoll.get(), EPOLL_CTL_MOD,
                      conn.stream.native_fd(), &ev);
  }
  if (conn.pending_close && conn.state != Connection::State::kDispatched) {
    destroy_connection(shard, id);
    return false;
  }
  return true;
}

void Reactor::on_writable(Shard& shard, std::uint64_t id) {
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  Connection& conn = *it->second;
  if (conn.wqueue.empty()) return;
  const bool was_writing = conn.state == Connection::State::kWriting;
  if (!flush_writes(shard, conn)) return;
  if (was_writing && conn.state == Connection::State::kReadingHeader) {
    finish_request(shard, id);
  }
}

void Reactor::finish_request(Shard& shard, std::uint64_t id) {
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  Connection& conn = *it->second;
  conn.state = Connection::State::kReadingHeader;
  if (conn.peer_eof) {
    // Half-closed peer: serve whatever is still buffered, then go away.
    process_input(shard, conn);
    const auto again = shard.conns.find(id);
    if (again == shard.conns.end()) return;
    Connection& after = *again->second;
    if (after.state != Connection::State::kDispatched &&
        after.state != Connection::State::kWriting) {
      destroy_connection(shard, id);
    }
    return;
  }
  // Pipelined requests may already be buffered, and reads were paused while
  // the request was in flight — parse first, then poll the socket for
  // anything that arrived meanwhile (edge-triggered events for it are
  // behind us).
  process_input(shard, conn);
  if (shard.conns.find(id) == shard.conns.end()) return;
  on_readable(shard, id);
}

// ---- timers ----------------------------------------------------------------

void Reactor::on_timer(Shard& shard, std::uint64_t id, Nanos now) {
  if (id == kListenerTag) {
    resume_accept(shard);
    return;
  }
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;  // timer outlived its connection
  Connection& conn = *it->second;

  // Lazily validated deadlines: act on whichever is genuinely due, else
  // re-arm for the earliest still-pending one.
  if (conn.body_deadline != 0 && now >= conn.body_deadline &&
      conn.state == Connection::State::kReadingBody) {
    // Slow writer: the peer started a message and never finished it.
    destroy_connection(shard, id);
    return;
  }
  if (conn.write_deadline != 0 && now >= conn.write_deadline) {
    // Slow reader: the reply has not drained within the io budget.
    destroy_connection(shard, id);
    return;
  }
  if (options_.idle_ttl > 0 &&
      conn.state == Connection::State::kReadingHeader &&
      conn.wqueue.empty() && conn.rbuf.size() == conn.rpos &&
      now - conn.last_activity >= options_.idle_ttl) {
    idle_reaped_.inc();
    destroy_connection(shard, id);
    return;
  }

  Nanos next = 0;
  const auto consider = [&next](Nanos candidate) {
    if (candidate > 0 && (next == 0 || candidate < next)) next = candidate;
  };
  consider(conn.body_deadline);
  consider(conn.write_deadline);
  if (options_.idle_ttl > 0) consider(conn.last_activity + options_.idle_ttl);
  if (next > 0) schedule_conn_timer(shard, conn, next);
}

}  // namespace xsearch::net
