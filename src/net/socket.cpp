#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace xsearch::net {

namespace {

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

[[nodiscard]] Status set_fd_nonblocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return unavailable(errno_message("fcntl(F_GETFL)"));
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0) {
    return unavailable(errno_message("fcntl(F_SETFL)"));
  }
  return Status::ok();
}

}  // namespace

void FileDescriptor::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpStream> TcpStream::connect(const std::string& host, std::uint16_t port) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return unavailable(errno_message("socket"));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return invalid_argument("not a numeric IPv4 address: " + host);
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return unavailable(errno_message("connect"));
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(std::move(fd));
}

Connector tcp_connector(std::string host, std::uint16_t port) {
  return [host = std::move(host), port]() -> Result<std::unique_ptr<ByteStream>> {
    auto stream = TcpStream::connect(host, port);
    if (!stream) return stream.status();
    return std::unique_ptr<ByteStream>(
        std::make_unique<TcpStream>(std::move(stream).value()));
  };
}

Status TcpStream::arm_timeout(int option, const Deadline& deadline,
                              bool& armed) {
  if (deadline.is_infinite() && !armed) return Status::ok();
  timeval tv{};
  if (!deadline.is_infinite()) {
    const Nanos remaining = deadline.remaining();
    tv.tv_sec = static_cast<time_t>(remaining / kSecond);
    tv.tv_usec = static_cast<suseconds_t>((remaining % kSecond) / kMicro);
    // A zero timeval means "block forever" to the kernel; a live-but-tiny
    // deadline must still time out, so round it up to the granularity floor.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  if (::setsockopt(fd_.get(), SOL_SOCKET, option, &tv, sizeof tv) != 0) {
    return unavailable(errno_message("setsockopt(timeout)"));
  }
  armed = !deadline.is_infinite();
  return Status::ok();
}

Status TcpStream::write_all(ByteSpan data, const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    if (deadline.expired()) {
      return deadline_exceeded("send: deadline exceeded");
    }
    // Re-armed with the *remaining* budget each iteration: a peer draining
    // one byte per timeout window cannot stretch the call past its deadline
    // by more than one window.
    XS_RETURN_IF_ERROR(arm_timeout(SO_SNDTIMEO, deadline, send_timeout_armed_));
    const ssize_t n =
        ::send(fd_.get(), data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return deadline_exceeded("send: deadline exceeded");
      }
      return unavailable(errno_message("send"));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<Bytes> TcpStream::read_exact(std::size_t n, const Deadline& deadline) {
  Bytes out(n);
  std::size_t got = 0;
  while (got < n) {
    if (deadline.expired()) {
      return deadline_exceeded("recv: deadline exceeded");
    }
    XS_RETURN_IF_ERROR(arm_timeout(SO_RCVTIMEO, deadline, recv_timeout_armed_));
    const ssize_t r = ::recv(fd_.get(), out.data() + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return deadline_exceeded("recv: deadline exceeded");
      }
      return unavailable(errno_message("recv"));
    }
    if (r == 0) return data_loss("peer closed mid-message");
    got += static_cast<std::size_t>(r);
  }
  return out;
}

Status TcpStream::set_nonblocking(bool enabled) {
  return set_fd_nonblocking(fd_.get(), enabled);
}

Result<IoProgress> TcpStream::read_some(std::span<std::uint8_t> out) {
  IoProgress progress;
  if (out.empty()) return progress;
  for (;;) {
    const ssize_t r = ::recv(fd_.get(), out.data(), out.size(), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        progress.would_block = true;
        return progress;
      }
      return unavailable(errno_message("recv"));
    }
    if (r == 0) {
      progress.eof = true;
      return progress;
    }
    progress.bytes = static_cast<std::size_t>(r);
    return progress;
  }
}

Result<IoProgress> TcpStream::write_some(std::span<const ConstBuffer> buffers) {
  IoProgress progress;
  // Cap the gather list well under IOV_MAX; anything longer flushes over
  // multiple calls anyway once the socket buffer fills.
  constexpr std::size_t kMaxIov = 64;
  iovec iov[kMaxIov];
  std::size_t count = 0;
  for (const ConstBuffer& buffer : buffers) {
    if (buffer.size == 0) continue;
    iov[count].iov_base = const_cast<std::uint8_t*>(buffer.data);
    iov[count].iov_len = buffer.size;
    if (++count == kMaxIov) break;
  }
  if (count == 0) return progress;

  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  for (;;) {
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        progress.would_block = true;
        return progress;
      }
      return unavailable(errno_message("sendmsg"));
    }
    progress.bytes = static_cast<std::size_t>(n);
    return progress;
  }
}

void TcpStream::shutdown_write() {
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_WR);
}

void TcpStream::shutdown_both() {
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_RDWR);
}

Result<TcpListener> TcpListener::bind(std::uint16_t port) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return unavailable(errno_message("socket"));

  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return unavailable(errno_message("bind"));
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    return unavailable(errno_message("listen"));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return unavailable(errno_message("getsockname"));
  }
  return TcpListener(std::move(fd), ntohs(bound.sin_port));
}

Result<TcpStream> TcpListener::accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0 || closed_.load(std::memory_order_acquire)) {
    return unavailable("listener closed");
  }
  // The fd stays open until destruction, so this call can never land on a
  // kernel-reused descriptor even if close() runs concurrently; a shutdown
  // socket makes ::accept return with an error instead.
  const int client = ::accept(fd, nullptr, nullptr);
  if (client < 0) {
    return unavailable(errno_message("accept"));
  }
  if (closed_.load(std::memory_order_acquire)) {
    ::close(client);
    return unavailable("listener closed");
  }
  const int one = 1;
  (void)::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpStream(FileDescriptor(client));
}

Result<TcpListener::Accepted> TcpListener::accept_nonblocking() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0 || closed_.load(std::memory_order_acquire)) {
    return unavailable("listener closed");
  }
  for (;;) {
    const int client = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Accepted accepted;
        accepted.would_block = true;
        return accepted;
      }
      if (errno == EMFILE || errno == ENFILE) {
        Accepted accepted;
        accepted.fd_exhausted = true;
        return accepted;
      }
      return unavailable(errno_message("accept4"));
    }
    if (closed_.load(std::memory_order_acquire)) {
      ::close(client);
      return unavailable("listener closed");
    }
    const int one = 1;
    (void)::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Accepted accepted;
    accepted.stream = TcpStream(FileDescriptor(client));
    return accepted;
  }
}

Status TcpListener::set_nonblocking(bool enabled) {
  return set_fd_nonblocking(fd_.load(std::memory_order_acquire), enabled);
}

void TcpListener::close() {
  closed_.store(true, std::memory_order_release);
  const int fd = fd_.load(std::memory_order_acquire);
  // Shutdown wakes any accept() parked on the socket and makes the kernel
  // refuse new connections; the descriptor is released at destruction.
  if (fd >= 0) (void)::shutdown(fd, SHUT_RDWR);
}

void TcpListener::release() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

}  // namespace xsearch::net
