#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

namespace mcfs::net {

namespace {

// Bounds one blocking socket syscall with poll(). `events` is POLLIN or
// POLLOUT. kEAGAIN = deadline passed; kEIO = fd error/hangup.
Status PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno::kEIO;
    }
    if (rc == 0) return Errno::kEAGAIN;
    // POLLERR/POLLHUP still allow a final read (to observe EOF), so
    // treat any wakeup as "go try the syscall".
    return Status::Ok();
  }
}

void SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  (void)::fcntl(fd, F_SETFL, want);
}

Result<struct sockaddr_in> TcpAddr(const Endpoint& ep) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  // Numeric addresses plus "localhost"; a model-checking cluster is
  // addressed by IP, not DNS, and resolving here would add an unbounded
  // blocking call to a layer that promises bounded ones.
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Errno::kEINVAL;
  }
  return addr;
}

Result<struct sockaddr_un> UnixAddr(const Endpoint& ep) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (ep.path.size() >= sizeof(addr.sun_path)) return Errno::kENAMETOOLONG;
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
  return addr;
}

}  // namespace

std::string Endpoint::ToString() const {
  if (is_unix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

Result<Endpoint> ParseEndpoint(std::string_view text) {
  Endpoint ep;
  if (text.starts_with("unix:")) {
    ep.is_unix = true;
    ep.path = std::string(text.substr(5));
    if (ep.path.empty()) return Errno::kEINVAL;
    return ep;
  }
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Errno::kEINVAL;
  }
  ep.host = std::string(text.substr(0, colon));
  const std::string_view port_str = text.substr(colon + 1);
  std::uint32_t port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') return Errno::kEINVAL;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) return Errno::kEINVAL;
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status Socket::SendAll(ByteView data, int timeout_ms) {
  if (fd_ < 0) return Errno::kEBADF;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (Status s = PollFor(fd_, POLLOUT, timeout_ms); !s.ok()) return s;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno::kEIO;
  }
  return Status::Ok();
}

Result<std::size_t> Socket::SendSome(ByteView data) {
  if (fd_ < 0) return Errno::kEBADF;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return Errno::kEIO;
  }
  return sent;
}

Result<std::size_t> Socket::RecvSome(std::uint8_t* buf, std::size_t len,
                                     int timeout_ms) {
  if (fd_ < 0) return Errno::kEBADF;
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0) return static_cast<std::size_t>(n);  // 0 = EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (Status s = PollFor(fd_, POLLIN, timeout_ms); !s.ok()) {
        return s.error();
      }
      continue;
    }
    if (errno == EINTR) continue;
    return Errno::kEIO;
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ConnectTo(const Endpoint& endpoint, int timeout_ms) {
  const int domain = endpoint.is_unix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return Errno::kEIO;
  Socket sock(fd);
  SetNonBlocking(fd, true);

  int rc;
  if (endpoint.is_unix) {
    auto addr = UnixAddr(endpoint);
    if (!addr.ok()) return addr.error();
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
                   sizeof(addr.value()));
  } else {
    auto addr = TcpAddr(endpoint);
    if (!addr.ok()) return addr.error();
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
                   sizeof(addr.value()));
  }
  if (rc < 0 && errno == EINPROGRESS) {
    if (Status s = PollFor(fd, POLLOUT, timeout_ms); !s.ok()) return s.error();
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      return Errno::kEIO;
    }
  } else if (rc < 0) {
    return Errno::kEIO;
  }

  if (!endpoint.is_unix) {
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return sock;
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)),
      endpoint_(std::move(other.endpoint_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_acq_rel),
              std::memory_order_release);
    endpoint_ = std::move(other.endpoint_);
  }
  return *this;
}

Result<Listener> Listener::Bind(const Endpoint& endpoint) {
  const int domain = endpoint.is_unix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) return Errno::kEIO;
  Socket guard(fd);  // closes on any early return
  SetNonBlocking(fd, true);

  Listener listener;
  listener.endpoint_ = endpoint;
  if (endpoint.is_unix) {
    auto addr = UnixAddr(endpoint);
    if (!addr.ok()) return addr.error();
    // A previous run's socket file blocks bind(); stale-file removal is
    // the standard Unix-socket idiom.
    (void)::unlink(endpoint.path.c_str());
    if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
               sizeof(addr.value())) < 0) {
      return Errno::kEIO;
    }
  } else {
    auto addr = TcpAddr(endpoint);
    if (!addr.ok()) return addr.error();
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr.value()),
               sizeof(addr.value())) < 0) {
      return Errno::kEIO;
    }
    if (endpoint.port == 0) {
      struct sockaddr_in bound;
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                        &len) < 0) {
        return Errno::kEIO;
      }
      listener.endpoint_.port = ntohs(bound.sin_port);
    }
  }
  if (::listen(fd, 64) < 0) return Errno::kEIO;

  listener.fd_.store(guard.release(), std::memory_order_release);
  return listener;
}

Result<Socket> Listener::Accept(int timeout_ms) {
  // Snapshot: Close() may race from another thread. The fd stays valid
  // for the whole call — Close() only shuts it down (waking us), the
  // close happens after the exchange so we never see a recycled fd.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return Errno::kEIO;
  for (;;) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) {
      Socket sock(conn);
      SetNonBlocking(conn, true);
      return sock;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (Status s = PollFor(fd, POLLIN, timeout_ms); !s.ok()) {
        return s.error();
      }
      if (fd_.load(std::memory_order_acquire) < 0) {
        return Errno::kEIO;  // closed while we slept
      }
      continue;
    }
    if (errno == EINTR) continue;
    return Errno::kEIO;
  }
}

void Listener::Close() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes a thread blocked in poll()/accept() on this fd;
    // plain close() would leave it sleeping until its timeout.
    (void)::shutdown(fd, SHUT_RDWR);
    (void)::close(fd);
    if (endpoint_.is_unix) (void)::unlink(endpoint_.path.c_str());
  }
}

}  // namespace mcfs::net
