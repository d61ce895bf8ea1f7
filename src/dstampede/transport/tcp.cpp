#include "dstampede/transport/tcp.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace dstampede::transport {
namespace {

sockaddr_in ToSockaddr(const SockAddr& addr) {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(addr.ip_host_order);
  sin.sin_port = htons(addr.port);
  return sin;
}

SockAddr FromSockaddr(const sockaddr_in& sin) {
  return SockAddr{ntohl(sin.sin_addr.s_addr), ntohs(sin.sin_port)};
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Result<TcpConnection> TcpConnection::Connect(const SockAddr& addr,
                                             Deadline deadline) {
  (void)deadline;  // connect on loopback completes immediately or fails
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  sockaddr_in sin = ToSockaddr(addr);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sin), sizeof sin) != 0) {
    return ErrnoStatus("connect");
  }
  SetNoDelay(fd.get());
  return TcpConnection(std::move(fd));
}

Status TcpConnection::SendAll(std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_.get(), data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return OkStatus();
}

Status TcpConnection::RecvSome(std::uint8_t* dst, std::size_t n,
                               std::size_t& got, Deadline deadline) {
  DS_RETURN_IF_ERROR(WaitReadable(fd_.get(), deadline));
  ssize_t r = ::recv(fd_.get(), dst, n, 0);
  if (r < 0) {
    if (errno == EINTR) {
      got = 0;
      return OkStatus();
    }
    return ErrnoStatus("recv");
  }
  if (r == 0) return ConnectionClosedError("peer closed");
  got = static_cast<std::size_t>(r);
  return OkStatus();
}

Status TcpConnection::RecvExact(std::span<std::uint8_t> data,
                                Deadline deadline) {
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t got = 0;
    DS_RETURN_IF_ERROR(
        RecvSome(data.data() + off, data.size() - off, got, deadline));
    off += got;
  }
  return OkStatus();
}

Status TcpConnection::SendFrame(std::span<const std::uint8_t> payload) {
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<std::uint8_t>(len >> 24);
  header[1] = static_cast<std::uint8_t>(len >> 16);
  header[2] = static_cast<std::uint8_t>(len >> 8);
  header[3] = static_cast<std::uint8_t>(len);
  // One gathering send of length and payload: no Nagle split of a tiny
  // frame and no copy into a joined buffer. A partial write resumes
  // where it stopped.
  iovec parts[2] = {
      {header, sizeof header},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  std::size_t left = sizeof header + payload.size();
  while (left > 0) {
    ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    left -= static_cast<std::size_t>(n);
    for (auto sent = static_cast<std::size_t>(n); sent > 0;) {
      iovec& part = *msg.msg_iov;
      const std::size_t step = std::min(sent, part.iov_len);
      part.iov_base = static_cast<std::uint8_t*>(part.iov_base) + step;
      part.iov_len -= step;
      sent -= step;
      if (part.iov_len == 0) {
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
    }
  }
  return OkStatus();
}

namespace {
// A frame's body grows at most this far past the bytes that arrived,
// so a claimed length costs nothing until its bytes come.
constexpr std::size_t kFrameGrowth = 256 << 10;
}  // namespace

Status TcpConnection::RecvFrame(Buffer& out, Deadline deadline) {
  // A frame an earlier call left unfinished resumes with its bytes.
  if (header_got_ != 0) out.swap(partial_);
  Status status = ContinueFrame(out, deadline);
  if (status.code() == StatusCode::kTimeout && header_got_ != 0) {
    out.swap(partial_);
  }
  return status;
}

Status TcpConnection::ContinueFrame(Buffer& out, Deadline deadline) {
  while (header_got_ < sizeof header_) {
    std::size_t got = 0;
    DS_RETURN_IF_ERROR(RecvSome(header_ + header_got_,
                                sizeof header_ - header_got_, got, deadline));
    header_got_ += got;
  }
  const std::uint32_t len = (static_cast<std::uint32_t>(header_[0]) << 24) |
                            (static_cast<std::uint32_t>(header_[1]) << 16) |
                            (static_cast<std::uint32_t>(header_[2]) << 8) |
                            header_[3];
  if (len > kMaxFrame) return InternalError("oversized frame");
  while (body_got_ < len) {
    const std::size_t end =
        std::min<std::size_t>(len, body_got_ + kFrameGrowth);
    if (out.size() < end) out.resize(end);
    std::size_t got = 0;
    DS_RETURN_IF_ERROR(
        RecvSome(out.data() + body_got_, end - body_got_, got, deadline));
    body_got_ += got;
  }
  out.resize(len);
  header_got_ = 0;
  body_got_ = 0;
  return OkStatus();
}

Result<TcpListener> TcpListener::Bind(std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sin = ToSockaddr(SockAddr::Loopback(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sin), sizeof sin) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd.get(), 64) != 0) return ErrnoStatus("listen");
  socklen_t len = sizeof sin;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&sin), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.bound_ = FromSockaddr(sin);
  return listener;
}

void TcpListener::ShutdownRead() { (void)::shutdown(fd_.get(), SHUT_RD); }

Result<TcpConnection> TcpListener::Accept(Deadline deadline) {
  DS_RETURN_IF_ERROR(WaitReadable(fd_.get(), deadline));
  sockaddr_in sin{};
  socklen_t len = sizeof sin;
  int fd = ::accept(fd_.get(), reinterpret_cast<sockaddr*>(&sin), &len);
  if (fd < 0) return ErrnoStatus("accept");
  SetNoDelay(fd);
  return TcpConnection(FdHandle(fd));
}

}  // namespace dstampede::transport
