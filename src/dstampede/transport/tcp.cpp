#include "dstampede/transport/tcp.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
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
  // One writev-style send to avoid Nagle interactions on tiny frames.
  Buffer frame;
  frame.reserve(4 + payload.size());
  frame.insert(frame.end(), header, header + 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return SendAll(frame);
}

Status TcpConnection::RecvFrame(Buffer& out, Deadline deadline) {
  std::uint8_t header[4];
  DS_RETURN_IF_ERROR(RecvExact(std::span<std::uint8_t>(header, 4), deadline));
  const std::uint32_t len = (static_cast<std::uint32_t>(header[0]) << 24) |
                            (static_cast<std::uint32_t>(header[1]) << 16) |
                            (static_cast<std::uint32_t>(header[2]) << 8) |
                            header[3];
  if (len > kMaxFrame) return InternalError("oversized frame");
  out.resize(len);
  return RecvExact(std::span<std::uint8_t>(out.data(), len), deadline);
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
