#include "dstampede/transport/udp.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace dstampede::transport {

Result<UdpSocket> UdpSocket::Bind(std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  // Generous buffers: CLF bursts fragments of large frames.
  int bufsz = 4 << 20;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof bufsz);
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof bufsz);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(0x7f000001u);
  sin.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sin), sizeof sin) != 0) {
    return ErrnoStatus("bind");
  }
  socklen_t len = sizeof sin;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&sin), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  UdpSocket sock;
  sock.fd_ = std::move(fd);
  sock.bound_ = SockAddr{ntohl(sin.sin_addr.s_addr), ntohs(sin.sin_port)};
  return sock;
}

namespace {

sockaddr_in ToSockaddr(const SockAddr& to) {
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(to.ip_host_order);
  sin.sin_port = htons(to.port);
  return sin;
}

// Runs `send` (a sendto or sendmsg) until it is not interrupted.
template <typename Send>
Status SendDatagram(Send send) {
  for (;;) {
    if (send() >= 0) return OkStatus();
    if (errno == EINTR) continue;
    if (errno == ENOBUFS || errno == EAGAIN) {
      // Loopback send buffer momentarily full: drop, CLF retransmits.
      return OkStatus();
    }
    return ErrnoStatus("sendto");
  }
}

}  // namespace

Status UdpSocket::SendTo(const SockAddr& to,
                         std::span<const std::uint8_t> data) {
  if (data.size() > kMaxUdpDatagram) {
    return InvalidArgumentError("datagram exceeds UDP limit");
  }
  sockaddr_in sin = ToSockaddr(to);
  return SendDatagram([&] {
    return ::sendto(fd_.get(), data.data(), data.size(), 0,
                    reinterpret_cast<sockaddr*>(&sin), sizeof sin);
  });
}

Status UdpSocket::SendTo(const SockAddr& to,
                         std::span<const std::uint8_t> header,
                         std::span<const std::uint8_t> payload) {
  if (header.size() + payload.size() > kMaxUdpDatagram) {
    return InvalidArgumentError("datagram exceeds UDP limit");
  }
  sockaddr_in sin = ToSockaddr(to);
  iovec parts[2] = {
      {const_cast<std::uint8_t*>(header.data()), header.size()},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_name = &sin;
  msg.msg_namelen = sizeof sin;
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  return SendDatagram([&] { return ::sendmsg(fd_.get(), &msg, 0); });
}

void UdpSocket::ShutdownRead() {
  // An unconnected socket reports ENOTCONN, and its pollers wake all
  // the same.
  (void)::shutdown(fd_.get(), SHUT_RD);
}

Status UdpSocket::RecvFrom(Buffer& out, SockAddr& from, Deadline deadline) {
  out.resize(kMaxUdpDatagram);
  Result<std::size_t> n = RecvInto(out, from, deadline);
  DS_RETURN_IF_ERROR(n.status());
  out.resize(*n);
  return OkStatus();
}

Result<std::size_t> UdpSocket::RecvInto(std::span<std::uint8_t> buf,
                                        SockAddr& from, Deadline deadline) {
  if (!deadline.expired()) {
    DS_RETURN_IF_ERROR(WaitReadable(fd_.get(), deadline));
  }
  sockaddr_in sin{};
  socklen_t len = sizeof sin;
  ssize_t n = ::recvfrom(fd_.get(), buf.data(), buf.size(), MSG_DONTWAIT,
                         reinterpret_cast<sockaddr*>(&sin), &len);
  if (n < 0) {
    if (errno == EINTR) return TimeoutError("interrupted");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return TimeoutError("no datagram queued");
    }
    return ErrnoStatus("recvfrom");
  }
  from = SockAddr{ntohl(sin.sin_addr.s_addr), ntohs(sin.sin_port)};
  return static_cast<std::size_t>(n);
}

}  // namespace dstampede::transport
