// UDP datagram endpoint. CLF builds its reliable packet transport on
// top of this (§3.2.2), and the raw path is the "UDP producer-
// consumer" baseline in Experiment 1.
#pragma once

#include <cstdint>
#include <span>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/transport/socket.hpp"

namespace dstampede::transport {

// The paper restricts Experiment 1 payloads to <= 60000 bytes because
// "UDP does not allow messages greater than 64 KB"; CLF fragments
// larger messages into datagrams below this bound.
inline constexpr std::size_t kMaxUdpDatagram = 65000;

class UdpSocket {
 public:
  UdpSocket() = default;

  // Binds to loopback. port==0 picks a free port.
  static Result<UdpSocket> Bind(std::uint16_t port = 0);

  const SockAddr& bound_addr() const { return bound_; }
  bool valid() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }
  // Wakes a thread waiting in RecvInto or RecvFrom, and every later
  // wait returns at once; sends still work. Closing the socket would
  // not wake the waiter, which sleeps out its poll.
  void ShutdownRead();

  Status SendTo(const SockAddr& to, std::span<const std::uint8_t> data);
  // Sends `header` then `payload` as one datagram, gathered by one
  // sendmsg, so neither is copied into a joined buffer first.
  Status SendTo(const SockAddr& to, std::span<const std::uint8_t> header,
                std::span<const std::uint8_t> payload);

  // Receives one datagram into out (resized to the datagram length).
  // Fills from with the sender address.
  Status RecvFrom(Buffer& out, SockAddr& from,
                  Deadline deadline = Deadline::Infinite());
  // Receives one datagram into the front of `buf` (at least
  // kMaxUdpDatagram bytes, or a longer datagram is cut) and returns its
  // length; fills from with the sender address. An expired deadline
  // (Deadline::Poll()) reads only what is already queued: kTimeout when
  // nothing is.
  Result<std::size_t> RecvInto(std::span<std::uint8_t> buf, SockAddr& from,
                               Deadline deadline = Deadline::Infinite());

  int fd() const { return fd_.get(); }

 private:
  FdHandle fd_;
  SockAddr bound_;
};

}  // namespace dstampede::transport
