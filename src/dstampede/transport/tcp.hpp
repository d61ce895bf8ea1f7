// TCP transport: stream connections with 4-byte length framing, plus
// raw send/recv for the paper's baseline measurements. The client
// libraries use this to reach the cluster listener (§3.2.1), and the
// raw path is the "TCP/IP producer-consumer" baseline in Experiments
// 1–3.
#pragma once

#include <cstdint>
#include <span>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/transport/socket.hpp"

namespace dstampede::transport {

class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(FdHandle fd) : fd_(std::move(fd)) {}

  // Connects to addr; TCP_NODELAY is set (interactive traffic).
  static Result<TcpConnection> Connect(const SockAddr& addr,
                                       Deadline deadline = Deadline::Infinite());

  bool valid() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }

  // Framed messages: u32 big-endian length, then payload, gathered
  // into one send.
  Status SendFrame(std::span<const std::uint8_t> payload);
  // Receives one frame into out (replacing its contents). A frame that
  // the deadline cuts short stays with the connection, and the next
  // call resumes it, so a kTimeout never splits the stream's framing.
  // The body grows as its bytes arrive, not to the claimed length.
  Status RecvFrame(Buffer& out, Deadline deadline = Deadline::Infinite());

  // Raw stream I/O for baseline benchmarks.
  Status SendAll(std::span<const std::uint8_t> data);
  Status RecvExact(std::span<std::uint8_t> data,
                   Deadline deadline = Deadline::Infinite());

  int fd() const { return fd_.get(); }

 private:
  Status RecvSome(std::uint8_t* dst, std::size_t n, std::size_t& got,
                  Deadline deadline);
  // RecvFrame's reads, from where the frame in progress stands.
  Status ContinueFrame(Buffer& out, Deadline deadline);

  FdHandle fd_;
  // The frame in progress (none while header_got_ is 0): its header
  // bytes, the body bytes read, and, between calls, the body itself.
  std::uint8_t header_[4] = {};
  std::size_t header_got_ = 0;
  std::size_t body_got_ = 0;
  Buffer partial_;
};

class TcpListener {
 public:
  // Binds to loopback. port==0 picks a free port; bound_addr() tells
  // which.
  static Result<TcpListener> Bind(std::uint16_t port = 0);

  Result<TcpConnection> Accept(Deadline deadline = Deadline::Infinite());

  const SockAddr& bound_addr() const { return bound_; }
  bool valid() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }
  // Stops listening and wakes a thread waiting in Accept, whose accept
  // then fails, as does every later one. Closing the socket would not
  // wake the waiter, which sleeps out its poll.
  void ShutdownRead();

 private:
  FdHandle fd_;
  SockAddr bound_;
};

}  // namespace dstampede::transport
