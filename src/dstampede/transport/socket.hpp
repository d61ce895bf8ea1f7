// RAII wrappers over POSIX sockets plus the address type used by every
// transport in the tree. Loopback IPv4 only: the reproduction runs the
// whole Octopus on one machine (see DESIGN.md substitutions).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/status.hpp"

namespace dstampede::transport {

// Largest message one frame carries (a TCP frame or a reassembled CLF
// message); receivers check a peer's length against it before allocating.
inline constexpr std::uint32_t kMaxFrame = 64u << 20;  // 64 MiB

// IPv4 host:port. Value type, usable as a map key.
struct SockAddr {
  std::uint32_t ip_host_order = 0;  // e.g. 127.0.0.1 = 0x7f000001
  std::uint16_t port = 0;

  static SockAddr Loopback(std::uint16_t port) {
    return SockAddr{0x7f000001u, port};
  }

  std::string ToString() const;
  // Parses the ToString() format, "a.b.c.d:port".
  static Result<SockAddr> FromString(const std::string& s);

  friend bool operator==(const SockAddr& a, const SockAddr& b) {
    return a.ip_host_order == b.ip_host_order && a.port == b.port;
  }
  friend bool operator<(const SockAddr& a, const SockAddr& b) {
    return std::pair(a.ip_host_order, a.port) <
           std::pair(b.ip_host_order, b.port);
  }
};

// Owns a file descriptor; closes on destruction. The descriptor is
// held atomically because shutdown paths may Close()/Reset() a handle
// that another thread is reading; the closer and the reader must not
// race on the int itself. Closing does not wake a thread already in
// poll: a reader that must stop at once is woken by shutting the
// socket's read side (UdpSocket/TcpListener::ShutdownRead).
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle() { Reset(); }

  FdHandle(FdHandle&& other) noexcept : fd_(other.fd_.exchange(-1)) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_.store(other.fd_.exchange(-1));
    }
    return *this;
  }
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;

  int get() const { return fd_.load(std::memory_order_relaxed); }
  bool valid() const { return get() >= 0; }
  void Reset();

 private:
  std::atomic<int> fd_{-1};
};

// Waits until fd is readable or the deadline passes.
// Returns kOk (readable), kTimeout, or kInternal on poll failure.
Status WaitReadable(int fd, Deadline deadline);

// errno → Status with a context prefix.
Status ErrnoStatus(const char* op);

}  // namespace dstampede::transport

namespace std {
template <>
struct hash<dstampede::transport::SockAddr> {
  size_t operator()(const dstampede::transport::SockAddr& a) const noexcept {
    return std::hash<uint64_t>{}(
        (static_cast<uint64_t>(a.ip_host_order) << 16) | a.port);
  }
};
}  // namespace std
