// Transport tests: TCP framing, raw stream I/O, deadlines, connection
// teardown; UDP datagrams and size limits.
#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <thread>

#include "dstampede/common/bytes.hpp"
#include "dstampede/transport/tcp.hpp"
#include "dstampede/transport/udp.hpp"

namespace dstampede::transport {
namespace {

TEST(SockAddrTest, FormatsDottedQuad) {
  EXPECT_EQ(SockAddr::Loopback(8080).ToString(), "127.0.0.1:8080");
}

TEST(SockAddrTest, FromStringRoundTrips) {
  const SockAddr addr{0xc0a80a02u, 9123};  // 192.168.10.2
  auto parsed = SockAddr::FromString(addr.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, addr);
}

TEST(SockAddrTest, FromStringRejectsMalformed) {
  EXPECT_FALSE(SockAddr::FromString("").ok());
  EXPECT_FALSE(SockAddr::FromString("localhost:80").ok());
  EXPECT_FALSE(SockAddr::FromString("127.0.0.1").ok());
  EXPECT_FALSE(SockAddr::FromString("256.0.0.1:80").ok());
  EXPECT_FALSE(SockAddr::FromString("1.2.3.4:70000").ok());
  EXPECT_FALSE(SockAddr::FromString("1.2.3.4:80x").ok());
}

TEST(TcpTest, ListenerPicksFreePort) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_NE(listener->bound_addr().port, 0);
}

TEST(TcpTest, ConnectRefusedOnClosedPort) {
  // Bind then close to get a port that is very likely unused.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  SockAddr addr = listener->bound_addr();
  listener->Close();
  auto conn = TcpConnection::Connect(addr);
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
}

TEST(TcpTest, FrameEchoRoundTrip) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    Buffer frame;
    ASSERT_TRUE(conn->RecvFrame(frame).ok());
    ASSERT_TRUE(conn->SendFrame(frame).ok());
  });

  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  Buffer out(5000);
  FillPattern(out, 99);
  ASSERT_TRUE(conn->SendFrame(out).ok());
  Buffer in;
  ASSERT_TRUE(conn->RecvFrame(in).ok());
  EXPECT_EQ(in, out);
  server.join();
}

TEST(TcpTest, EmptyFrameIsLegal) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    Buffer frame = {1};
    ASSERT_TRUE(conn->RecvFrame(frame).ok());
    EXPECT_TRUE(frame.empty());
    ASSERT_TRUE(conn->SendFrame(frame).ok());
  });
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendFrame({}).ok());
  Buffer in = {9, 9};
  ASSERT_TRUE(conn->RecvFrame(in).ok());
  EXPECT_TRUE(in.empty());
  server.join();
}

TEST(TcpTest, LargeFrameRoundTrip) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    Buffer frame;
    ASSERT_TRUE(conn->RecvFrame(frame).ok());
    ASSERT_TRUE(conn->SendFrame(frame).ok());
  });
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  Buffer big(2 * 1024 * 1024);  // composite-image scale
  FillPattern(big, 1);
  ASSERT_TRUE(conn->SendFrame(big).ok());
  Buffer in;
  ASSERT_TRUE(conn->RecvFrame(in).ok());
  EXPECT_TRUE(CheckPattern(in, 1));
  server.join();
}

TEST(TcpTest, RecvFrameTimesOut) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.ok());
  Buffer frame;
  Status s = conn->RecvFrame(frame, Deadline::AfterMillis(50));
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
}

TEST(TcpTest, PeerCloseSurfacesAsConnectionClosed) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  {
    auto server_side = listener->Accept();
    ASSERT_TRUE(server_side.ok());
    // server_side destroyed here -> fd closed
  }
  Buffer frame;
  Status s = conn->RecvFrame(frame, Deadline::AfterMillis(1000));
  EXPECT_EQ(s.code(), StatusCode::kConnectionClosed);
}

TEST(TcpTest, TimeoutMidFrameResumesOnTheNextCall) {
  // A 1000-byte frame whose second half comes 300 ms after the first,
  // read with 100 ms deadlines: the calls that time out mid-frame keep
  // what they read, so the frame, and the one after it, arrive intact.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.ok());
  Buffer payload(1000);
  FillPattern(payload, 5);
  Buffer stream = {0, 0, 0x03, 0xE8};  // length 1000
  stream.insert(stream.end(), payload.begin(), payload.end());
  const std::span<const std::uint8_t> bytes(stream);
  std::thread writer([&] {
    ASSERT_TRUE(server_side->SendAll(bytes.first(502)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_TRUE(server_side->SendAll(bytes.subspan(502)).ok());
    ASSERT_TRUE(server_side->SendFrame(Buffer{7, 8, 9}).ok());
  });
  Buffer frame;
  int timeouts = 0;
  Status s;
  for (int call = 0; call < 50; ++call) {
    s = conn->RecvFrame(frame, Deadline::AfterMillis(100));
    if (s.code() != StatusCode::kTimeout) break;
    ++timeouts;
  }
  writer.join();
  ASSERT_TRUE(s.ok()) << s << " after " << timeouts << " timeouts";
  EXPECT_GE(timeouts, 1);
  EXPECT_EQ(frame, payload);
  ASSERT_TRUE(conn->RecvFrame(frame, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(frame, (Buffer{7, 8, 9}));
}

TEST(TcpTest, ClaimedLengthAllocatesOnlyWhatArrives) {
  // A header claiming the largest frame, a few bytes, then a close: the
  // read ends in kConnectionClosed without reserving the claimed size.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  {
    auto server_side = listener->Accept();
    ASSERT_TRUE(server_side.ok());
    const std::uint8_t claim[] = {
        static_cast<std::uint8_t>(kMaxFrame >> 24),
        static_cast<std::uint8_t>(kMaxFrame >> 16),
        static_cast<std::uint8_t>(kMaxFrame >> 8),
        static_cast<std::uint8_t>(kMaxFrame), 1, 2, 3};
    ASSERT_TRUE(server_side->SendAll(claim).ok());
  }
  Buffer frame;
  Status s = conn->RecvFrame(frame, Deadline::AfterMillis(5000));
  EXPECT_EQ(s.code(), StatusCode::kConnectionClosed) << s;
  EXPECT_LT(frame.capacity(), std::size_t{1} << 20);
}

TEST(TcpTest, GatheredFrameLargerThanTheSocketBuffersRoundTrips) {
  // 8 MiB is more than both loopback socket buffers hold, so the one
  // gathering send writes in parts while another thread reads.
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.ok());
  Buffer big(8u << 20);
  FillPattern(big, 8);
  Buffer in;
  Status received;
  std::thread reader([&] {
    received = server_side->RecvFrame(in, Deadline::AfterMillis(30000));
  });
  ASSERT_TRUE(conn->SendFrame(big).ok());
  reader.join();
  ASSERT_TRUE(received.ok()) << received;
  ASSERT_EQ(in.size(), big.size());
  EXPECT_TRUE(CheckPattern(in, 8));
}

TEST(TcpTest, RawExchange) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    Buffer data(1000);
    ASSERT_TRUE(
        conn->RecvExact(std::span<std::uint8_t>(data.data(), data.size()))
            .ok());
    ASSERT_TRUE(conn->SendAll(data).ok());
  });
  auto conn = TcpConnection::Connect(listener->bound_addr());
  ASSERT_TRUE(conn.ok());
  Buffer out(1000);
  FillPattern(out, 5);
  ASSERT_TRUE(conn->SendAll(out).ok());
  Buffer in(1000);
  ASSERT_TRUE(
      conn->RecvExact(std::span<std::uint8_t>(in.data(), in.size())).ok());
  EXPECT_EQ(in, out);
  server.join();
}

TEST(TcpTest, AcceptTimesOut) {
  auto listener = TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  auto conn = listener->Accept(Deadline::AfterMillis(50));
  EXPECT_EQ(conn.status().code(), StatusCode::kTimeout);
}

// --- UDP --------------------------------------------------------------------

TEST(UdpTest, DatagramRoundTrip) {
  auto a = UdpSocket::Bind(0);
  auto b = UdpSocket::Bind(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Buffer out(1500);
  FillPattern(out, 77);
  ASSERT_TRUE(a->SendTo(b->bound_addr(), out).ok());
  Buffer in;
  SockAddr from;
  ASSERT_TRUE(b->RecvFrom(in, from, Deadline::AfterMillis(2000)).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(from, a->bound_addr());
}

TEST(UdpTest, MaxSizeDatagram) {
  auto a = UdpSocket::Bind(0);
  auto b = UdpSocket::Bind(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Buffer out(kMaxUdpDatagram);
  FillPattern(out, 3);
  ASSERT_TRUE(a->SendTo(b->bound_addr(), out).ok());
  Buffer in;
  SockAddr from;
  ASSERT_TRUE(b->RecvFrom(in, from, Deadline::AfterMillis(2000)).ok());
  EXPECT_EQ(in.size(), kMaxUdpDatagram);
  EXPECT_TRUE(CheckPattern(in, 3));
}

TEST(UdpTest, OversizedDatagramRejected) {
  auto a = UdpSocket::Bind(0);
  ASSERT_TRUE(a.ok());
  Buffer out(kMaxUdpDatagram + 1);
  Status s = a->SendTo(a->bound_addr(), out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(UdpTest, RecvTimesOut) {
  auto a = UdpSocket::Bind(0);
  ASSERT_TRUE(a.ok());
  Buffer in;
  SockAddr from;
  Status s = a->RecvFrom(in, from, Deadline::AfterMillis(50));
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
}

TEST(UdpTest, MultipleDatagramsPreserveBoundaries) {
  auto a = UdpSocket::Bind(0);
  auto b = UdpSocket::Bind(0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 1; i <= 5; ++i) {
    Buffer out(static_cast<std::size_t>(i * 100));
    FillPattern(out, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(a->SendTo(b->bound_addr(), out).ok());
  }
  for (int i = 1; i <= 5; ++i) {
    Buffer in;
    SockAddr from;
    ASSERT_TRUE(b->RecvFrom(in, from, Deadline::AfterMillis(2000)).ok());
    EXPECT_EQ(in.size(), static_cast<std::size_t>(i * 100));
    EXPECT_TRUE(CheckPattern(in, static_cast<std::uint64_t>(i)));
  }
}

}  // namespace
}  // namespace dstampede::transport
