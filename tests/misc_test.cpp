// Remaining edge cases across modules: logger levels, consumed-but-
// still-live exact gets, GC-interest unsubscription on clients,
// shutdown idempotence, and connection-handle misuse.
#include <gtest/gtest.h>

#include <thread>

#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/common/logging.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/transport/tcp.hpp"

namespace dstampede {
namespace {

TEST(LoggingTest, LevelGatesOutput) {
  Logger& logger = Logger::Instance();
  const LogLevel before = logger.level();
  logger.set_level(LogLevel::kError);
  EXPECT_FALSE(logger.Enabled(LogLevel::kDebug));
  EXPECT_FALSE(logger.Enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.Enabled(LogLevel::kError));
  logger.set_level(LogLevel::kDebug);
  EXPECT_TRUE(logger.Enabled(LogLevel::kDebug));
  // The macro compiles and runs at any level.
  DS_LOG(kDebug) << "level test " << 42;
  logger.set_level(before);
}

TEST(ChannelEdgeTest, ExactGetOfOwnConsumedButLiveItem) {
  core::LocalChannel ch{core::ChannelAttr{}};
  std::uint32_t a = ch.Attach(core::ConnMode::kInput, "a");
  std::uint32_t b = ch.Attach(core::ConnMode::kInput, "b");
  (void)b;  // keeps the item alive
  ASSERT_TRUE(ch.Put(1, SharedBuffer::FromString("x"), Deadline::Poll()).ok());
  ASSERT_TRUE(ch.Consume(a, 1).ok());
  EXPECT_EQ(ch.live_items(), 1u) << "b still holds it";
  // a declared it garbage; a's own view must honor that even though
  // the item physically remains for b.
  EXPECT_EQ(
      ch.Get(a, core::GetSpec::Exact(1), Deadline::Poll()).status().code(),
      StatusCode::kGarbageCollected);
  // b still sees it.
  EXPECT_TRUE(ch.Get(b, core::GetSpec::Exact(1), Deadline::Poll()).ok());
}

TEST(ChannelEdgeTest, ConsumeUntilBelowWatermarkIsNoOp) {
  core::LocalChannel ch{core::ChannelAttr{}};
  std::uint32_t conn = ch.Attach(core::ConnMode::kInput, "t");
  ASSERT_TRUE(ch.ConsumeUntil(conn, 10).ok());
  ASSERT_TRUE(ch.ConsumeUntil(conn, -5).ok());  // must not roll back
  ASSERT_TRUE(ch.Put(8, SharedBuffer::FromString("x"), Deadline::Poll()).ok());
  EXPECT_EQ(ch.live_items(), 0u) << "8 <= watermark 10: instant garbage";
}

TEST(ChannelEdgeTest, NewestTimestampTracksPutsAndReclaims) {
  core::LocalChannel ch{core::ChannelAttr{}};
  std::uint32_t conn = ch.Attach(core::ConnMode::kInput, "t");
  ASSERT_TRUE(ch.Put(5, SharedBuffer::FromString("x"), Deadline::Poll()).ok());
  ASSERT_TRUE(ch.Put(9, SharedBuffer::FromString("y"), Deadline::Poll()).ok());
  EXPECT_EQ(ch.newest_timestamp(), 9);
  ASSERT_TRUE(ch.Consume(conn, 9).ok());
  EXPECT_EQ(ch.newest_timestamp(), 5);
}

TEST(RuntimeEdgeTest, ShutdownIsIdempotentAndCallsFailAfter) {
  core::Runtime::Options opts;
  opts.num_address_spaces = 2;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto ch = (*rt)->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  (*rt)->Shutdown();
  (*rt)->Shutdown();
  EXPECT_EQ((*rt)->as(0).CreateChannel().status().code(),
            StatusCode::kCancelled);
  auto conn = (*rt)->as(1).Connect(*ch, core::ConnMode::kInput);
  EXPECT_FALSE(conn.ok());
}

TEST(ConnectionEdgeTest, DefaultConnectionRejectedEverywhere) {
  core::Runtime::Options opts;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  core::Connection invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ((*rt)->as(0).Put(invalid, 1, Buffer{1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*rt)->as(0)
                .Get(invalid, core::GetSpec::Exact(1), Deadline::Poll())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*rt)->as(0).Consume(invalid, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*rt)->as(0).Disconnect(invalid).code(),
            StatusCode::kInvalidArgument);
}

TEST(ClientEdgeTest, GcHandlerUnsubscribeStopsNotices) {
  core::Runtime::Options opts;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto listener = client::Listener::Start(**rt);
  ASSERT_TRUE(listener.ok());

  client::CClient::Options copts;
  copts.server = (*listener)->addr();
  auto device = client::CClient::Join(copts);
  ASSERT_TRUE(device.ok());
  auto ch = (*device)->CreateChannel();
  ASSERT_TRUE(ch.ok());
  int notices = 0;
  ASSERT_TRUE((*device)
                  ->SetGcHandler(ch->bits(), false,
                                 [&](const core::GcNotice&) { ++notices; })
                  .ok());
  auto out = (*device)->Connect(*ch, core::ConnMode::kOutput);
  auto in = (*device)->Connect(*ch, core::ConnMode::kInput);
  ASSERT_TRUE((*device)->Put(*out, 1, Buffer{1}).ok());
  ASSERT_TRUE((*device)->Consume(*in, 1).ok());
  for (int i = 0; i < 100 && notices == 0; ++i) {
    std::this_thread::sleep_for(Millis(5));
    (void)(*device)->NsList("");
  }
  EXPECT_EQ(notices, 1);

  // Unsubscribe: further reclamations stay server-side.
  ASSERT_TRUE((*device)->SetGcHandler(ch->bits(), false, nullptr).ok());
  ASSERT_TRUE((*device)->Put(*out, 2, Buffer{2}).ok());
  ASSERT_TRUE((*device)->Consume(*in, 2).ok());
  std::this_thread::sleep_for(Millis(60));
  (void)(*device)->NsList("");
  EXPECT_EQ(notices, 1);
  (*listener)->Shutdown();
  (*rt)->Shutdown();
}

TEST(ClientEdgeTest, DoubleLeaveIsSafe) {
  core::Runtime::Options opts;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto listener = client::Listener::Start(**rt);
  ASSERT_TRUE(listener.ok());
  client::CClient::Options copts;
  copts.server = (*listener)->addr();
  auto device = client::CClient::Join(copts);
  ASSERT_TRUE(device.ok());
  EXPECT_TRUE((*device)->Leave().ok());
  EXPECT_TRUE((*device)->Leave().ok());  // idempotent
  (*listener)->Shutdown();
  (*rt)->Shutdown();
}

TEST(ListenerEdgeTest, ShutdownWithNoSessionWakesTheAcceptLoop) {
  auto rt = core::Runtime::Create({});
  ASSERT_TRUE(rt.ok());
  auto listener = client::Listener::Start(**rt);
  ASSERT_TRUE(listener.ok());
  // The accept loop polls in 100 ms rounds; Shutdown wakes it.
  std::this_thread::sleep_for(Millis(20));  // in its first poll by now
  const TimePoint start = Now();
  (*listener)->Shutdown();
  EXPECT_LT(ToMicros(Now() - start), 50000);
  (*rt)->Shutdown();
}

TEST(ListenerEdgeTest, ShutdownDoesNotWaitOutASilentClient) {
  auto rt = core::Runtime::Create({});
  ASSERT_TRUE(rt.ok());
  auto listener = client::Listener::Start(**rt);
  ASSERT_TRUE(listener.ok());
  // Connected, but never sends its first frame: the accept thread sits
  // in the handshake read, which allows a client up to 5 s.
  auto silent = transport::TcpConnection::Connect((*listener)->addr(),
                                                  Deadline::AfterMillis(5000));
  ASSERT_TRUE(silent.ok()) << silent.status();
  std::this_thread::sleep_for(Millis(150));  // accepted by now
  const TimePoint start = Now();
  (*listener)->Shutdown();
  EXPECT_LT(ToMicros(Now() - start), 500000);
  (*rt)->Shutdown();
}

TEST(ListenerEdgeTest, ShutdownWhileDevicesActive) {
  core::Runtime::Options opts;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto listener = client::Listener::Start(**rt);
  ASSERT_TRUE(listener.ok());
  client::CClient::Options copts;
  copts.server = (*listener)->addr();
  auto device = client::CClient::Join(copts);
  ASSERT_TRUE(device.ok());
  (*listener)->Shutdown();  // surrogate stops; client's next call fails
  auto ch = (*device)->CreateChannel();
  EXPECT_FALSE(ch.ok());
  (*rt)->Shutdown();
}

}  // namespace
}  // namespace dstampede
