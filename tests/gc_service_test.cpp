// GcService: the notices that containers' reclaim hooks publish, fanned
// out to sinks on the reclaiming thread.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dstampede/core/channel.hpp"
#include "dstampede/core/gc.hpp"
#include "dstampede/core/queue.hpp"

namespace dstampede::core {
namespace {

SharedBuffer Payload(std::string_view s) { return SharedBuffer::FromString(s); }

// The hook an owning space installs on the container it names `bits`.
ReclaimHook PublishAs(GcService& gc, std::uint64_t bits, bool is_queue) {
  return [&gc, bits, is_queue](const ReclaimedItems& freed) {
    gc.Publish(bits, is_queue, freed);
  };
}

TEST(GcServiceTest, ChannelAndQueueReclaimsReachSinks) {
  GcService gc;
  std::vector<GcNotice> notices;
  gc.AddSink([&](const std::vector<GcNotice>& batch) {
    notices.insert(notices.end(), batch.begin(), batch.end());
  });
  LocalChannel ch(ChannelAttr{}, nullptr, PublishAs(gc, 1, false));
  LocalQueue q(QueueAttr{}, nullptr, PublishAs(gc, 2, true));

  std::uint32_t cc = ch.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch.Put(10, Payload("c"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch.Consume(cc, 10).ok());

  std::uint32_t qc = q.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q.Put(20, Payload("q"), Deadline::Infinite()).ok());
  ASSERT_TRUE(q.Get(qc, Deadline::Poll()).ok());
  ASSERT_TRUE(q.Consume(qc, 20).ok());

  ASSERT_EQ(notices.size(), 2u);
  EXPECT_EQ(notices[0].container_bits, 1u);
  EXPECT_FALSE(notices[0].is_queue);
  EXPECT_EQ(notices[0].timestamp, 10);
  EXPECT_EQ(notices[1].container_bits, 2u);
  EXPECT_TRUE(notices[1].is_queue);
  EXPECT_EQ(notices[1].timestamp, 20);
  EXPECT_EQ(gc.notices_total(), 2u);
}

TEST(GcServiceTest, SinksReceiveNoticeBatches) {
  GcService gc;
  LocalChannel ch(ChannelAttr{}, nullptr, PublishAs(gc, 7, false));
  std::vector<GcNotice> received;
  const std::uint64_t token = gc.AddSink(
      [&](const std::vector<GcNotice>& batch) {
        received.insert(received.end(), batch.begin(), batch.end());
      });

  std::uint32_t conn = ch.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch.Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch.Consume(conn, 1).ok());
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].container_bits, 7u);

  gc.RemoveSink(token);
  ASSERT_TRUE(ch.Put(2, Payload("y"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch.Consume(conn, 2).ok());
  EXPECT_EQ(received.size(), 1u) << "removed sink must not receive";
  // Counted whether or not a sink hears it.
  EXPECT_EQ(gc.notices_total(), 2u);
}

// A sink's owner (a surrogate) destroys what the sink captured right
// after RemoveSink, so RemoveSink must wait out a fan-out in flight.
TEST(GcServiceTest, RemoveSinkWaitsOutARunningSink) {
  GcService gc;
  LocalChannel ch(ChannelAttr{}, nullptr, PublishAs(gc, 1, false));
  std::atomic<bool> in_sink{false}, release{false}, removed{false};
  const std::uint64_t token = gc.AddSink([&](const std::vector<GcNotice>&) {
    in_sink = true;
    while (!release.load()) std::this_thread::sleep_for(Millis(1));
  });
  std::uint32_t conn = ch.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch.Put(1, Payload("x"), Deadline::Infinite()).ok());

  // The consume reclaims the item, so its thread runs the sink.
  std::thread consumer([&] { ASSERT_TRUE(ch.Consume(conn, 1).ok()); });
  while (!in_sink.load()) std::this_thread::sleep_for(Millis(1));
  std::thread remover([&] {
    gc.RemoveSink(token);
    removed = true;
  });
  std::this_thread::sleep_for(Millis(50));
  EXPECT_FALSE(removed.load()) << "RemoveSink returned while its sink ran";
  release = true;
  consumer.join();
  remover.join();
  EXPECT_TRUE(removed.load());
}

}  // namespace
}  // namespace dstampede::core
