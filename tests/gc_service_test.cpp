// GcService: periodic sweeping across the containers its source lists,
// notice fan-out to sinks, start/stop lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dstampede/core/channel.hpp"
#include "dstampede/core/gc.hpp"
#include "dstampede/core/queue.hpp"

namespace dstampede::core {
namespace {

SharedBuffer Payload(std::string_view s) { return SharedBuffer::FromString(s); }

// A source over a test-owned list, standing in for a space's table.
GcService::ContainerSource ListSource(const GcService::ContainerList& list) {
  return [&list] { return list; };
}

TEST(GcServiceTest, SweepOnceCollectsFromChannelsAndQueues) {
  auto ch = std::make_shared<LocalChannel>(ChannelAttr{});
  auto q = std::make_shared<LocalQueue>(QueueAttr{});
  const GcService::ContainerList list = {{1, ch}, {2, q}};
  GcService gc(Millis(1000), ListSource(list));  // not started; manual sweeps

  std::uint32_t cc = ch->Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch->Put(10, Payload("c"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch->Consume(cc, 10).ok());

  std::uint32_t qc = q->Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q->Put(20, Payload("q"), Deadline::Infinite()).ok());
  ASSERT_TRUE(q->Get(qc, Deadline::Poll()).ok());
  ASSERT_TRUE(q->Consume(qc, 20).ok());

  auto notices = gc.SweepOnce();
  ASSERT_EQ(notices.size(), 2u);
  bool saw_channel = false, saw_queue = false;
  for (const auto& notice : notices) {
    if (notice.container_bits == 1 && !notice.is_queue &&
        notice.timestamp == 10) {
      saw_channel = true;
    }
    if (notice.container_bits == 2 && notice.is_queue &&
        notice.timestamp == 20) {
      saw_queue = true;
    }
  }
  EXPECT_TRUE(saw_channel);
  EXPECT_TRUE(saw_queue);
}

TEST(GcServiceTest, SinksReceiveNoticeBatches) {
  auto ch = std::make_shared<LocalChannel>(ChannelAttr{});
  const GcService::ContainerList list = {{7, ch}};
  GcService gc(Millis(1000), ListSource(list));
  std::vector<GcNotice> received;
  const std::uint64_t token = gc.AddSink(
      [&](const std::vector<GcNotice>& batch) {
        received.insert(received.end(), batch.begin(), batch.end());
      });

  std::uint32_t conn = ch->Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch->Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch->Consume(conn, 1).ok());
  gc.SweepOnce();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].container_bits, 7u);

  gc.RemoveSink(token);
  ASSERT_TRUE(ch->Put(2, Payload("y"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch->Consume(conn, 2).ok());
  gc.SweepOnce();
  EXPECT_EQ(received.size(), 1u) << "removed sink must not receive";
}

// A sink's owner (a surrogate) destroys what the sink captured right
// after RemoveSink, so RemoveSink must wait out a fan-out in flight.
TEST(GcServiceTest, RemoveSinkWaitsOutARunningSink) {
  auto ch = std::make_shared<LocalChannel>(ChannelAttr{});
  const GcService::ContainerList list = {{1, ch}};
  GcService gc(Millis(1000), ListSource(list));
  std::atomic<bool> in_sink{false}, release{false}, removed{false};
  const std::uint64_t token = gc.AddSink([&](const std::vector<GcNotice>&) {
    in_sink = true;
    while (!release.load()) std::this_thread::sleep_for(Millis(1));
  });
  std::uint32_t conn = ch->Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch->Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch->Consume(conn, 1).ok());

  std::thread sweeper([&] { gc.SweepOnce(); });
  while (!in_sink.load()) std::this_thread::sleep_for(Millis(1));
  std::thread remover([&] {
    gc.RemoveSink(token);
    removed = true;
  });
  std::this_thread::sleep_for(Millis(50));
  EXPECT_FALSE(removed.load()) << "RemoveSink returned while its sink ran";
  release = true;
  sweeper.join();
  remover.join();
  EXPECT_TRUE(removed.load());
}

TEST(GcServiceTest, UnregisteredContainerNotSwept) {
  auto ch = std::make_shared<LocalChannel>(ChannelAttr{});
  GcService::ContainerList list = {{3, ch}};
  GcService gc(Millis(1000), ListSource(list));
  list.clear();  // the source no longer lists the channel
  std::uint32_t conn = ch->Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch->Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch->Consume(conn, 1).ok());
  // Inline reclaim already freed the item, but the service reports
  // nothing because its source no longer lists the channel.
  EXPECT_TRUE(gc.SweepOnce().empty());
}

TEST(GcServiceTest, BackgroundLoopSweepsConcurrently) {
  auto ch = std::make_shared<LocalChannel>(ChannelAttr{});
  const GcService::ContainerList list = {{1, ch}};
  GcService gc(Millis(5), ListSource(list));
  std::atomic<std::size_t> noticed{0};
  gc.AddSink([&](const std::vector<GcNotice>& batch) {
    noticed.fetch_add(batch.size());
  });
  gc.Start();

  std::uint32_t conn = ch->Attach(ConnMode::kInput, "t");
  for (Timestamp ts = 0; ts < 20; ++ts) {
    ASSERT_TRUE(ch->Put(ts, Payload("x"), Deadline::Infinite()).ok());
    ASSERT_TRUE(ch->Consume(conn, ts).ok());
  }
  // GC is concurrent with the application (paper §3.2.2): give the
  // loop a few intervals, then stop (Stop() does a final drain).
  std::this_thread::sleep_for(Millis(50));
  gc.Stop();
  EXPECT_EQ(noticed.load(), 20u);
  EXPECT_GT(gc.sweeps(), 1u);
  EXPECT_EQ(gc.notices_total(), 20u);
}

TEST(GcServiceTest, StartStopIdempotent) {
  const GcService::ContainerList none;
  GcService gc(Millis(5), ListSource(none));
  gc.Start();
  gc.Start();
  gc.Stop();
  gc.Stop();
  SUCCEED();
}

}  // namespace
}  // namespace dstampede::core
