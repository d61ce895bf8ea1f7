// LocalQueue semantics: FIFO order, exactly-once delivery across
// concurrent workers, in-flight accounting, consume-triggered GC,
// detach returning in-flight items, capacity back-pressure.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "dstampede/core/gc.hpp"
#include "dstampede/core/queue.hpp"

namespace dstampede::core {
namespace {

SharedBuffer Payload(std::string_view s) { return SharedBuffer::FromString(s); }

class QueueTest : public ::testing::Test {
 protected:
  LocalQueue q_{QueueAttr{}};
};

TEST_F(QueueTest, FifoOrder) {
  std::uint32_t conn = q_.Attach(ConnMode::kInputOutput, "t");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        q_.Put(i, Payload(std::to_string(i)), Deadline::Infinite()).ok());
  }
  for (int i = 0; i < 5; ++i) {
    auto item = q_.Get(conn, Deadline::Poll());
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(item->timestamp, i);
    EXPECT_EQ(item->payload.ToString(), std::to_string(i));
  }
}

TEST_F(QueueTest, DuplicateTimestampsAreLegal) {
  // All fragments of one frame share the frame's timestamp (Fig 3).
  std::uint32_t conn = q_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q_.Put(7, Payload("frag0"), Deadline::Infinite()).ok());
  ASSERT_TRUE(q_.Put(7, Payload("frag1"), Deadline::Infinite()).ok());
  EXPECT_EQ(q_.Get(conn, Deadline::Poll())->payload.ToString(), "frag0");
  EXPECT_EQ(q_.Get(conn, Deadline::Poll())->payload.ToString(), "frag1");
}

TEST_F(QueueTest, GetBlocksUntilPut) {
  std::uint32_t conn = q_.Attach(ConnMode::kInput, "t");
  std::thread producer([&] {
    std::this_thread::sleep_for(Millis(30));
    ASSERT_TRUE(q_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  });
  auto item = q_.Get(conn, Deadline::AfterMillis(5000));
  ASSERT_TRUE(item.ok());
  producer.join();
}

TEST_F(QueueTest, GetTimesOutOnEmptyQueue) {
  std::uint32_t conn = q_.Attach(ConnMode::kInput, "t");
  EXPECT_EQ(q_.Get(conn, Deadline::AfterMillis(50)).status().code(),
            StatusCode::kTimeout);
}

TEST_F(QueueTest, OutputOnlyConnectionCannotGet) {
  std::uint32_t conn = q_.Attach(ConnMode::kOutput, "producer");
  ASSERT_TRUE(q_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  EXPECT_EQ(q_.Get(conn, Deadline::Poll()).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(QueueTest, ExactlyOnceAcrossWorkers) {
  constexpr int kItems = 500;
  constexpr int kWorkers = 4;
  std::uint32_t producer = q_.Attach(ConnMode::kOutput, "p");
  (void)producer;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(q_.Put(i, Payload("x"), Deadline::Infinite()).ok());
  }
  std::mutex mu;
  std::set<Timestamp> seen;
  std::atomic<int> total{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      std::uint32_t conn = q_.Attach(ConnMode::kInput, "w");
      for (;;) {
        auto item = q_.Get(conn, Deadline::AfterMillis(200));
        if (!item.ok()) break;  // drained
        {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(seen.insert(item->timestamp).second)
              << "item " << item->timestamp << " delivered twice";
        }
        ASSERT_TRUE(q_.Consume(conn, item->timestamp).ok());
        total.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(total.load(), kItems);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kItems));
}

TEST_F(QueueTest, ConsumeFiresGcHandler) {
  std::vector<Timestamp> freed;
  q_.set_gc_handler(
      [&](Timestamp ts, const SharedBuffer&) { freed.push_back(ts); });
  std::uint32_t conn = q_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  auto item = q_.Get(conn, Deadline::Poll());
  ASSERT_TRUE(item.ok());
  EXPECT_TRUE(freed.empty()) << "handler must not fire before consume";
  ASSERT_TRUE(q_.Consume(conn, 1).ok());
  EXPECT_EQ(freed, (std::vector<Timestamp>{1}));
}

TEST_F(QueueTest, ConsumeWithoutGetRejected) {
  std::uint32_t conn = q_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  EXPECT_EQ(q_.Consume(conn, 1).code(), StatusCode::kNotFound);
}

TEST_F(QueueTest, InFlightAccounting) {
  std::uint32_t conn = q_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(q_.Put(2, Payload("y"), Deadline::Infinite()).ok());
  EXPECT_EQ(q_.queued_items(), 2u);
  EXPECT_EQ(q_.in_flight_items(), 0u);
  ASSERT_TRUE(q_.Get(conn, Deadline::Poll()).ok());
  EXPECT_EQ(q_.queued_items(), 1u);
  EXPECT_EQ(q_.in_flight_items(), 1u);
  ASSERT_TRUE(q_.Consume(conn, 1).ok());
  EXPECT_EQ(q_.in_flight_items(), 0u);
  EXPECT_EQ(q_.total_consumed(), 1u);
}

TEST_F(QueueTest, DetachReturnsInFlightItemsInOrder) {
  std::uint32_t w1 = q_.Attach(ConnMode::kInput, "w1");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q_.Put(i, Payload(std::to_string(i)), Deadline::Infinite())
                    .ok());
  }
  // w1 takes items 0 and 1 but never consumes them.
  ASSERT_TRUE(q_.Get(w1, Deadline::Poll()).ok());
  ASSERT_TRUE(q_.Get(w1, Deadline::Poll()).ok());
  ASSERT_TRUE(q_.Detach(w1).ok());
  // A new worker sees everything, original order restored.
  std::uint32_t w2 = q_.Attach(ConnMode::kInput, "w2");
  EXPECT_EQ(q_.Get(w2, Deadline::Poll())->timestamp, 0);
  EXPECT_EQ(q_.Get(w2, Deadline::Poll())->timestamp, 1);
  EXPECT_EQ(q_.Get(w2, Deadline::Poll())->timestamp, 2);
}

// A queue wired the way its owning space wires one (see
// ChannelNoticeTest): only the consume that reclaims an item publishes.
TEST(QueueNoticeTest, ReclaimingConsumePublishesBeforeItReturns) {
  GcService gc;
  std::vector<GcNotice> notices;
  gc.AddSink([&](const std::vector<GcNotice>& batch) {
    notices.insert(notices.end(), batch.begin(), batch.end());
  });
  LocalQueue q(QueueAttr{}, /*wheel=*/nullptr,
               [&gc](const ReclaimedItems& freed) {
                 gc.Publish(0x99, /*is_queue=*/true, freed);
               });
  std::uint32_t conn = q.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q.Put(1, Payload("abc"), Deadline::Infinite()).ok());
  ASSERT_TRUE(q.Get(conn, Deadline::Poll()).ok());
  EXPECT_TRUE(notices.empty()) << "a get takes the item but frees nothing";
  ASSERT_TRUE(q.Consume(conn, 1).ok());
  ASSERT_EQ(notices.size(), 1u);
  EXPECT_EQ(notices[0].container_bits, 0x99u);
  EXPECT_TRUE(notices[0].is_queue);
  EXPECT_EQ(notices[0].timestamp, 1);
  EXPECT_EQ(notices[0].payload_size, 3u);
}

TEST(QueueCapacityTest, PutBlocksAtCapacityUntilGet) {
  QueueAttr attr;
  attr.capacity_items = 1;
  LocalQueue q(attr);
  std::uint32_t conn = q.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(q.Put(0, Payload("a"), Deadline::Poll()).ok());
  EXPECT_EQ(q.Put(1, Payload("b"), Deadline::AfterMillis(50)).code(),
            StatusCode::kTimeout);
  std::thread getter([&] {
    std::this_thread::sleep_for(Millis(30));
    ASSERT_TRUE(q.Get(conn, Deadline::AfterMillis(1000)).ok());
  });
  EXPECT_TRUE(q.Put(1, Payload("b"), Deadline::AfterMillis(5000)).ok());
  getter.join();
}

TEST(QueueCloseTest, CloseWakesBlockedGetters) {
  LocalQueue q{QueueAttr{}};
  std::uint32_t conn = q.Attach(ConnMode::kInput, "t");
  std::thread closer([&] {
    std::this_thread::sleep_for(Millis(30));
    q.Close();
  });
  EXPECT_EQ(q.Get(conn, Deadline::Infinite()).status().code(),
            StatusCode::kCancelled);
  closer.join();
}

TEST_F(QueueTest, UnknownConnectionRejected) {
  EXPECT_EQ(q_.Get(42, Deadline::Poll()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(q_.Consume(42, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(q_.Detach(42).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dstampede::core
