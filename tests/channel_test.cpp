// LocalChannel semantics: timestamp-indexed storage, the four get
// selectors, blocking behaviour, per-connection consume state, the
// reclamation rule (GC safety and liveness), capacity back-pressure,
// the reclaim horizon, GC notices from every reclaiming operation, and
// close/cancellation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dstampede/common/metrics.hpp"
#include "dstampede/core/channel.hpp"
#include "dstampede/core/gc.hpp"

namespace dstampede::core {
namespace {

SharedBuffer Payload(std::string_view s) { return SharedBuffer::FromString(s); }

class ChannelTest : public ::testing::Test {
 protected:
  LocalChannel ch_{ChannelAttr{}};
};

TEST_F(ChannelTest, PutThenExactGet) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInputOutput, "t");
  ASSERT_TRUE(ch_.Put(5, Payload("five"), Deadline::Infinite()).ok());
  auto item = ch_.Get(conn, GetSpec::Exact(5), Deadline::Poll());
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->timestamp, 5);
  EXPECT_EQ(item->payload.ToString(), "five");
}

TEST_F(ChannelTest, DuplicateTimestampRejected) {
  ASSERT_TRUE(ch_.Put(1, Payload("a"), Deadline::Infinite()).ok());
  EXPECT_EQ(ch_.Put(1, Payload("b"), Deadline::Infinite()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ChannelTest, InvalidTimestampRejected) {
  EXPECT_EQ(ch_.Put(kInvalidTimestamp, Payload("x"), Deadline::Poll()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ChannelTest, RandomAccessByTimestamp) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts : {10, 30, 20}) {
    ASSERT_TRUE(
        ch_.Put(ts, Payload(std::to_string(ts)), Deadline::Infinite()).ok());
  }
  // Access out of arrival order.
  EXPECT_EQ(ch_.Get(conn, GetSpec::Exact(20), Deadline::Poll())
                ->payload.ToString(),
            "20");
  EXPECT_EQ(ch_.Get(conn, GetSpec::Exact(10), Deadline::Poll())
                ->payload.ToString(),
            "10");
}

TEST_F(ChannelTest, OldestAndNewestSelectors) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts : {7, 3, 9}) {
    ASSERT_TRUE(ch_.Put(ts, Payload("x"), Deadline::Infinite()).ok());
  }
  EXPECT_EQ(ch_.Get(conn, GetSpec::Oldest(), Deadline::Poll())->timestamp, 3);
  EXPECT_EQ(ch_.Get(conn, GetSpec::Newest(), Deadline::Poll())->timestamp, 9);
}

TEST_F(ChannelTest, SelectorsSkipConsumedItems) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts : {1, 2, 3}) {
    ASSERT_TRUE(ch_.Put(ts, Payload("x"), Deadline::Infinite()).ok());
  }
  ASSERT_TRUE(ch_.Consume(conn, 1).ok());
  EXPECT_EQ(ch_.Get(conn, GetSpec::Oldest(), Deadline::Poll())->timestamp, 2);
  ASSERT_TRUE(ch_.Consume(conn, 3).ok());
  EXPECT_EQ(ch_.Get(conn, GetSpec::Newest(), Deadline::Poll())->timestamp, 2);
}

TEST_F(ChannelTest, NextAfterSelector) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts : {10, 20, 30}) {
    ASSERT_TRUE(ch_.Put(ts, Payload("x"), Deadline::Infinite()).ok());
  }
  EXPECT_EQ(ch_.Get(conn, GetSpec::NextAfter(10), Deadline::Poll())->timestamp,
            20);
  EXPECT_EQ(ch_.Get(conn, GetSpec::NextAfter(25), Deadline::Poll())->timestamp,
            30);
  EXPECT_EQ(
      ch_.Get(conn, GetSpec::NextAfter(30), Deadline::Poll()).status().code(),
      StatusCode::kTimeout);
}

TEST_F(ChannelTest, ExactGetBlocksUntilPut) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  std::thread producer([&] {
    std::this_thread::sleep_for(Millis(30));
    ASSERT_TRUE(ch_.Put(42, Payload("late"), Deadline::Infinite()).ok());
  });
  auto item = ch_.Get(conn, GetSpec::Exact(42), Deadline::AfterMillis(5000));
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->payload.ToString(), "late");
  producer.join();
}

TEST_F(ChannelTest, GetTimesOutWhenNothingArrives) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  auto item = ch_.Get(conn, GetSpec::Exact(1), Deadline::AfterMillis(50));
  EXPECT_EQ(item.status().code(), StatusCode::kTimeout);
}

TEST_F(ChannelTest, OutputOnlyConnectionCannotGetOrConsume) {
  std::uint32_t conn = ch_.Attach(ConnMode::kOutput, "producer");
  ASSERT_TRUE(ch_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  EXPECT_EQ(ch_.Get(conn, GetSpec::Exact(1), Deadline::Poll()).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(ch_.Consume(conn, 1).code(), StatusCode::kPermissionDenied);
}

TEST_F(ChannelTest, UnknownConnectionRejected) {
  EXPECT_EQ(ch_.Get(999, GetSpec::Exact(1), Deadline::Poll()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ch_.Consume(999, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(ch_.Detach(999).code(), StatusCode::kNotFound);
}

// --- garbage collection --------------------------------------------------

TEST_F(ChannelTest, ItemReclaimedOnceAllInputsConsume) {
  std::uint32_t c1 = ch_.Attach(ConnMode::kInput, "a");
  std::uint32_t c2 = ch_.Attach(ConnMode::kInput, "b");
  ASSERT_TRUE(ch_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch_.Consume(c1, 1).ok());
  EXPECT_EQ(ch_.live_items(), 1u) << "GC safety: b has not consumed";
  ASSERT_TRUE(ch_.Consume(c2, 1).ok());
  EXPECT_EQ(ch_.live_items(), 0u) << "GC liveness: both consumed";
  EXPECT_EQ(ch_.total_reclaimed(), 1u);
}

TEST_F(ChannelTest, OutputConnectionsDoNotHoldItems) {
  std::uint32_t in = ch_.Attach(ConnMode::kInput, "in");
  ch_.Attach(ConnMode::kOutput, "out");
  ASSERT_TRUE(ch_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch_.Consume(in, 1).ok());
  EXPECT_EQ(ch_.live_items(), 0u);
}

TEST_F(ChannelTest, NoInputConnectionsMeansNoReclamation) {
  ASSERT_TRUE(ch_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  EXPECT_EQ(ch_.live_items(), 1u)
      << "items retained for consumers that may join later";
}

TEST_F(ChannelTest, ConsumeUntilReclaimsPrefix) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts = 0; ts < 10; ++ts) {
    ASSERT_TRUE(ch_.Put(ts, Payload("x"), Deadline::Infinite()).ok());
  }
  ASSERT_TRUE(ch_.ConsumeUntil(conn, 6).ok());
  EXPECT_EQ(ch_.live_items(), 3u);  // 7, 8, 9 remain
}

TEST_F(ChannelTest, ConsumeUntilIsMonotonic) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch_.ConsumeUntil(conn, 10).ok());
  ASSERT_TRUE(ch_.ConsumeUntil(conn, 5).ok());  // no-op, not a rollback
  ASSERT_TRUE(ch_.Put(7, Payload("x"), Deadline::Infinite()).ok());
  // 7 <= watermark(10): this connection has declared it garbage.
  EXPECT_EQ(ch_.Get(conn, GetSpec::Exact(7), Deadline::Poll()).status().code(),
            StatusCode::kGarbageCollected);
}

TEST_F(ChannelTest, DetachReleasesHeldItems) {
  std::uint32_t c1 = ch_.Attach(ConnMode::kInput, "a");
  std::uint32_t c2 = ch_.Attach(ConnMode::kInput, "b");
  ASSERT_TRUE(ch_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch_.Consume(c1, 1).ok());
  EXPECT_EQ(ch_.live_items(), 1u);
  ASSERT_TRUE(ch_.Detach(c2).ok());  // b leaves without consuming
  EXPECT_EQ(ch_.live_items(), 0u);
}

TEST_F(ChannelTest, GcHandlerReceivesReclaimedItems) {
  std::vector<Timestamp> reclaimed;
  ch_.set_gc_handler([&](Timestamp ts, const SharedBuffer&) {
    reclaimed.push_back(ts);
  });
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts = 0; ts < 3; ++ts) {
    ASSERT_TRUE(ch_.Put(ts, Payload("x"), Deadline::Infinite()).ok());
    ASSERT_TRUE(ch_.Consume(conn, ts).ok());
  }
  EXPECT_EQ(reclaimed, (std::vector<Timestamp>{0, 1, 2}));
}

TEST_F(ChannelTest, PutBelowReclaimHorizonRejected) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch_.Put(5, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch_.Consume(conn, 5).ok());
  EXPECT_EQ(ch_.live_items(), 0u);
  EXPECT_EQ(ch_.Put(5, Payload("again"), Deadline::Infinite()).code(),
            StatusCode::kGarbageCollected);
  EXPECT_EQ(ch_.Put(3, Payload("older"), Deadline::Infinite()).code(),
            StatusCode::kGarbageCollected);
  EXPECT_TRUE(ch_.Put(6, Payload("newer"), Deadline::Infinite()).ok());
}

TEST_F(ChannelTest, GetOfReclaimedTimestampReportsGarbage) {
  std::uint32_t c1 = ch_.Attach(ConnMode::kInput, "a");
  std::uint32_t c2 = ch_.Attach(ConnMode::kInput, "b");
  ASSERT_TRUE(ch_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch_.Consume(c1, 1).ok());
  ASSERT_TRUE(ch_.Consume(c2, 1).ok());
  const Status gone = ch_.Get(c1, GetSpec::Exact(1), Deadline::Poll()).status();
  EXPECT_EQ(gone.code(), StatusCode::kGarbageCollected);
  // The consumers dropped their record of the reclaimed timestamp (so
  // their state stays bounded); the reclaim horizon answers instead.
  EXPECT_EQ(gone.message(), "timestamp below reclaim horizon");
}

// --- GC notices ------------------------------------------------------------

// A channel wired the way its owning space wires one: the reclaim hook
// publishes through a GcService, stamped with the channel's id bits,
// and a sink records every notice it hears.
class ChannelNoticeTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBits = 0x1234;

  void SetUp() override {
    gc_.AddSink([this](const std::vector<GcNotice>& batch) {
      notices_.insert(notices_.end(), batch.begin(), batch.end());
    });
  }

  std::vector<Timestamp> NoticedTimestamps() const {
    std::vector<Timestamp> out;
    for (const GcNotice& notice : notices_) {
      EXPECT_EQ(notice.container_bits, kBits);
      EXPECT_FALSE(notice.is_queue);
      out.push_back(notice.timestamp);
    }
    return out;
  }

  GcService gc_;
  std::vector<GcNotice> notices_;
  LocalChannel ch_{ChannelAttr{}, /*wheel=*/nullptr,
                   [this](const ReclaimedItems& freed) {
                     gc_.Publish(kBits, /*is_queue=*/false, freed);
                   }};
};

TEST_F(ChannelNoticeTest, ReclaimingConsumePublishesBeforeItReturns) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch_.Put(1, Payload("abc"), Deadline::Infinite()).ok());
  EXPECT_TRUE(notices_.empty());
  ASSERT_TRUE(ch_.Consume(conn, 1).ok());
  ASSERT_EQ(notices_.size(), 1u);
  EXPECT_EQ(notices_[0].container_bits, kBits);
  EXPECT_EQ(notices_[0].timestamp, 1);
  EXPECT_EQ(notices_[0].payload_size, 3u);
  EXPECT_FALSE(notices_[0].is_queue);
  EXPECT_EQ(gc_.notices_total(), 1u);
}

TEST_F(ChannelNoticeTest, ConsumeUntilPublishesEveryItemItReclaims) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts = 0; ts < 5; ++ts) {
    ASSERT_TRUE(ch_.Put(ts, Payload("x"), Deadline::Infinite()).ok());
  }
  ASSERT_TRUE(ch_.ConsumeUntil(conn, 2).ok());
  EXPECT_EQ(NoticedTimestamps(), (std::vector<Timestamp>{0, 1, 2}));
}

TEST_F(ChannelNoticeTest, DetachPublishesWhatOnlyTheDepartedConnectionHeld) {
  std::uint32_t stays = ch_.Attach(ConnMode::kInput, "stays");
  std::uint32_t leaves = ch_.Attach(ConnMode::kInput, "leaves");
  ASSERT_TRUE(ch_.Put(1, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch_.Consume(stays, 1).ok());
  EXPECT_TRUE(notices_.empty()) << "the other connection still holds it";
  ASSERT_TRUE(ch_.Detach(leaves).ok());
  EXPECT_EQ(NoticedTimestamps(), (std::vector<Timestamp>{1}));
}

TEST_F(ChannelNoticeTest, SetFilterPublishesWhatTheNarrowedFilterDrops) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  for (Timestamp ts = 0; ts < 4; ++ts) {
    ASSERT_TRUE(ch_.Put(ts, Payload("x"), Deadline::Infinite()).ok());
  }
  ItemFilter even_only;
  even_only.stride = 2;
  ASSERT_TRUE(ch_.SetFilter(conn, even_only).ok());
  EXPECT_EQ(NoticedTimestamps(), (std::vector<Timestamp>{1, 3}));
}

TEST_F(ChannelNoticeTest, PutThatIsGarbageOnArrivalPublishes) {
  std::uint32_t conn = ch_.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch_.ConsumeUntil(conn, 10).ok());
  ASSERT_TRUE(ch_.Put(5, Payload("x"), Deadline::Infinite()).ok());
  EXPECT_EQ(NoticedTimestamps(), (std::vector<Timestamp>{5}));
}

// --- reclaim lag -------------------------------------------------------------

TEST(ChannelMetricsTest, EveryReclaimingPathObservesItsItemsLag) {
  // Each item carries its birth time, so whichever path reclaims it
  // (consume, consume-until, detach, garbage on arrival) observes it.
  metrics::Registry registry;
  metrics::Histogram& lag = registry.GetHistogram("stm.reclaim_lag_us");
  LocalChannel ch{ChannelAttr{}};
  ch.set_metrics(StmMetrics{nullptr, nullptr, nullptr, &lag});
  std::uint32_t stays = ch.Attach(ConnMode::kInput, "stays");
  std::uint32_t leaves = ch.Attach(ConnMode::kInput, "leaves");
  for (Timestamp ts = 0; ts < 4; ++ts) {
    ASSERT_TRUE(ch.Put(ts, Payload("x"), Deadline::Infinite()).ok());
  }
  ASSERT_TRUE(ch.Consume(stays, 0).ok());
  ASSERT_TRUE(ch.Consume(leaves, 0).ok());
  EXPECT_EQ(lag.Count(), 1u);
  ASSERT_TRUE(ch.ConsumeUntil(stays, 2).ok());
  ASSERT_TRUE(ch.ConsumeUntil(leaves, 1).ok());
  EXPECT_EQ(lag.Count(), 2u);
  ASSERT_TRUE(ch.Detach(leaves).ok());  // only `leaves` held 2
  EXPECT_EQ(lag.Count(), 3u);
  ASSERT_TRUE(ch.ConsumeUntil(stays, 10).ok());
  EXPECT_EQ(lag.Count(), 4u);
  ASSERT_TRUE(ch.Put(5, Payload("x"), Deadline::Infinite()).ok());
  EXPECT_EQ(lag.Count(), 5u);
  EXPECT_EQ(ch.live_items(), 0u);
  EXPECT_EQ(ch.total_reclaimed(), 5u);
}

// --- capacity back-pressure ------------------------------------------------

TEST(ChannelCapacityTest, PutBlocksAtCapacityUntilReclaim) {
  ChannelAttr attr;
  attr.capacity_items = 2;
  LocalChannel ch(attr);
  std::uint32_t conn = ch.Attach(ConnMode::kInput, "t");
  ASSERT_TRUE(ch.Put(0, Payload("a"), Deadline::Poll()).ok());
  ASSERT_TRUE(ch.Put(1, Payload("b"), Deadline::Poll()).ok());
  // Full now.
  EXPECT_EQ(ch.Put(2, Payload("c"), Deadline::AfterMillis(50)).code(),
            StatusCode::kTimeout);
  std::thread consumer([&] {
    std::this_thread::sleep_for(Millis(30));
    ASSERT_TRUE(ch.Consume(conn, 0).ok());  // frees a slot
  });
  EXPECT_TRUE(ch.Put(2, Payload("c"), Deadline::AfterMillis(5000)).ok());
  consumer.join();
}

TEST(ChannelCapacityTest, UnboundedByDefault) {
  LocalChannel ch{ChannelAttr{}};
  for (Timestamp ts = 0; ts < 1000; ++ts) {
    ASSERT_TRUE(ch.Put(ts, Payload("x"), Deadline::Poll()).ok());
  }
  EXPECT_EQ(ch.live_items(), 1000u);
}

// --- close ---------------------------------------------------------------------

TEST(ChannelCloseTest, CloseWakesBlockedGetters) {
  LocalChannel ch{ChannelAttr{}};
  std::uint32_t conn = ch.Attach(ConnMode::kInput, "t");
  std::thread closer([&] {
    std::this_thread::sleep_for(Millis(30));
    ch.Close();
  });
  auto item = ch.Get(conn, GetSpec::Exact(1), Deadline::Infinite());
  EXPECT_EQ(item.status().code(), StatusCode::kCancelled);
  closer.join();
}

TEST(ChannelCloseTest, CloseFailsSubsequentPuts) {
  LocalChannel ch{ChannelAttr{}};
  ch.Close();
  EXPECT_EQ(ch.Put(1, Payload("x"), Deadline::Poll()).code(),
            StatusCode::kCancelled);
}

// --- introspection --------------------------------------------------------------

TEST_F(ChannelTest, IntrospectionCounters) {
  EXPECT_EQ(ch_.newest_timestamp(), kInvalidTimestamp);
  std::uint32_t in = ch_.Attach(ConnMode::kInput, "in");
  ch_.Attach(ConnMode::kOutput, "out");
  (void)in;
  EXPECT_EQ(ch_.input_connections(), 1u);
  ASSERT_TRUE(ch_.Put(3, Payload("x"), Deadline::Infinite()).ok());
  ASSERT_TRUE(ch_.Put(8, Payload("y"), Deadline::Infinite()).ok());
  EXPECT_EQ(ch_.newest_timestamp(), 8);
  EXPECT_EQ(ch_.total_puts(), 2u);
}

}  // namespace
}  // namespace dstampede::core
