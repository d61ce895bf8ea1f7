// Temporal correlation (§2 requirement 2): the align-to-max protocol
// over multiple streams, gap skipping, GC of uncorrelatable items.
#include <gtest/gtest.h>

#include <thread>

#include "dstampede/app/correlator.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede::app {
namespace {

using core::ConnMode;
using core::Connection;

class CorrelatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok());
    rt_ = std::move(rt).value();
  }
  void TearDown() override { rt_->Shutdown(); }

  // Creates a channel on as(0) and puts the given timestamps.
  ChannelId Stream(const std::vector<Timestamp>& timestamps,
                   std::uint64_t seed) {
    auto ch = rt_->as(0).CreateChannel();
    EXPECT_TRUE(ch.ok());
    auto out = rt_->as(0).Connect(*ch, ConnMode::kOutput);
    EXPECT_TRUE(out.ok());
    for (Timestamp ts : timestamps) {
      Buffer b(64);
      FillPattern(b, seed ^ static_cast<std::uint64_t>(ts));
      EXPECT_TRUE(rt_->as(0).Put(*out, ts, std::move(b)).ok());
    }
    return *ch;
  }

  std::vector<Connection> Inputs(std::initializer_list<ChannelId> channels) {
    std::vector<Connection> inputs;
    for (ChannelId ch : channels) {
      auto conn = rt_->as(1).Connect(ch, ConnMode::kInput, "correlator");
      EXPECT_TRUE(conn.ok());
      inputs.push_back(*conn);
    }
    return inputs;
  }

  std::unique_ptr<core::Runtime> rt_;
};

TEST_F(CorrelatorTest, AlignedStreamsCorrelateEveryTimestamp) {
  ChannelId a = Stream({0, 1, 2, 3}, 100);
  ChannelId b = Stream({0, 1, 2, 3}, 200);
  TemporalCorrelator correlator(rt_->as(1), Inputs({a, b}));
  for (Timestamp ts = 0; ts < 4; ++ts) {
    auto tuple = correlator.NextTuple(Deadline::AfterMillis(10000));
    ASSERT_TRUE(tuple.ok()) << tuple.status();
    EXPECT_EQ(tuple->timestamp, ts);
    ASSERT_EQ(tuple->items.size(), 2u);
    EXPECT_TRUE(CheckPattern(tuple->items[0].payload.span(),
                             100 ^ static_cast<std::uint64_t>(ts)));
    EXPECT_TRUE(CheckPattern(tuple->items[1].payload.span(),
                             200 ^ static_cast<std::uint64_t>(ts)));
  }
  EXPECT_EQ(correlator.skipped_timestamps(), 0u);
}

TEST_F(CorrelatorTest, SkipsGapsToNextCommonTimestamp) {
  ChannelId a = Stream({0, 1, 2, 3, 4, 5}, 1);
  ChannelId b = Stream({0, 3, 5}, 2);  // dropped 1, 2, 4
  TemporalCorrelator correlator(rt_->as(1), Inputs({a, b}));
  std::vector<Timestamp> correlated;
  for (int i = 0; i < 3; ++i) {
    auto tuple = correlator.NextTuple(Deadline::AfterMillis(10000));
    ASSERT_TRUE(tuple.ok()) << tuple.status();
    correlated.push_back(tuple->timestamp);
  }
  EXPECT_EQ(correlated, (std::vector<Timestamp>{0, 3, 5}));
  EXPECT_EQ(correlator.skipped_timestamps(), 3u);
}

TEST_F(CorrelatorTest, ConsumesCorrelatedAndOlderItems) {
  ChannelId a = Stream({0, 1, 2}, 1);
  ChannelId b = Stream({2}, 2);
  TemporalCorrelator correlator(rt_->as(1), Inputs({a, b}));
  auto tuple = correlator.NextTuple(Deadline::AfterMillis(10000));
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->timestamp, 2);
  // ConsumeUntil(2) on the only input connections: everything reclaims.
  auto channel_a = rt_->as(0).FindChannel(a.bits());
  auto channel_b = rt_->as(0).FindChannel(b.bits());
  EXPECT_EQ(channel_a->live_items(), 0u);
  EXPECT_EQ(channel_b->live_items(), 0u);
}

TEST_F(CorrelatorTest, BlocksUntilLaggingStreamCatchesUp) {
  ChannelId a = Stream({0}, 1);
  auto b = rt_->as(0).CreateChannel();
  ASSERT_TRUE(b.ok());
  auto inputs = Inputs({a, *b});
  TemporalCorrelator correlator(rt_->as(1), std::move(inputs));
  std::thread late([&] {
    std::this_thread::sleep_for(Millis(50));
    auto out = rt_->as(0).Connect(*b, ConnMode::kOutput);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(rt_->as(0).Put(*out, 0, Buffer(8)).ok());
  });
  auto tuple = correlator.NextTuple(Deadline::AfterMillis(10000));
  ASSERT_TRUE(tuple.ok()) << tuple.status();
  EXPECT_EQ(tuple->timestamp, 0);
  late.join();
}

TEST_F(CorrelatorTest, DisjointStreamsTimeOut) {
  ChannelId a = Stream({0, 2, 4}, 1);
  ChannelId b = Stream({1, 3, 5}, 2);  // never shares a timestamp
  TemporalCorrelator correlator(rt_->as(1), Inputs({a, b}));
  auto tuple = correlator.NextTuple(Deadline::AfterMillis(300));
  EXPECT_EQ(tuple.status().code(), StatusCode::kTimeout);
}

TEST_F(CorrelatorTest, ThreeWayCorrelation) {
  ChannelId a = Stream({0, 1, 2, 3, 4}, 1);
  ChannelId b = Stream({1, 2, 4}, 2);
  ChannelId c = Stream({0, 2, 3, 4}, 3);
  TemporalCorrelator correlator(rt_->as(1), Inputs({a, b, c}));
  std::vector<Timestamp> correlated;
  for (int i = 0; i < 2; ++i) {
    auto tuple = correlator.NextTuple(Deadline::AfterMillis(10000));
    ASSERT_TRUE(tuple.ok());
    ASSERT_EQ(tuple->items.size(), 3u);
    correlated.push_back(tuple->timestamp);
  }
  EXPECT_EQ(correlated, (std::vector<Timestamp>{2, 4}));
}

TEST_F(CorrelatorTest, NoInputsRejected) {
  TemporalCorrelator correlator(rt_->as(1), {});
  EXPECT_EQ(correlator.NextTuple(Deadline::Poll()).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dstampede::app
