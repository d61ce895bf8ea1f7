// Real-time synchrony: pacing, tolerance, slippage handling.
#include <gtest/gtest.h>

#include <thread>

#include "dstampede/core/rt_sync.hpp"

namespace dstampede::core {
namespace {

TEST(RtSyncTest, EarlyThreadWaitsForTick) {
  RtSync pace(Millis(30), Millis(5));
  const TimePoint start = Now();
  ASSERT_TRUE(pace.Synchronize().ok());  // no work done: we are early
  const auto elapsed = ToMicros(Now() - start);
  EXPECT_GE(elapsed, 25000) << "should have slept until the tick";
  EXPECT_EQ(pace.slips(), 0u);
}

TEST(RtSyncTest, PacesLoopAtTargetRate) {
  // The paper's example: a camera pacing itself (scaled down: 20ms
  // ticks, 10 frames -> ~200ms total).
  RtSync pace(Millis(20), Millis(5));
  pace.Start();
  const TimePoint start = Now();
  for (int frame = 0; frame < 10; ++frame) {
    (void)pace.Synchronize();
  }
  const auto elapsed = ToMicros(Now() - start);
  EXPECT_GE(elapsed, 180000);
  EXPECT_LE(elapsed, 400000);
  EXPECT_EQ(pace.ticks(), 10u);
}

TEST(RtSyncTest, WithinToleranceNoSlip) {
  RtSync pace(Millis(20), Millis(15));
  pace.Start();
  std::this_thread::sleep_for(Millis(23));  // ~3ms late, within 15ms
  EXPECT_TRUE(pace.Synchronize().ok());
  EXPECT_EQ(pace.slips(), 0u);
}

TEST(RtSyncTest, LateBeyondToleranceInvokesHandler) {
  std::int64_t reported_slip = -1;
  RtSync pace(Millis(10), Millis(2),
              [&](std::int64_t slip) { reported_slip = slip; });
  pace.Start();
  std::this_thread::sleep_for(Millis(40));  // blow through tick+tolerance
  Status s = pace.Synchronize();
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(pace.slips(), 1u);
  EXPECT_GT(reported_slip, 0);
}

TEST(RtSyncTest, ReAnchorsAfterSlip) {
  // One hiccup must not cascade into a slip on every later tick.
  int slips = 0;
  RtSync pace(Millis(20), Millis(5), [&](std::int64_t) { ++slips; });
  pace.Start();
  std::this_thread::sleep_for(Millis(80));  // big one-time stall
  (void)pace.Synchronize();                 // slip #1, re-anchor
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pace.Synchronize().ok()) << "tick " << i << " after re-anchor";
  }
  EXPECT_EQ(slips, 1);
}

TEST(RtSyncTest, SlipWithoutHandlerIsSafe) {
  RtSync pace(Millis(5), Millis(1));
  pace.Start();
  std::this_thread::sleep_for(Millis(20));
  EXPECT_EQ(pace.Synchronize().code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace dstampede::core
