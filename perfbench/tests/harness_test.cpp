// Unit tests of the benchmark harness's pure helpers: seed -> inputs,
// percentiles, the sliced window, and the span join.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "harness.hpp"

namespace dsbench {
namespace {

using dstampede::Micros;
using dstampede::trace::Span;

TEST(InputsTest, SameSeedGivesIdenticalSizesAndBytes) {
  for (Workload w : {Workload::kClusterSmall, Workload::kClusterBulk,
                     Workload::kDeviceEdge}) {
    const Inputs a = Inputs::Make(w, 42);
    const Inputs b = Inputs::Make(w, 42);
    EXPECT_EQ(a.sizes(), b.sizes()) << WorkloadName(w);
    for (std::uint64_t item = 0; item < 5000; item += 7) {
      auto pa = a.payload(item);
      auto pb = b.payload(item);
      ASSERT_EQ(pa.size(), pb.size());
      EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()))
          << WorkloadName(w) << " item " << item;
    }
  }
}

TEST(InputsTest, DifferentSeedsGiveDifferentBytes) {
  const Inputs a = Inputs::Make(Workload::kClusterSmall, 1);
  const Inputs b = Inputs::Make(Workload::kClusterSmall, 2);
  auto pa = a.payload(0);
  auto pb = b.payload(0);
  EXPECT_FALSE(std::equal(pa.begin(), pa.end(), pb.begin()));
  // Consecutive items of one run differ as well.
  auto next = a.payload(1);
  EXPECT_FALSE(std::equal(pa.begin(), pa.end(), next.begin()));
}

TEST(InputsTest, SizesFollowTheWorkload) {
  const Inputs small = Inputs::Make(Workload::kClusterSmall, 3);
  for (std::size_t size : small.sizes()) EXPECT_EQ(size, 1000u);

  const Inputs bulk = Inputs::Make(Workload::kClusterBulk, 3);
  const std::set<std::size_t> bulk_sizes(bulk.sizes().begin(),
                                         bulk.sizes().end());
  EXPECT_EQ(bulk_sizes, (std::set<std::size_t>{74000, 89000, 125000, 145000,
                                                190000}));

  const Inputs edge = Inputs::Make(Workload::kDeviceEdge, 3);
  std::set<std::size_t> edge_sizes;
  for (std::size_t size : edge.sizes()) {
    EXPECT_EQ(size % 1000, 0u);
    edge_sizes.insert(size);
  }
  EXPECT_EQ(edge_sizes.size(), 60u);
  EXPECT_EQ(*edge_sizes.begin(), 1000u);
  EXPECT_EQ(*edge_sizes.rbegin(), 60000u);
}

TEST(InputsTest, WorkloadNamesRoundTrip) {
  for (const char* name : {"cluster_small", "cluster_bulk", "device_edge"}) {
    auto w = ParseWorkload(name);
    ASSERT_TRUE(w.has_value()) << name;
    EXPECT_STREQ(WorkloadName(*w), name);
  }
  EXPECT_FALSE(ParseWorkload("videoconf").has_value());
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 90), 4.6);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 100), 5);
}

TEST(SlicedWindowTest, MediansOverEqualSlices) {
  const TimePoint t0{};
  SlicedWindow window(t0, Micros(4000), Micros(1000));
  EXPECT_EQ(window.slices(), 4u);
  EXPECT_EQ(window.end(), t0 + Micros(4000));
  // Slices of 1 ms with 3, 1, 2 and 2 items: 3000, 1000, 2000 and 2000
  // items/s. Latencies per slice {1, 2, 30}, {4}, {5, 7}, {6, 8}.
  const std::pair<std::int64_t, double> items[] = {
      {0, 1}, {10, 30}, {999, 2}, {1000, 4},
      {2000, 5}, {2500, 7}, {3000, 8}, {3999, 6}};
  for (const auto& [us, latency] : items) {
    EXPECT_TRUE(window.Add(t0 + Micros(us), latency)) << us;
  }
  EXPECT_FALSE(window.Add(t0 + Micros(4000), 1));
  window.Close();
  EXPECT_EQ(window.total(), 8u);
  EXPECT_EQ(window.min_slice_items(), 1u);
  EXPECT_DOUBLE_EQ(window.MedianRate(), 2000);
  // Slice means 11, 4, 6, 7; p50s 2, 4, 6, 7; p90s 24.4, 4, 6.8, 7.8.
  EXPECT_DOUBLE_EQ(window.MedianLatency(SlicedWindow::Stat::kMean), 6.5);
  EXPECT_DOUBLE_EQ(window.MedianLatency(SlicedWindow::Stat::kP50), 5);
  EXPECT_DOUBLE_EQ(window.MedianLatency(SlicedWindow::Stat::kP90), 7.3);
}

TEST(SlicedWindowTest, EmptySlicesCountForRateButNotLatency) {
  const TimePoint t0{};
  SlicedWindow window(t0, Micros(3000), Micros(1000));
  EXPECT_FALSE(window.Add(t0 - Micros(1), 1));
  EXPECT_TRUE(window.Add(t0 + Micros(2100), 10));
  EXPECT_TRUE(window.Add(t0 + Micros(2200), 20));
  window.Close();
  EXPECT_EQ(window.min_slice_items(), 0u);
  EXPECT_DOUBLE_EQ(window.MedianRate(), 0);
  EXPECT_DOUBLE_EQ(window.MedianLatency(SlicedWindow::Stat::kMean), 15);
  EXPECT_DOUBLE_EQ(window.MedianLatency(SlicedWindow::Stat::kP50), 15);
  EXPECT_DOUBLE_EQ(window.MedianLatency(SlicedWindow::Stat::kP90), 19);
}

TEST(SlicedWindowTest, ShortWindowIsOneSlice) {
  const TimePoint t0{};
  SlicedWindow window(t0, Micros(300), Micros(1000));
  EXPECT_EQ(window.slices(), 1u);
  EXPECT_TRUE(window.Add(t0 + Micros(299), 3));
  window.Close();
  EXPECT_NEAR(window.MedianRate(), 1 / 300e-6, 1e-6);
  EXPECT_DOUBLE_EQ(window.MedianLatency(SlicedWindow::Stat::kP50), 3);
}

Span MakeSpan(std::uint64_t trace, const char* name, TimePoint start,
              std::int64_t us) {
  Span span;
  span.trace_id = trace;
  span.span_id = trace * 100 + static_cast<std::uint64_t>(us);
  span.name = name;
  span.start = start;
  span.duration = Micros(us);
  return span;
}

TEST(SpanJoinTest, ClusterCallSplitsAtTheOwnerSpan) {
  const TimePoint t0{};
  SpanIndex index;
  index.Add({MakeSpan(7, "owner.parked", t0 + Micros(30), 5),
             MakeSpan(8, "owner.parked", t0 + Micros(1), 1)});
  const TimedCall call{7, t0, t0 + Micros(60)};
  auto split = SplitClusterCall(call, index);
  ASSERT_TRUE(split.has_value());
  EXPECT_DOUBLE_EQ(split->request_transit_us, 30);
  EXPECT_DOUBLE_EQ(split->owner_us, 5);
  EXPECT_DOUBLE_EQ(split->reply_transit_us, 25);
  EXPECT_DOUBLE_EQ(split->request_transit_us + split->owner_us +
                       split->reply_transit_us,
                   60);
  EXPECT_FALSE(SplitClusterCall(TimedCall{9, t0, t0}, index).has_value());
}

TEST(SpanJoinTest, OwnerIsTheEarliestOwnerSpan) {
  const TimePoint t0{};
  SpanIndex index;
  index.Add({MakeSpan(1, "owner.serve", t0 + Micros(20), 2)});
  index.Add({MakeSpan(1, "owner.parked", t0 + Micros(10), 4),
             MakeSpan(1, "other", t0, 1)});
  const Span* owner = index.FindOwner(1);
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->name, "owner.parked");
  EXPECT_EQ(index.Find(1, "missing"), nullptr);
  EXPECT_EQ(index.FindOwner(2), nullptr);
}

TEST(SpanJoinTest, ClientCallSplitsAtTheSurrogateSpans) {
  const TimePoint t0{};
  SpanIndex index;
  index.Add({MakeSpan(5, "client.call", t0 + Micros(10), 40),
             MakeSpan(5, "surrogate.dispatch", t0 + Micros(12), 30),
             MakeSpan(5, "owner.serve", t0 + Micros(20), 8)});
  const TimedCall call{5, t0, t0 + Micros(100)};
  auto split = SplitClientCall(call, index);
  ASSERT_TRUE(split.has_value());
  EXPECT_DOUBLE_EQ(split->edge_us, 60);
  EXPECT_DOUBLE_EQ(split->surrogate_self_us, 10);
  EXPECT_DOUBLE_EQ(split->surrogate_dispatch_us, 22);
  EXPECT_DOUBLE_EQ(split->owner_us, 8);

  SpanIndex partial;
  partial.Add({MakeSpan(5, "client.call", t0, 40)});
  EXPECT_FALSE(SplitClientCall(call, partial).has_value());
}

TEST(SpanJoinTest, SpansThatDoNotNestLeaveTheCallUnjoined) {
  const TimePoint t0{};
  // The owner span ends after the call returned: no split, rather than a
  // negative reply transit.
  SpanIndex late;
  late.Add({MakeSpan(3, "owner.serve", t0 + Micros(50), 20)});
  EXPECT_FALSE(SplitClusterCall(TimedCall{3, t0, t0 + Micros(60)}, late));
  EXPECT_FALSE(SplitClusterCall(TimedCall{3, t0 + Micros(51), t0 + Micros(90)},
                                late));
  EXPECT_TRUE(SplitClusterCall(TimedCall{3, t0 + Micros(50), t0 + Micros(70)},
                               late));

  // Each client-side span must lie inside the one that encloses it.
  const TimedCall call{6, t0, t0 + Micros(100)};
  SpanIndex dispatch_outside;
  dispatch_outside.Add({MakeSpan(6, "client.call", t0 + Micros(10), 40),
                        MakeSpan(6, "surrogate.dispatch", t0 + Micros(45), 10),
                        MakeSpan(6, "owner.serve", t0 + Micros(46), 2)});
  EXPECT_FALSE(SplitClientCall(call, dispatch_outside));
  SpanIndex owner_outside;
  owner_outside.Add({MakeSpan(6, "client.call", t0 + Micros(10), 40),
                     MakeSpan(6, "surrogate.dispatch", t0 + Micros(12), 30),
                     MakeSpan(6, "owner.serve", t0 + Micros(5), 8)});
  EXPECT_FALSE(SplitClientCall(call, owner_outside));
  SpanIndex client_outside;
  client_outside.Add({MakeSpan(6, "client.call", t0 + Micros(90), 40),
                      MakeSpan(6, "surrogate.dispatch", t0 + Micros(92), 30),
                      MakeSpan(6, "owner.serve", t0 + Micros(95), 8)});
  EXPECT_FALSE(SplitClientCall(call, client_outside));
}

TEST(SpanJoinTest, WaterfallGap) {
  EXPECT_DOUBLE_EQ(WaterfallGapPct(100, {30, 50, 20}), 0);
  EXPECT_DOUBLE_EQ(WaterfallGapPct(100, {30, 50, 10}), 10);
  EXPECT_DOUBLE_EQ(WaterfallGapPct(50, {30, 30}), 20);
}

}  // namespace
}  // namespace dsbench
