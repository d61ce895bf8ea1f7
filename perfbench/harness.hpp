// Pure helpers of the D-Stampede benchmark (perfbench/dsbench.cpp):
// seeded inputs, exact percentiles, the sliced measurement window, and
// the join of timed API calls with the spans the runtime records. Nothing
// here owns runtime objects, so tests/harness_test.cpp covers it
// without a cluster.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/trace.hpp"

namespace dsbench {

using dstampede::Duration;
using dstampede::TimePoint;

// splitmix64. The only source of randomness: std:: distributions are
// not specified bit-for-bit, so inputs would differ between standard
// libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  // Uniform in [0, n); n must be > 0.
  std::uint64_t Below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

enum class Workload { kClusterSmall, kClusterBulk, kDeviceEdge };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// Payload sizes and bytes of one run, all drawn from the seed. Item i
// (timestamp i + 1) carries payload(i). Sizes and pool offsets repeat
// with coprime periods, so consecutive items differ in both.
class Inputs {
 public:
  static Inputs Make(Workload workload, std::uint64_t seed);

  std::size_t size(std::uint64_t item) const {
    return sizes_[item % sizes_.size()];
  }
  std::span<const std::uint8_t> payload(std::uint64_t item) const;
  // One period of the size sequence.
  const std::vector<std::size_t>& sizes() const { return sizes_; }

 private:
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint8_t> pool_;
};

// Linear interpolation between closest ranks (numpy's default). NaN
// when `values` is empty. Takes a copy: it sorts.
double Percentile(std::vector<double> values, double p);

// A measured window cut into equal slices. Each slice keeps the number
// of items finished in it and the percentiles of their latencies; the
// window's figures are medians over the slices. The virtual CPUs this
// was tuned on slow down in bursts of a fraction of a second, which move
// a median over slices far less than a figure over the whole window.
// Only the open slice keeps its samples, so the harness's own memory
// does not grow with the window (peak RSS is an end-to-end metric).
class SlicedWindow {
 public:
  // `window` is cut into max(1, round(window / slice)) equal slices.
  SlicedWindow(TimePoint start, Duration window, Duration slice);

  TimePoint end() const { return end_; }
  // Counts an item finished at `done` after `latency_us`; false (not
  // counted) outside the window. Items come in order of `done`.
  bool Add(TimePoint done, double latency_us);
  // Closes the open slice; call once the window's items are all added.
  void Close();

  std::uint64_t total() const { return total_; }
  std::size_t slices() const { return slices_.size(); }
  // Fewest items finished in one slice.
  std::uint64_t min_slice_items() const;
  // Median over the slices of items per second.
  double MedianRate() const;
  // A latency statistic of one slice.
  enum class Stat { kMean, kP50, kP90 };
  // Median over the slices of their `stat` latency; slices without items
  // are left out. NaN when every slice is empty.
  double MedianLatency(Stat stat) const;

 private:
  struct Slice {
    std::uint64_t items = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
  };

  TimePoint start_;
  TimePoint end_;
  Duration slice_;
  std::vector<Slice> slices_;
  std::size_t open_ = 0;           // index of the open slice
  std::vector<double> open_samples_;
  std::uint64_t total_ = 0;
};

// One API call the harness timed under its own trace id.
struct TimedCall {
  std::uint64_t trace_id = 0;
  TimePoint start{};
  TimePoint end{};
};

double Micros(Duration d);

// Spans of one traced batch, looked up by trace id.
class SpanIndex {
 public:
  void Add(const std::vector<dstampede::trace::Span>& spans);
  // Earliest span of `trace_id` called `name`; null when none.
  const dstampede::trace::Span* Find(std::uint64_t trace_id,
                                     std::string_view name) const;
  // Earliest "owner.parked" or "owner.serve" span: the owner's work on
  // a remote request or a local call respectively.
  const dstampede::trace::Span* FindOwner(std::uint64_t trace_id) const;

 private:
  std::unordered_map<std::uint64_t, std::vector<dstampede::trace::Span>>
      by_trace_;
};

// A cluster call split at its owner span. The three parts add up to
// the call time exactly. Nullopt (the call is unjoined) when the owner
// span is missing or does not lie inside the call.
struct ClusterSplit {
  double request_transit_us = 0;  // call start -> owner span start
  double owner_us = 0;            // owner span
  double reply_transit_us = 0;    // owner span end -> call return
};
std::optional<ClusterSplit> SplitClusterCall(const TimedCall& call,
                                             const SpanIndex& spans);

// An end-device call split at the surrogate's nested spans
// (client.call > surrogate.dispatch > owner.serve). The four parts add
// up to the call time exactly. Nullopt (unjoined) when a span is missing
// or does not lie inside the one before it, the first inside the call.
struct ClientSplit {
  double edge_us = 0;                // call - client.call
  double surrogate_self_us = 0;      // client.call - surrogate.dispatch
  double surrogate_dispatch_us = 0;  // surrogate.dispatch - owner span
  double owner_us = 0;               // owner span
};
std::optional<ClientSplit> SplitClientCall(const TimedCall& call,
                                           const SpanIndex& spans);

// |sum(parts) - whole| as a percentage of `whole` (the waterfall check:
// medians of a call's parts against the median call time).
double WaterfallGapPct(double whole, const std::vector<double>& parts);

}  // namespace dsbench
