#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace dsbench {

namespace {

// Periods of the size and offset sequences: coprime, so the pair
// (size, offset) repeats only every ~16.7M items.
constexpr std::size_t kSizePeriod = 4096;
constexpr std::size_t kOffsetPeriod = 4093;
// Slack past the largest payload from which offsets are drawn.
constexpr std::size_t kPoolSlack = 256 * 1024;

// The paper's Fig 15 image sizes (bytes).
constexpr std::size_t kFig15Sizes[] = {74000, 89000, 125000, 145000, 190000};

}  // namespace

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::Below(std::uint64_t n) {
  // Multiply-shift: exact enough for n far below 2^64, and portable.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "cluster_small") return Workload::kClusterSmall;
  if (name == "cluster_bulk") return Workload::kClusterBulk;
  if (name == "device_edge") return Workload::kDeviceEdge;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kClusterSmall: return "cluster_small";
    case Workload::kClusterBulk: return "cluster_bulk";
    case Workload::kDeviceEdge: return "device_edge";
  }
  return "?";
}

Inputs Inputs::Make(Workload workload, std::uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  in.sizes_.resize(kSizePeriod);
  for (std::size_t& size : in.sizes_) {
    switch (workload) {
      case Workload::kClusterSmall:
        size = 1000;
        break;
      case Workload::kClusterBulk:
        size = kFig15Sizes[rng.Below(std::size(kFig15Sizes))];
        break;
      case Workload::kDeviceEdge:  // the E2 sweep: 1..60 KB, 1 KB step
        size = 1000 * (1 + rng.Below(60));
        break;
    }
  }
  const std::size_t largest =
      *std::max_element(in.sizes_.begin(), in.sizes_.end());
  in.pool_.resize(largest + kPoolSlack);
  for (std::size_t i = 0; i < in.pool_.size(); i += 8) {
    const std::uint64_t word = rng.Next();
    for (std::size_t b = 0; b < 8 && i + b < in.pool_.size(); ++b) {
      in.pool_[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  in.offsets_.resize(kOffsetPeriod);
  for (std::size_t& offset : in.offsets_) offset = rng.Below(kPoolSlack + 1);
  return in;
}

std::span<const std::uint8_t> Inputs::payload(std::uint64_t item) const {
  return std::span<const std::uint8_t>(pool_).subspan(
      offsets_[item % offsets_.size()], size(item));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

SlicedWindow::SlicedWindow(TimePoint start, Duration window, Duration slice)
    : start_(start), end_(start + window) {
  const auto n = std::max<Duration::rep>(
      1, static_cast<Duration::rep>(std::llround(
             static_cast<double>(window.count()) /
             static_cast<double>(slice.count()))));
  slice_ = window / n;
  slices_.resize(static_cast<std::size_t>(n));
}

bool SlicedWindow::Add(TimePoint done, double latency_us) {
  if (done < start_ || done >= end_) return false;
  const auto index = std::min(
      static_cast<std::size_t>((done - start_) / slice_), slices_.size() - 1);
  if (index > open_) {
    Close();
    open_ = index;
  }
  open_samples_.push_back(latency_us);
  ++slices_[open_].items;
  ++total_;
  return true;
}

void SlicedWindow::Close() {
  Slice& slice = slices_[open_];
  if (!open_samples_.empty()) {
    double sum = 0;
    for (double sample : open_samples_) sum += sample;
    slice.mean = sum / static_cast<double>(open_samples_.size());
    slice.p50 = Percentile(open_samples_, 50);
    slice.p90 = Percentile(open_samples_, 90);
  }
  open_samples_.clear();
}

std::uint64_t SlicedWindow::min_slice_items() const {
  std::uint64_t fewest = UINT64_MAX;
  for (const Slice& slice : slices_) fewest = std::min(fewest, slice.items);
  return fewest;
}

double SlicedWindow::MedianRate() const {
  const double seconds = std::chrono::duration<double>(slice_).count();
  std::vector<double> rates;
  for (const Slice& slice : slices_) {
    rates.push_back(static_cast<double>(slice.items) / seconds);
  }
  return Percentile(std::move(rates), 50);
}

double SlicedWindow::MedianLatency(Stat stat) const {
  std::vector<double> values;
  for (const Slice& slice : slices_) {
    if (slice.items == 0) continue;
    switch (stat) {
      case Stat::kMean: values.push_back(slice.mean); break;
      case Stat::kP50: values.push_back(slice.p50); break;
      case Stat::kP90: values.push_back(slice.p90); break;
    }
  }
  return Percentile(std::move(values), 50);
}

double Micros(Duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

void SpanIndex::Add(const std::vector<dstampede::trace::Span>& spans) {
  for (const auto& span : spans) by_trace_[span.trace_id].push_back(span);
}

const dstampede::trace::Span* SpanIndex::Find(std::uint64_t trace_id,
                                              std::string_view name) const {
  auto it = by_trace_.find(trace_id);
  if (it == by_trace_.end()) return nullptr;
  const dstampede::trace::Span* best = nullptr;
  for (const auto& span : it->second) {
    if (span.name != name) continue;
    if (best == nullptr || span.start < best->start) best = &span;
  }
  return best;
}

const dstampede::trace::Span* SpanIndex::FindOwner(
    std::uint64_t trace_id) const {
  const auto* parked = Find(trace_id, "owner.parked");
  const auto* serve = Find(trace_id, "owner.serve");
  if (parked == nullptr) return serve;
  if (serve == nullptr) return parked;
  return parked->start <= serve->start ? parked : serve;
}

namespace {

TimePoint End(const dstampede::trace::Span& span) {
  return span.start + span.duration;
}

// Whether `span` lies inside [start, end]. A span that does not would
// give a negative part, so its call is not split at all.
bool Within(const dstampede::trace::Span* span, TimePoint start,
            TimePoint end) {
  return span != nullptr && span->start >= start && End(*span) <= end;
}

}  // namespace

std::optional<ClusterSplit> SplitClusterCall(const TimedCall& call,
                                             const SpanIndex& spans) {
  const auto* owner = spans.FindOwner(call.trace_id);
  if (!Within(owner, call.start, call.end)) return std::nullopt;
  return ClusterSplit{Micros(owner->start - call.start),
                      Micros(owner->duration), Micros(call.end - End(*owner))};
}

std::optional<ClientSplit> SplitClientCall(const TimedCall& call,
                                           const SpanIndex& spans) {
  const auto* client = spans.Find(call.trace_id, "client.call");
  if (!Within(client, call.start, call.end)) return std::nullopt;
  const auto* dispatch = spans.Find(call.trace_id, "surrogate.dispatch");
  if (!Within(dispatch, client->start, End(*client))) return std::nullopt;
  const auto* owner = spans.FindOwner(call.trace_id);
  if (!Within(owner, dispatch->start, End(*dispatch))) return std::nullopt;
  return ClientSplit{Micros((call.end - call.start) - client->duration),
                     Micros(client->duration - dispatch->duration),
                     Micros(dispatch->duration - owner->duration),
                     Micros(owner->duration)};
}

double WaterfallGapPct(double whole, const std::vector<double>& parts) {
  double sum = 0;
  for (double part : parts) sum += part;
  return 100.0 * std::fabs(sum - whole) / whole;
}

}  // namespace dsbench
