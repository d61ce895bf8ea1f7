#include "dstampede/common/metrics.hpp"

#include "dstampede/common/json.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>

namespace dstampede::metrics {

void Histogram::Observe(std::int64_t sample) {
  if (sample < 0) sample = 0;
  // The extremes start at INT64_MAX and 0, so every sample tightens
  // them with the same CAS loop.
  std::int64_t seen = min_.load(std::memory_order_relaxed);
  while (sample < seen &&
         !min_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (sample > seen &&
         !max_.compare_exchange_weak(seen, sample, std::memory_order_relaxed)) {
  }
  const std::uint64_t v = static_cast<std::uint64_t>(sample);
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  // Counted last, with release: a reader that sees this count (Count()
  // acquires) also sees the extremes above, so with Count() > 0,
  // Min() <= some counted sample <= Max().
  count_.fetch_add(1, std::memory_order_release);
}

std::size_t Histogram::BucketIndex(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const std::size_t octave = static_cast<std::size_t>(std::bit_width(v)) - 1;
  const std::size_t sub =
      static_cast<std::size_t>(v >> (octave - kSubBits)) & (kSubBuckets - 1);
  const std::size_t index = (octave - 3) * kSubBuckets + sub;
  return std::min(index, kBuckets - 1);
}

std::int64_t Histogram::BucketValue(std::size_t index) {
  if (index < kSubBuckets) return static_cast<std::int64_t>(index);
  const std::size_t octave = index / kSubBuckets + 3;
  const std::size_t sub = index % kSubBuckets;
  const std::uint64_t low = (kSubBuckets + sub) << (octave - kSubBits);
  const std::uint64_t width = std::uint64_t{1} << (octave - kSubBits);
  return static_cast<std::int64_t>(low + width / 2);
}

std::int64_t Histogram::Mean() const {
  const std::uint64_t n = Count();
  if (n == 0) return 0;
  return Sum() / static_cast<std::int64_t>(n);
}

std::int64_t Histogram::Min() const {
  return Count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::int64_t Histogram::Max() const {
  return Count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

std::int64_t Histogram::Percentile(double p) const {
  const std::uint64_t n = Count();
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample (1-based), nearest-rank.
  std::uint64_t rank = static_cast<std::uint64_t>(p / 100.0 *
                                                  static_cast<double>(n - 1)) +
                       1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Clamp the bucket midpoint into the observed range so p0/p100
      // agree with Min/Max despite bucket rounding.
      return std::clamp(BucketValue(i), Min(), Max());
    }
  }
  return Max();
}

std::string Histogram::Summary() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "n=%" PRIu64 " mean=%" PRId64 " min=%" PRId64 " p50=%" PRId64
                " p99=%" PRId64 " max=%" PRId64,
                Count(), Mean(), Min(), Percentile(50), Percentile(99), Max());
  return buf;
}

Counter& Registry::GetCounter(const std::string& name) {
  ds::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  ds::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  ds::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::uint64_t Registry::AddProvider(const std::string& name, Provider fn) {
  ds::MutexLock lock(mu_);
  const std::uint64_t token = next_provider_token_++;
  providers_.emplace(token, ProviderEntry{name, std::move(fn)});
  return token;
}

void Registry::RemoveProvider(std::uint64_t token) {
  ds::MutexLock lock(mu_);
  providers_.erase(token);
}

namespace {

void AppendI64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

}  // namespace

void Registry::WriteJson(std::string& out) const {
  // Snapshot the instrument pointers under the (leaf) mutex, then
  // format and run providers outside it.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  std::vector<ProviderEntry> providers;
  {
    ds::MutexLock lock(mu_);
    for (const auto& [name, c] : counters_) counters.emplace_back(name, c.get());
    for (const auto& [name, g] : gauges_) gauges.emplace_back(name, g.get());
    for (const auto& [name, h] : histograms_)
      histograms.emplace_back(name, h.get());
    for (const auto& [token, entry] : providers_) providers.push_back(entry);
  }

  out += "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out.push_back(',');
    json::AppendQuoted(out, counters[i].first);
    out.push_back(':');
    AppendU64(out, counters[i].second->Value());
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) out.push_back(',');
    json::AppendQuoted(out, gauges[i].first);
    out.push_back(':');
    AppendI64(out, gauges[i].second->Value());
  }
  out += "},\"providers\":{";
  for (std::size_t i = 0; i < providers.size(); ++i) {
    if (i) out.push_back(',');
    json::AppendQuoted(out, providers[i].name);
    out.push_back(':');
    AppendI64(out, providers[i].fn ? providers[i].fn() : 0);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i) out.push_back(',');
    const Histogram& h = *histograms[i].second;
    json::AppendQuoted(out, histograms[i].first);
    out += ":{\"count\":";
    AppendU64(out, h.Count());
    out += ",\"sum\":";
    AppendI64(out, h.Sum());
    out += ",\"mean\":";
    AppendI64(out, h.Mean());
    out += ",\"min\":";
    AppendI64(out, h.Min());
    out += ",\"p50\":";
    AppendI64(out, h.Percentile(50));
    out += ",\"p99\":";
    AppendI64(out, h.Percentile(99));
    out += ",\"max\":";
    AppendI64(out, h.Max());
    out += "}";
  }
  out += "}}";
}

}  // namespace dstampede::metrics
