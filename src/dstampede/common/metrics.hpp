// Runtime metrics: thread-safe counters, gauges and log-scale
// histograms, grouped per address space in a MetricsRegistry.
//
// Design rules (docs/OBSERVABILITY.md):
//   * Hot-path instruments never allocate and never take a lock:
//     Counter is a sharded array of cache-line-sized atomic cells,
//     Gauge a single atomic, Histogram a fixed array of atomic
//     buckets (first 16 values exact, then 16 log sub-buckets per
//     octave, ~3% relative error).
//   * The registry mutex ("metrics.registry_mu") is leaf-level: it is
//     only held while looking up / creating an instrument by name or
//     while copying the instrument list for a snapshot. No user code
//     runs under it and no blocking is allowed under it.
//   * Instruments are owned by the registry and have stable addresses
//     for the registry's lifetime — callers cache the returned
//     pointers/references at wiring time and hit only atomics
//     afterwards.
//   * Providers are pull-style gauges (std::function<std::int64_t()>)
//     evaluated at snapshot time, outside the registry mutex. They
//     may take their own (leaf-safe) locks but must not block.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dstampede/common/sync.hpp"

namespace dstampede::metrics {

// Monotonic event count. Add() is wait-free: each thread lands on one
// of kShards cache-line-aligned cells, so 8 contending threads do not
// serialize on one line. Value() sums the cells (racy-read exact for
// quiesced counters, monotone under load).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n = 1) {
    cells_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  // A per-thread id assigned once; threads spread across the cells and
  // keep hitting the same one (cache-friendly). Inline so Add() is a
  // TLS read + one relaxed RMW, no call.
  static std::size_t ShardIndex() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shard;
  }
  Cell cells_[kShards];
};

// Point-in-time signed value (queue depth, live sessions, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(std::int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-footprint log-scale histogram of non-negative integer samples
// (latencies in microseconds, lags, sizes). Observe() is lock-free and
// allocation-free; negative samples clamp to 0. Values 0..15 are
// recorded exactly; above that each power-of-two octave is split into
// 16 sub-buckets, so the reported quantiles carry at most ~3% bucket
// error. All read-side statistics are safe on an empty histogram
// (they return 0).
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(std::int64_t sample);

  std::uint64_t Count() const { return count_.load(std::memory_order_acquire); }
  std::int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t Mean() const;
  std::int64_t Min() const;
  std::int64_t Max() const;
  // p in [0,100]; returns the representative value of the bucket that
  // holds the p-th percentile sample (bucket midpoint above 15).
  std::int64_t Percentile(double p) const;
  // "n=... mean=... min=... p50=... p99=... max=..." (unitless).
  std::string Summary() const;

 private:
  static constexpr std::size_t kSubBuckets = 16;  // per octave
  static constexpr std::size_t kSubBits = 4;
  // Buckets 0..15 exact; then (octave-3)*16 + sub for bit_width-1 >= 4.
  // 63 octaves is enough for any int64 sample.
  static constexpr std::size_t kBuckets = 16 + (63 - 3) * kSubBuckets;

  static std::size_t BucketIndex(std::uint64_t v);
  static std::int64_t BucketValue(std::size_t index);

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  // Read only once Count() > 0; until the first sample they hold
  // values every sample tightens.
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{0};
};

// Named instruments for one address space. Lookup-or-create is
// mutex-protected; the returned references stay valid until the
// registry is destroyed (node-based storage).
class Registry {
 public:
  using Provider = std::function<std::int64_t()>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(const std::string& name) DS_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) DS_EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) DS_EXCLUDES(mu_);

  // Registers a pull-style gauge; `fn` runs at snapshot time, outside
  // the registry mutex. Returns a token for RemoveProvider. Providers
  // must not block (they may take leaf locks).
  std::uint64_t AddProvider(const std::string& name, Provider fn)
      DS_EXCLUDES(mu_);
  void RemoveProvider(std::uint64_t token) DS_EXCLUDES(mu_);

  // Appends the registry as a JSON object (counters, gauges,
  // histograms with summary stats, providers) to `out`.
  void WriteJson(std::string& out) const DS_EXCLUDES(mu_);

 private:
  struct ProviderEntry {
    std::string name;
    Provider fn;
  };

  mutable ds::Mutex mu_{"metrics.registry_mu"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      DS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      DS_GUARDED_BY(mu_);
  std::map<std::uint64_t, ProviderEntry> providers_ DS_GUARDED_BY(mu_);
  std::uint64_t next_provider_token_ DS_GUARDED_BY(mu_) = 1;
};

}  // namespace dstampede::metrics
