#include "dstampede/core/gc.hpp"

namespace dstampede::core {

std::uint64_t GcService::AddSink(NoticeSink sink) {
  ds::MutexLock lock(mu_);
  const std::uint64_t token = next_sink_token_++;
  sinks_[token] = std::move(sink);
  return token;
}

void GcService::RemoveSink(std::uint64_t token) {
  ds::MutexLock fanout(fanout_mu_);
  ds::MutexLock lock(mu_);
  sinks_.erase(token);
}

std::vector<GcNotice> GcService::SweepOnce() {
  // Sweeping takes per-container locks and runs user GC handlers, so
  // it happens outside the service lock.
  std::vector<GcNotice> all;
  for (auto& [bits, container] : source_()) {
    auto notices = container->Sweep(bits);
    all.insert(all.end(), notices.begin(), notices.end());
  }
  sweeps_.fetch_add(1, std::memory_order_relaxed);

  if (!all.empty()) {
    notices_total_.fetch_add(all.size(), std::memory_order_relaxed);
    ds::MutexLock fanout(fanout_mu_);
    std::vector<NoticeSink> sink_copies;
    {
      ds::MutexLock lock(mu_);
      sink_copies.reserve(sinks_.size());
      for (auto& [token, sink] : sinks_) sink_copies.push_back(sink);
    }
    for (auto& sink : sink_copies) sink(all);
  }
  return all;
}

void GcService::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = Thread([this] { Loop(); });
}

void GcService::Stop() {
  if (!running_.exchange(false)) return;
  {
    ds::MutexLock lock(stop_mu_);
    stop_cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  // Final drain so nothing reclaimable is left unreported.
  (void)SweepOnce();
}

void GcService::Loop() {
  while (running_.load(std::memory_order_relaxed)) {
    (void)SweepOnce();
    // Notify-able wait instead of sliced sleeping: Stop() is prompt
    // even when the interval's deadline lives on a frozen VirtualClock.
    ds::MutexLock lock(stop_mu_);
    if (!running_.load(std::memory_order_relaxed)) break;
    (void)stop_cv_.WaitUntil(stop_mu_, Deadline::After(interval_));
  }
}

}  // namespace dstampede::core
