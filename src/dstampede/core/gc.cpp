#include "dstampede/core/gc.hpp"

namespace dstampede::core {

std::uint64_t GcService::AddSink(NoticeSink sink) {
  ds::MutexLock lock(mu_);
  const std::uint64_t token = next_sink_token_++;
  sinks_[token] = std::move(sink);
  sink_count_.store(sinks_.size(), std::memory_order_relaxed);
  return token;
}

void GcService::RemoveSink(std::uint64_t token) {
  ds::MutexLock lock(mu_);
  sinks_.erase(token);
  sink_count_.store(sinks_.size(), std::memory_order_relaxed);
}

void GcService::Publish(std::uint64_t container_bits, bool is_queue,
                        const ReclaimedItems& freed) {
  notices_total_.fetch_add(freed.size(), std::memory_order_relaxed);
  if (sink_count_.load(std::memory_order_relaxed) == 0) return;
  std::vector<GcNotice> notices;
  notices.reserve(freed.size());
  for (const auto& [ts, payload] : freed) {
    notices.push_back(GcNotice{container_bits, is_queue, ts, payload.size()});
  }
  ds::MutexLock lock(mu_);
  for (auto& [token, sink] : sinks_) sink(notices);
}

}  // namespace dstampede::core
