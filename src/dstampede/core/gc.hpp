// Garbage-collection notices (paper §3.1, §3.2.4): one registry per
// address space. Reclamation itself happens inline, in the container
// operation that made an item garbage (a consume, a consume-until, a
// detach, a filter change, a put that is garbage on arrival); the
// owning space's reclaim hook then calls Publish on that same thread,
// which fans the GcNotices out to the registered sinks. Surrogate
// threads register a sink per end device and forward the notices on
// the device's next reply (§3.2.4) so the device can free user-space
// buffers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dstampede/common/sync.hpp"
#include "dstampede/core/container.hpp"

namespace dstampede::core {

class GcService {
 public:
  // Sink: receives the notices of every reclaiming operation, on the
  // reclaiming thread. That may be a CLF delivery thread, so a sink
  // must not block.
  using NoticeSink = std::function<void(const std::vector<GcNotice>&)>;

  GcService() = default;
  GcService(const GcService&) = delete;
  GcService& operator=(const GcService&) = delete;

  // Returns a token for RemoveSink.
  std::uint64_t AddSink(NoticeSink sink);
  // Waits out a fan-out in flight, so once this returns the sink never
  // runs again and its captures may be destroyed. Not for use from
  // inside a sink.
  void RemoveSink(std::uint64_t token);

  // Hands one notice per item in `freed`, stamped with the id bits of
  // the container that reclaimed them, to every sink. With no sink
  // registered it takes no lock and allocates nothing.
  void Publish(std::uint64_t container_bits, bool is_queue,
               const ReclaimedItems& freed);

  std::uint64_t notices_total() const { return notices_total_.load(); }

 private:
  // Held while sinks run, so AddSink and RemoveSink wait out a fan-out.
  ds::Mutex mu_{"gc_service.mu"};
  std::unordered_map<std::uint64_t, NoticeSink> sinks_ DS_GUARDED_BY(mu_);
  std::uint64_t next_sink_token_ DS_GUARDED_BY(mu_) = 1;
  // sinks_.size(), readable without mu_: the no-sink fast path.
  std::atomic<std::size_t> sink_count_{0};
  std::atomic<std::uint64_t> notices_total_{0};
};

}  // namespace dstampede::core
