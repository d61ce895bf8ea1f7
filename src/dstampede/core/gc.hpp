// Garbage collection service (paper §3.1, §3.2.2): one per address
// space, running "concurrent with application execution". It
// periodically sweeps every container its source lists (channels
// reclaim items all input connections have consumed; queues report
// their consume notices), then fans the resulting GcNotices out to
// registered sinks. Surrogate threads register a sink per end device
// and forward the notices at an opportune time (§3.2.4) so the device
// can free user-space buffers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/core/container.hpp"

namespace dstampede::core {

class GcService {
 public:
  // Sink: receives every notice batch produced by a sweep.
  using NoticeSink = std::function<void(const std::vector<GcNotice>&)>;

  // The containers to sweep, each with the id bits its notices carry.
  using ContainerList =
      std::vector<std::pair<std::uint64_t, std::shared_ptr<LocalContainer>>>;
  // Called at every sweep for a fresh list (the owner's container
  // table), with no service lock held.
  using ContainerSource = std::function<ContainerList()>;

  GcService(Duration interval, ContainerSource source)
      : interval_(interval), source_(std::move(source)) {}
  ~GcService() { Stop(); }

  GcService(const GcService&) = delete;
  GcService& operator=(const GcService&) = delete;

  // Returns a token for RemoveSink.
  std::uint64_t AddSink(NoticeSink sink);
  // Waits out a fan-out in flight, so once this returns the sink never
  // runs again and its captures may be destroyed. Not for use from
  // inside a sink.
  void RemoveSink(std::uint64_t token);

  void Start();
  void Stop();

  // One synchronous sweep over everything; returns all notices (also
  // delivered to sinks). Used by tests and by Stop() for a final drain.
  std::vector<GcNotice> SweepOnce();

  std::uint64_t sweeps() const { return sweeps_.load(); }
  std::uint64_t notices_total() const { return notices_total_.load(); }

 private:
  void Loop();

  Duration interval_;
  const ContainerSource source_;
  // Held while sinks run, and by RemoveSink: a sink is never called
  // after its removal returns.
  ds::Mutex fanout_mu_{"gc_service.fanout_mu"};
  // Never held while calling the source, a container's Sweep or a
  // sink: each may call back into this service (see SweepOnce).
  ds::Mutex mu_{"gc_service.mu"};
  std::unordered_map<std::uint64_t, NoticeSink> sinks_ DS_GUARDED_BY(mu_);
  std::uint64_t next_sink_token_ DS_GUARDED_BY(mu_) = 1;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> notices_total_{0};
  // Pacing for Loop(): WaitUntil instead of sliced sleeping, so Stop()
  // can interrupt the interval and virtual time drives the cadence.
  ds::Mutex stop_mu_{"gc_service.stop_mu"};
  ds::CondVar stop_cv_;
  Thread thread_;
};

}  // namespace dstampede::core
