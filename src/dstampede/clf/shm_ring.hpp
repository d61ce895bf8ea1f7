// The shared-memory fast path of CLF.
//
// The paper's CLF "exploits shared memory within an SMP" and falls back
// to the network between nodes (§3.2.2). Here, address spaces that live
// in the same OS process register their CLF address in a process-wide
// registry; a sender that finds its peer in the registry moves the
// message through a bounded staging ring (chunked copies, mimicking a
// memory-channel style transfer) instead of the UDP path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/transport/socket.hpp"

namespace dstampede::clf {

// A message sink: the owner's delivery upcall, fixed when the endpoint
// (or ring) is created. Both the UDP receiver and the shm ring call it,
// each handing over a message that nothing else refers to.
using DeliverFn =
    std::function<void(const transport::SockAddr& from, SharedBuffer message)>;

// Bounded staging buffer through which fast-path messages are copied in
// fixed-size chunks. One ring per receiving endpoint; senders serialize
// on it (an SMP memory channel is a shared resource too).
class ShmRing {
 public:
  static constexpr std::size_t kChunk = 64 * 1024;

  explicit ShmRing(DeliverFn deliver) : deliver_(std::move(deliver)) {}

  // Copies message chunk-by-chunk through the staging area, then hands
  // the reassembled message to the delivery function on the calling
  // thread. kUnavailable once Close() has begun.
  Status Transfer(const transport::SockAddr& from,
                  std::span<const std::uint8_t> message);

  // Refuses further transfers and waits for those in flight, so the
  // delivery function is never called once Close returns. Must not be
  // called from the delivery function itself.
  void Close();

 private:
  ds::Mutex mu_{"shm_ring.mu"};
  ds::CondVar drained_cv_;
  std::uint8_t staging_[kChunk] DS_GUARDED_BY(mu_){};
  bool closed_ DS_GUARDED_BY(mu_) = false;
  std::size_t in_flight_ DS_GUARDED_BY(mu_) = 0;
  const DeliverFn deliver_;  // bound at construction, immutable
};

// Process-wide registry mapping CLF addresses to their in-process ring.
// Endpoints register on creation (when the fast path is enabled) and
// unregister on shutdown.
class ShmRegistry {
 public:
  static ShmRegistry& Instance();

  void Register(const transport::SockAddr& addr, std::shared_ptr<ShmRing> ring);
  void Unregister(const transport::SockAddr& addr);
  // Null if the peer is not an in-process fast-path endpoint.
  std::shared_ptr<ShmRing> Lookup(const transport::SockAddr& addr);

 private:
  ds::Mutex mu_{"shm_registry.mu"};
  std::unordered_map<transport::SockAddr, std::shared_ptr<ShmRing>> rings_
      DS_GUARDED_BY(mu_);
};

}  // namespace dstampede::clf
