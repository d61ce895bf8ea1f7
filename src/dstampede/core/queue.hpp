// LocalQueue: the owner-side implementation of a D-Stampede queue.
//
// Queues provide FIFO access to time-sequenced items and exist to
// exploit data parallelism (paper §3.1, Fig 3): a splitter puts
// frame-fragments sharing one timestamp; multiple worker threads get
// items, each item going to exactly one worker.
//
// Blocking is LocalContainer's waiter engine, shared with channels.
// Get waiters are served in registration order, so delivery stays
// FIFO across blocked getters, and each pop can admit a parked put.
//
// An item a worker has taken stays accounted to that worker's
// connection until the worker consumes it; consuming fires the GC
// handler. Detaching a connection with unconsumed in-flight items
// returns them to the front of the queue so no data is silently lost
// when a worker leaves (dynamic start/stop).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/waiter.hpp"
#include "dstampede/core/container.hpp"
#include "dstampede/core/item.hpp"

namespace dstampede::core {

class LocalQueue final : public LocalContainer {
 public:
  // `wheel`, `on_reclaim`: see LocalContainer.
  explicit LocalQueue(QueueAttr attr, TimerWheel* wheel = nullptr,
                      ReclaimHook on_reclaim = {})
      : LocalContainer(/*is_queue=*/true, wheel, std::move(on_reclaim)),
        attr_(std::move(attr)) {}

  const QueueAttr& attr() const { return attr_; }

  std::uint32_t Attach(ConnMode mode, std::string label) override;
  Status Detach(std::uint32_t slot) override;

  // Puts (LocalContainer's) append in FIFO order. Unlike channels,
  // duplicate timestamps are legal: all fragments of one frame share
  // the frame's timestamp.
  //
  // A get pops the head item; each item is delivered to exactly one
  // getter. Because a queue get is destructive, exactly-once matters
  // doubly here: the popped item is delivered to the one continuation
  // that owned the waiter record. These overloads take no GetSpec.
  using LocalContainer::Get;
  using LocalContainer::GetAsync;
  Result<ItemView> Get(std::uint32_t slot, Deadline deadline) {
    return Get(slot, GetSpec::Oldest(), deadline);
  }
  std::uint64_t GetAsync(std::uint32_t slot, Deadline deadline,
                         GetCompletion done,
                         std::uint32_t origin = kNoWaiterOrigin,
                         bool use_timer = true) {
    return GetAsync(slot, GetSpec::Oldest(), deadline, std::move(done), origin,
                    use_timer);
  }

  // Acknowledges an in-flight item previously got by this connection;
  // the GC handler fires for it. Consumes the oldest in-flight item
  // with this timestamp (fragments share timestamps).
  Status Consume(std::uint32_t slot, Timestamp ts) override;

  std::size_t queued_items() const;
  std::size_t in_flight_items() const;
  // A queue item is reclaimed when its getter consumes it.
  std::uint64_t total_consumed() const { return total_reclaimed(); }

 private:
  struct Entry {
    Timestamp ts;
    SharedBuffer payload;
    std::uint64_t order;  // put order, for returning in-flight items
    // Birth time for the reclaim-lag histogram. Only stamped when the
    // queue is instrumented (default-constructed otherwise), so
    // uninstrumented queues skip the clock read per put.
    TimePoint put_at{};
  };
  struct ConnState {
    ConnMode mode;
    std::string label;
    std::vector<Entry> in_flight;
  };

  std::optional<Result<ItemView>> TryGetLocked(std::uint32_t slot,
                                               GetSpec spec)
      DS_REQUIRES(mu_) override;
  std::optional<Status> TryPutLocked(Timestamp ts, SharedBuffer& payload,
                                     Wakeups& out)
      DS_REQUIRES(mu_) override;

  QueueAttr attr_;

  std::deque<Entry> items_ DS_GUARDED_BY(mu_);
  std::map<std::uint32_t, ConnState> conns_ DS_GUARDED_BY(mu_);
  std::uint32_t next_slot_ DS_GUARDED_BY(mu_) = 1;
  std::uint64_t next_order_ DS_GUARDED_BY(mu_) = 0;
};

}  // namespace dstampede::core
