// LocalChannel: the owner-side implementation of a D-Stampede channel.
//
// A channel is a system-wide container of time-sequenced items with
// random access by timestamp (paper §3.1). This class implements the
// storage, the get selectors, per-connection consume state and the
// reclamation rule on top of the waiter engine it shares with queues
// (LocalContainer); AddressSpace layers location transparency and the
// wire protocol on top.
//
// Reclamation rule (the heart of the paper's automatic distributed GC):
// an item is garbage once *every currently attached input connection*
// has consumed it — either individually or via a consume-until
// watermark. Reclaimed items are handed to the channel's GC handler
// and reclaim hook by the operation that reclaimed them. An operation
// looks only where it can have made garbage, so none leaves any behind:
// a consume at its timestamp, a put at its own, a consume-until at and
// below its timestamp, and a detach or a new filter at every item.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/waiter.hpp"
#include "dstampede/core/container.hpp"
#include "dstampede/core/item.hpp"

namespace dstampede::core {

class LocalChannel final : public LocalContainer {
 public:
  // `wheel`, `on_reclaim`: see LocalContainer.
  explicit LocalChannel(ChannelAttr attr, TimerWheel* wheel = nullptr,
                        ReclaimHook on_reclaim = {})
      : LocalContainer(/*is_queue=*/false, wheel, std::move(on_reclaim)),
        attr_(std::move(attr)) {}

  const ChannelAttr& attr() const { return attr_; }

  // --- connections ---------------------------------------------------
  std::uint32_t Attach(ConnMode mode, std::string label) override;
  // Detaching recomputes garbage: items only the detached connection
  // was holding up become reclaimable.
  Status Detach(std::uint32_t slot) override;

  // --- I/O (Put/Get and the async pair are LocalContainer's) --------
  // A put fails with kAlreadyExists for a duplicate live timestamp and
  // kGarbageCollected for a timestamp at or below the reclaim horizon.
  // A kExact get waits for the timestamp to be produced; the selectors
  // wait for any eligible item.

  // Installs a declarative filter on an input connection ("selective
  // attention", §6 future work): the connection's gets only see
  // matching items, and non-matching items carry no GC claim from it.
  Status SetFilter(std::uint32_t slot, const ItemFilter& filter);

  // Marks one timestamp consumed by this connection. Consume,
  // ConsumeUntil and Detach reclaim newly-garbage items inline, so
  // back-pressured producers unblock immediately.
  Status Consume(std::uint32_t slot, Timestamp ts) override;
  // Marks every timestamp <= ts consumed by this connection ("selective
  // attention": the connection declares it will never look back).
  Status ConsumeUntil(std::uint32_t slot, Timestamp ts);

  // --- introspection ---------------------------------------------------
  std::size_t live_items() const;
  std::size_t input_connections() const;
  Timestamp newest_timestamp() const;  // kInvalidTimestamp when empty
  // Highest timestamp ever put, surviving GC reclamation (the
  // space-time frontier); kInvalidTimestamp before the first put.
  Timestamp timestamp_frontier() const {
    ds::MutexLock lock(mu_);
    return frontier_;
  }

 private:
  struct ConnState {
    ConnMode mode;
    std::string label;
    ItemFilter filter;
    // Everything <= watermark is consumed; `consumed` holds sparse
    // timestamps above the watermark (compacted as it advances).
    Timestamp watermark = kInvalidTimestamp;
    std::set<Timestamp> consumed;

    bool HasConsumed(Timestamp ts) const {
      return (watermark != kInvalidTimestamp && ts <= watermark) ||
             consumed.count(ts) > 0;
    }
    // Whether this connection still wants the item: it must pass the
    // filter and not be consumed. Drives both get visibility and the
    // GC claim (one rule, so the two can never diverge).
    bool Wants(Timestamp ts, std::size_t bytes) const {
      return filter.Matches(ts, bytes) && !HasConsumed(ts);
    }
    void Compact();
  };

  // A live item and its birth time, stamped only when the reclaim-lag
  // histogram is wired (uninstrumented channels skip the clock read).
  struct Item {
    SharedBuffer payload;
    TimePoint put_at{};
  };
  using Items = std::map<Timestamp, Item>;

  bool IsGarbageLocked(Timestamp ts, std::size_t bytes) const
      DS_REQUIRES(mu_);
  Result<ItemView> SelectLocked(const ConnState& conn, GetSpec spec) const
      DS_REQUIRES(mu_);
  // True when a Get(spec) could never be satisfied without new puts.
  Status CheckGetPreconditionsLocked(const ConnState& conn, GetSpec spec) const
      DS_REQUIRES(mu_);
  std::optional<Result<ItemView>> TryGetLocked(std::uint32_t slot,
                                               GetSpec spec)
      DS_REQUIRES(mu_) override;
  // An item that is garbage on arrival is reclaimed into `out`.
  std::optional<Status> TryPutLocked(Timestamp ts, SharedBuffer& payload,
                                     Wakeups& out)
      DS_REQUIRES(mu_) override;
  // Removes the item `it` names (via ReclaimedLocked), which the caller
  // found garbage; returns the item after it.
  Items::iterator ReclaimLocked(Items::iterator it, Wakeups& out)
      DS_REQUIRES(mu_);
  // Removes every garbage item in [first, last).
  void ReclaimGarbageLocked(Items::iterator first, Items::iterator last,
                            Wakeups& out) DS_REQUIRES(mu_);

  ChannelAttr attr_;

  Items items_ DS_GUARDED_BY(mu_);
  std::map<std::uint32_t, ConnState> conns_ DS_GUARDED_BY(mu_);
  std::uint32_t next_slot_ DS_GUARDED_BY(mu_) = 1;
  Timestamp max_reclaimed_ DS_GUARDED_BY(mu_) = kInvalidTimestamp;
  Timestamp frontier_ DS_GUARDED_BY(mu_) = kInvalidTimestamp;
};

}  // namespace dstampede::core
