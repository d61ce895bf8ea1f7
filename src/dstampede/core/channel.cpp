#include "dstampede/core/channel.hpp"

#include <algorithm>
#include <iterator>

namespace dstampede::core {

void LocalChannel::ConnState::Compact() {
  // Fold contiguous consumed timestamps into the watermark. Only exact
  // contiguity can be folded: a gap may later be filled by a put.
  while (!consumed.empty() &&
         watermark != kInvalidTimestamp &&
         *consumed.begin() == watermark + 1) {
    watermark = *consumed.begin();
    consumed.erase(consumed.begin());
  }
}

std::uint32_t LocalChannel::Attach(ConnMode mode, std::string label) {
  ds::MutexLock lock(mu_);
  const std::uint32_t slot = next_slot_++;
  ConnState state;
  state.mode = mode;
  state.label = std::move(label);
  conns_.emplace(slot, std::move(state));
  return slot;
}

Status LocalChannel::Detach(std::uint32_t slot) {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    auto it = conns_.find(slot);
    if (it == conns_.end()) return NotFoundError("connection");
    conns_.erase(it);
    // Items only the departed connection was holding up become garbage.
    ReclaimGarbageLocked(items_.begin(), items_.end(), wakeups);
    // Reclaim can admit back-pressured puts; gets parked on the now
    // dead slot complete with kNotFound.
    EvaluateWaitersLocked(wakeups);
  }
  Finish(wakeups);
  return OkStatus();
}

bool LocalChannel::IsGarbageLocked(Timestamp ts, std::size_t bytes) const {
  bool any_input = false;
  for (const auto& [slot, conn] : conns_) {
    if (!CanInput(conn.mode)) continue;
    any_input = true;
    if (conn.Wants(ts, bytes)) return false;
  }
  // With no input connection attached nothing is garbage: a consumer
  // may join later (dynamic start/stop), so items are retained.
  return any_input;
}

std::optional<Status> LocalChannel::TryPutLocked(Timestamp ts,
                                                 SharedBuffer& payload,
                                                 Wakeups& out) {
  if (max_reclaimed_ != kInvalidTimestamp && ts <= max_reclaimed_) {
    return GarbageCollectedError("timestamp below reclaim horizon");
  }
  if (items_.count(ts) > 0) {
    return AlreadyExistsError("timestamp already in channel");
  }
  if (attr_.capacity_items != 0 && items_.size() >= attr_.capacity_items) {
    return std::nullopt;  // back-pressure: park
  }
  const std::size_t bytes = payload.size();
  const TimePoint born =
      metrics_.reclaim_lag_us != nullptr ? Now() : TimePoint{};
  const auto it = items_.emplace(ts, Item{std::move(payload), born}).first;
  if (frontier_ == kInvalidTimestamp || ts > frontier_) frontier_ = ts;
  // An item can be born garbage: every attached input has already
  // consumed past it (or filters it out). Reclaim it on the spot, as
  // every operation that makes garbage does.
  if (IsGarbageLocked(ts, bytes)) ReclaimLocked(it, out);
  return OkStatus();
}

Result<ItemView> LocalChannel::SelectLocked(const ConnState& conn,
                                            GetSpec spec) const {
  switch (spec.kind) {
    case GetSpec::Kind::kExact: {
      auto it = items_.find(spec.ts);
      if (it == items_.end()) return NotFoundError("ts not present");
      if (!conn.filter.Matches(it->first, it->second.payload.size())) {
        // Present but size-filtered: invisible to this connection.
        return NotFoundError("item filtered out");
      }
      return ItemView{it->first, it->second.payload};
    }
    case GetSpec::Kind::kOldest: {
      for (const auto& [ts, item] : items_) {
        if (conn.Wants(ts, item.payload.size())) {
          return ItemView{ts, item.payload};
        }
      }
      return NotFoundError("no unconsumed item");
    }
    case GetSpec::Kind::kNewest: {
      for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
        if (conn.Wants(it->first, it->second.payload.size())) {
          return ItemView{it->first, it->second.payload};
        }
      }
      return NotFoundError("no unconsumed item");
    }
    case GetSpec::Kind::kNextAfter: {
      for (auto it = items_.upper_bound(spec.ts); it != items_.end(); ++it) {
        if (conn.Wants(it->first, it->second.payload.size())) {
          return ItemView{it->first, it->second.payload};
        }
      }
      return NotFoundError("no item after ts");
    }
  }
  return InternalError("bad GetSpec");
}

Status LocalChannel::CheckGetPreconditionsLocked(const ConnState& conn,
                                                 GetSpec spec) const {
  if (!CanInput(conn.mode)) {
    return PermissionDeniedError("connection is output-only");
  }
  if (spec.kind == GetSpec::Kind::kExact) {
    if (!conn.filter.MatchesTs(spec.ts)) {
      return InvalidArgumentError("timestamp excluded by connection filter");
    }
    if (conn.HasConsumed(spec.ts)) {
      return GarbageCollectedError("timestamp consumed by this connection");
    }
    if (items_.count(spec.ts) == 0 && max_reclaimed_ != kInvalidTimestamp &&
        spec.ts <= max_reclaimed_) {
      return GarbageCollectedError("timestamp below reclaim horizon");
    }
  }
  return OkStatus();
}

std::optional<Result<ItemView>> LocalChannel::TryGetLocked(std::uint32_t slot,
                                                           GetSpec spec) {
  auto conn_it = conns_.find(slot);
  if (conn_it == conns_.end()) {
    return Result<ItemView>(NotFoundError("connection"));
  }
  const ConnState& conn = conn_it->second;
  Status pre = CheckGetPreconditionsLocked(conn, spec);
  if (!pre.ok()) return Result<ItemView>(std::move(pre));
  Result<ItemView> found = SelectLocked(conn, spec);
  if (found.ok()) return found;
  // No eligible item yet; a put (or reclaim that turns the wait into
  // an error) re-evaluates.
  return std::nullopt;
}

Status LocalChannel::SetFilter(std::uint32_t slot, const ItemFilter& filter) {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    auto it = conns_.find(slot);
    if (it == conns_.end()) return NotFoundError("connection");
    if (!CanInput(it->second.mode)) {
      return PermissionDeniedError("filters apply to input connections");
    }
    if (filter.stride < 1) return InvalidArgumentError("stride must be >= 1");
    if (filter.stride > 1 && (filter.phase < 0 || filter.phase >= filter.stride)) {
      return InvalidArgumentError("phase must be in [0, stride)");
    }
    it->second.filter = filter;
    // Narrowing the filter can drop this connection's claim on items
    // it previously held up.
    ReclaimGarbageLocked(items_.begin(), items_.end(), wakeups);
    EvaluateWaitersLocked(wakeups);
  }
  Finish(wakeups);
  return OkStatus();
}

Status LocalChannel::Consume(std::uint32_t slot, Timestamp ts) {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    auto it = conns_.find(slot);
    if (it == conns_.end()) return NotFoundError("connection");
    ConnState& conn = it->second;
    if (!CanInput(conn.mode)) {
      return PermissionDeniedError("connection is output-only");
    }
    conn.consumed.insert(ts);
    conn.Compact();
    // Only `ts` can have turned to garbage.
    auto item_it = items_.find(ts);
    if (item_it != items_.end() &&
        IsGarbageLocked(ts, item_it->second.payload.size())) {
      ReclaimLocked(item_it, wakeups);
      EvaluateWaitersLocked(wakeups);
    }
  }
  Finish(wakeups);
  return OkStatus();
}

Status LocalChannel::ConsumeUntil(std::uint32_t slot, Timestamp ts) {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    auto it = conns_.find(slot);
    if (it == conns_.end()) return NotFoundError("connection");
    ConnState& conn = it->second;
    if (!CanInput(conn.mode)) {
      return PermissionDeniedError("connection is output-only");
    }
    if (conn.watermark == kInvalidTimestamp || ts > conn.watermark) {
      conn.watermark = ts;
      // Drop now-covered sparse entries.
      conn.consumed.erase(conn.consumed.begin(),
                          conn.consumed.upper_bound(ts));
      conn.Compact();
    }
    // Only the items at or below `ts` can have turned to garbage.
    ReclaimGarbageLocked(items_.begin(), items_.upper_bound(ts), wakeups);
    EvaluateWaitersLocked(wakeups);
  }
  Finish(wakeups);
  return OkStatus();
}

LocalChannel::Items::iterator LocalChannel::ReclaimLocked(Items::iterator it,
                                                         Wakeups& out) {
  max_reclaimed_ = std::max(max_reclaimed_, it->first);
  // The horizon now refuses this timestamp for good, so no consumer
  // needs its entry; without this a Consume-only connection's set
  // grows with every item.
  for (auto& [slot, conn] : conns_) conn.consumed.erase(it->first);
  ReclaimedLocked(it->first, std::move(it->second.payload), it->second.put_at,
                  out);
  return items_.erase(it);
}

void LocalChannel::ReclaimGarbageLocked(Items::iterator first,
                                        Items::iterator last, Wakeups& out) {
  while (first != last) {
    first = IsGarbageLocked(first->first, first->second.payload.size())
                ? ReclaimLocked(first, out)
                : std::next(first);
  }
}

std::size_t LocalChannel::live_items() const {
  ds::MutexLock lock(mu_);
  return items_.size();
}

std::size_t LocalChannel::input_connections() const {
  ds::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [slot, conn] : conns_) {
    if (CanInput(conn.mode)) ++n;
  }
  return n;
}

Timestamp LocalChannel::newest_timestamp() const {
  ds::MutexLock lock(mu_);
  return items_.empty() ? kInvalidTimestamp : items_.rbegin()->first;
}

}  // namespace dstampede::core
