#include "dstampede/core/queue.hpp"

#include <algorithm>

namespace dstampede::core {

std::uint32_t LocalQueue::Attach(ConnMode mode, std::string label) {
  ds::MutexLock lock(mu_);
  const std::uint32_t slot = next_slot_++;
  conns_.emplace(slot, ConnState{mode, std::move(label), {}});
  return slot;
}

Status LocalQueue::Detach(std::uint32_t slot) {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    auto it = conns_.find(slot);
    if (it == conns_.end()) return NotFoundError("connection");
    // Return unconsumed in-flight items to the queue head, in original
    // put order, so a departing worker loses no data.
    auto& in_flight = it->second.in_flight;
    std::sort(in_flight.begin(), in_flight.end(),
              [](const Entry& a, const Entry& b) { return a.order > b.order; });
    for (auto& entry : in_flight) {
      items_.push_front(std::move(entry));
    }
    conns_.erase(it);
    // Returned items can feed parked gets; gets parked on the departed
    // slot complete with kNotFound.
    EvaluateWaitersLocked(wakeups);
  }
  Finish(wakeups);
  return OkStatus();
}

std::optional<Status> LocalQueue::TryPutLocked(Timestamp ts,
                                               SharedBuffer& payload,
                                               Wakeups& /*out*/) {
  if (attr_.capacity_items != 0 && items_.size() >= attr_.capacity_items) {
    return std::nullopt;  // back-pressure: park
  }
  Entry entry{ts, std::move(payload), next_order_++};
  if (metrics_.reclaim_lag_us != nullptr) entry.put_at = Now();
  items_.push_back(std::move(entry));
  return OkStatus();
}

std::optional<Result<ItemView>> LocalQueue::TryGetLocked(std::uint32_t slot,
                                                         GetSpec /*spec*/) {
  auto it = conns_.find(slot);
  if (it == conns_.end()) return Result<ItemView>(NotFoundError("connection"));
  if (!CanInput(it->second.mode)) {
    return Result<ItemView>(PermissionDeniedError("connection is output-only"));
  }
  if (items_.empty()) return std::nullopt;  // nothing to pop: park
  Entry entry = std::move(items_.front());
  items_.pop_front();
  ItemView view{entry.ts, entry.payload};
  it->second.in_flight.push_back(std::move(entry));
  return Result<ItemView>(std::move(view));
}

Status LocalQueue::Consume(std::uint32_t slot, Timestamp ts) {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    auto it = conns_.find(slot);
    if (it == conns_.end()) return NotFoundError("connection");
    auto& in_flight = it->second.in_flight;
    auto entry_it =
        std::find_if(in_flight.begin(), in_flight.end(),
                     [&](const Entry& e) { return e.ts == ts; });
    if (entry_it == in_flight.end()) {
      return NotFoundError("no in-flight item with this timestamp");
    }
    ReclaimedLocked(entry_it->ts, std::move(entry_it->payload),
                    entry_it->put_at, wakeups);
    in_flight.erase(entry_it);
  }
  Finish(wakeups);
  return OkStatus();
}

std::size_t LocalQueue::queued_items() const {
  ds::MutexLock lock(mu_);
  return items_.size();
}

std::size_t LocalQueue::in_flight_items() const {
  ds::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [slot, conn] : conns_) n += conn.in_flight.size();
  return n;
}

}  // namespace dstampede::core
