#include "dstampede/core/channel.hpp"

#include <algorithm>

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
    ReclaimLocked(wakeups);
    // Reclaim can admit back-pressured puts; gets parked on the now
    // dead slot complete with kNotFound.
    EvaluateWaitersLocked(wakeups);
  }
  Finish(std::move(wakeups));
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

void LocalChannel::Close() {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    closed_ = true;
    // Every parked waiter now resolves terminally (kCancelled).
    EvaluateWaitersLocked(wakeups);
  }
  Finish(std::move(wakeups));
}

std::optional<Status> LocalChannel::TryPutLocked(Timestamp ts,
                                                 SharedBuffer& payload,
                                                 Wakeups& out) {
  if (closed_) return CancelledError("channel closed");
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
  items_.emplace(ts, std::move(payload));
  ++total_puts_;
  if (frontier_ == kInvalidTimestamp || ts > frontier_) frontier_ = ts;
  if (metrics_.puts != nullptr) metrics_.puts->Add();
  if (metrics_.reclaim_lag_us != nullptr) put_times_[ts] = Now();
  // An item can be born garbage: every attached input has already
  // consumed past it (or filters it out). Reclaim it on the spot so
  // its GC handler fires promptly instead of on the next sweep.
  if (IsGarbageLocked(ts, bytes)) ReclaimLocked(out);
  return OkStatus();
}

Status LocalChannel::Put(Timestamp ts, SharedBuffer payload,
                         Deadline deadline) {
  SyncWaiter<Status> sync;
  const std::uint64_t id = PutAsync(
      ts, std::move(payload), deadline,
      [&sync](Status st) { sync.Complete(std::move(st)); }, kNoWaiterOrigin,
      /*use_timer=*/false);
  if (!sync.AwaitUntil(deadline) && id != 0) {
    // Deadline passed while parked. If we win the cancellation race
    // this completes the waiter with kTimeout inline; if a real
    // completer beat us, TakeResult() returns its result instead.
    CancelWaiter(id, TimeoutError("channel at capacity"));
  }
  return sync.TakeResult();
}

std::uint64_t LocalChannel::PutAsync(Timestamp ts, SharedBuffer payload,
                                     Deadline deadline, PutCompletion done,
                                     std::uint32_t origin, bool use_timer) {
  if (ts == kInvalidTimestamp) {
    done(InvalidArgumentError("bad timestamp"));
    return 0;
  }
  Wakeups wakeups;
  std::optional<Status> inline_result;
  std::uint64_t id = 0;
  {
    ds::MutexLock lock(mu_);
    inline_result = TryPutLocked(ts, payload, wakeups);
    if (inline_result.has_value()) {
      // The new item (or the reclaim it triggered) may resolve parked
      // waiters.
      if (inline_result->ok()) EvaluateWaitersLocked(wakeups);
    } else if (deadline.expired()) {
      inline_result = TimeoutError("channel at capacity");
    } else {
      id = next_waiter_id_++;
      PutWaiter waiter{ts, std::move(payload), std::move(done), origin, 0};
      if (use_timer && wheel_ != nullptr) {
        waiter.timer = wheel_->Schedule(deadline, [this, id] {
          CancelWaiter(id, TimeoutError("channel at capacity"));
        });
      }
      put_waiters_.emplace(id, std::move(waiter));
    }
  }
  Finish(std::move(wakeups));
  if (inline_result.has_value()) done(std::move(*inline_result));
  return id;
}

Result<ItemView> LocalChannel::SelectLocked(const ConnState& conn,
                                            GetSpec spec) const {
  switch (spec.kind) {
    case GetSpec::Kind::kExact: {
      auto it = items_.find(spec.ts);
      if (it == items_.end()) return NotFoundError("ts not present");
      if (!conn.filter.Matches(it->first, it->second.size())) {
        // Present but size-filtered: invisible to this connection.
        return NotFoundError("item filtered out");
      }
      return ItemView{it->first, it->second};
    }
    case GetSpec::Kind::kOldest: {
      for (const auto& [ts, payload] : items_) {
        if (conn.Wants(ts, payload.size())) return ItemView{ts, payload};
      }
      return NotFoundError("no unconsumed item");
    }
    case GetSpec::Kind::kNewest: {
      for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
        if (conn.Wants(it->first, it->second.size())) {
          return ItemView{it->first, it->second};
        }
      }
      return NotFoundError("no unconsumed item");
    }
    case GetSpec::Kind::kNextAfter: {
      for (auto it = items_.upper_bound(spec.ts); it != items_.end(); ++it) {
        if (conn.Wants(it->first, it->second.size())) {
          return ItemView{it->first, it->second};
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
                                                           GetSpec spec) const {
  if (closed_) return Result<ItemView>(CancelledError("channel closed"));
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

Result<ItemView> LocalChannel::Get(std::uint32_t slot, GetSpec spec,
                                   Deadline deadline) {
  SyncWaiter<Result<ItemView>> sync;
  const std::uint64_t id = GetAsync(
      slot, spec, deadline,
      [&sync](Result<ItemView> item) { sync.Complete(std::move(item)); },
      kNoWaiterOrigin, /*use_timer=*/false);
  if (!sync.AwaitUntil(deadline) && id != 0) {
    CancelWaiter(id, TimeoutError("channel get"));
  }
  return sync.TakeResult();
}

std::uint64_t LocalChannel::GetAsync(std::uint32_t slot, GetSpec spec,
                                     Deadline deadline, GetCompletion done,
                                     std::uint32_t origin, bool use_timer) {
  std::optional<Result<ItemView>> inline_result;
  std::uint64_t id = 0;
  {
    ds::MutexLock lock(mu_);
    inline_result = TryGetLocked(slot, spec);
    if (!inline_result.has_value() && deadline.expired()) {
      inline_result = Result<ItemView>(TimeoutError("channel get"));
    }
    if (metrics_.gets != nullptr && inline_result.has_value() &&
        inline_result->ok()) {
      metrics_.gets->Add();
    }
    if (!inline_result.has_value()) {
      id = next_waiter_id_++;
      GetWaiter waiter{slot, spec, std::move(done), origin, 0};
      if (use_timer && wheel_ != nullptr) {
        waiter.timer = wheel_->Schedule(deadline, [this, id] {
          CancelWaiter(id, TimeoutError("channel get"));
        });
      }
      get_waiters_.emplace(id, std::move(waiter));
    }
  }
  if (inline_result.has_value()) done(std::move(*inline_result));
  return id;
}

bool LocalChannel::CancelWaiter(std::uint64_t waiter_id,
                                const Status& status) {
  std::function<void()> completion;
  TimerWheel::TimerId timer = 0;
  {
    ds::MutexLock lock(mu_);
    if (auto it = get_waiters_.find(waiter_id); it != get_waiters_.end()) {
      timer = it->second.timer;
      completion = [done = std::move(it->second.done), st = status]() mutable {
        done(Result<ItemView>(std::move(st)));
      };
      get_waiters_.erase(it);
    } else if (auto pit = put_waiters_.find(waiter_id);
               pit != put_waiters_.end()) {
      timer = pit->second.timer;
      completion = [done = std::move(pit->second.done),
                    st = status]() mutable { done(std::move(st)); };
      put_waiters_.erase(pit);
    } else {
      return false;  // already completed (or never existed)
    }
  }
  if (timer != 0 && wheel_ != nullptr) wheel_->Cancel(timer);
  completion();
  return true;
}

std::size_t LocalChannel::CancelWaitersOf(std::uint32_t origin,
                                          const Status& status) {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    for (auto it = get_waiters_.begin(); it != get_waiters_.end();) {
      if (it->second.origin != origin) {
        ++it;
        continue;
      }
      if (it->second.timer != 0) wakeups.timers.push_back(it->second.timer);
      wakeups.completions.push_back(
          [done = std::move(it->second.done), st = status]() mutable {
            done(Result<ItemView>(std::move(st)));
          });
      it = get_waiters_.erase(it);
    }
    for (auto it = put_waiters_.begin(); it != put_waiters_.end();) {
      if (it->second.origin != origin) {
        ++it;
        continue;
      }
      if (it->second.timer != 0) wakeups.timers.push_back(it->second.timer);
      wakeups.completions.push_back(
          [done = std::move(it->second.done), st = status]() mutable {
            done(std::move(st));
          });
      it = put_waiters_.erase(it);
    }
  }
  const std::size_t cancelled = wakeups.completions.size();
  Finish(std::move(wakeups));
  return cancelled;
}

void LocalChannel::EvaluateWaitersLocked(Wakeups& out) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Parked puts first: admission is what can satisfy parked gets,
    // and the reclaim an admission triggers can admit further puts
    // (hence the fixpoint loop).
    for (auto it = put_waiters_.begin(); it != put_waiters_.end();) {
      auto tried = TryPutLocked(it->second.ts, it->second.payload, out);
      if (!tried.has_value()) {
        ++it;
        continue;
      }
      if (it->second.timer != 0) out.timers.push_back(it->second.timer);
      out.completions.push_back(
          [done = std::move(it->second.done),
           st = std::move(*tried)]() mutable { done(std::move(st)); });
      it = put_waiters_.erase(it);
      progress = true;
    }
    for (auto it = get_waiters_.begin(); it != get_waiters_.end();) {
      auto tried = TryGetLocked(it->second.slot, it->second.spec);
      if (!tried.has_value()) {
        ++it;
        continue;
      }
      if (tried->ok() && metrics_.gets != nullptr) metrics_.gets->Add();
      if (it->second.timer != 0) out.timers.push_back(it->second.timer);
      out.completions.push_back(
          [done = std::move(it->second.done),
           item = std::move(*tried)]() mutable { done(std::move(item)); });
      it = get_waiters_.erase(it);
      progress = true;
    }
  }
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
    ReclaimLocked(wakeups);
    EvaluateWaitersLocked(wakeups);
  }
  Finish(std::move(wakeups));
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
    auto item_it = items_.find(ts);
    if (item_it != items_.end() &&
        IsGarbageLocked(ts, item_it->second.size())) {
      ReclaimLocked(wakeups);
      EvaluateWaitersLocked(wakeups);
    }
  }
  Finish(std::move(wakeups));
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
    ReclaimLocked(wakeups);
    EvaluateWaitersLocked(wakeups);
  }
  Finish(std::move(wakeups));
  return OkStatus();
}

void LocalChannel::set_gc_handler(GcHandler handler) {
  ds::MutexLock lock(mu_);
  gc_handler_ = std::move(handler);
}

void LocalChannel::ReclaimLocked(Wakeups& out) {
  for (auto it = items_.begin(); it != items_.end();) {
    if (IsGarbageLocked(it->first, it->second.size())) {
      pending_notices_.push_back(GcNotice{/*container_bits=*/0,
                                          /*is_queue=*/false, it->first,
                                          it->second.size()});
      out.freed.emplace_back(it->first, std::move(it->second));
      max_reclaimed_ = std::max(max_reclaimed_, it->first);
      // The horizon now refuses this timestamp for good, so no consumer
      // needs its entry; without this a Consume-only connection's set
      // grows with every item.
      for (auto& [slot, conn] : conns_) conn.consumed.erase(it->first);
      ++total_reclaimed_;
      if (metrics_.reclaimed != nullptr) metrics_.reclaimed->Add();
      if (metrics_.reclaim_lag_us != nullptr) {
        auto born = put_times_.find(it->first);
        if (born != put_times_.end()) {
          // Histogram::Observe is lock-free; safe under mu_.
          metrics_.reclaim_lag_us->Observe(ToMicros(Now() - born->second));
          put_times_.erase(born);
        }
      }
      it = items_.erase(it);
    } else {
      ++it;
    }
  }
  if (!out.freed.empty() && !out.handler) out.handler = gc_handler_;
}

void LocalChannel::Finish(Wakeups wakeups) {
  for (TimerWheel::TimerId timer : wakeups.timers) {
    if (wheel_ != nullptr) wheel_->Cancel(timer);
  }
  if (wakeups.handler) {
    for (auto& [ts, payload] : wakeups.freed) wakeups.handler(ts, payload);
  }
  for (auto& completion : wakeups.completions) completion();
}

std::vector<GcNotice> LocalChannel::Sweep(std::uint64_t channel_bits) {
  Wakeups wakeups;
  std::vector<GcNotice> notices;
  {
    ds::MutexLock lock(mu_);
    ReclaimLocked(wakeups);
    notices = std::move(pending_notices_);
    pending_notices_.clear();
    EvaluateWaitersLocked(wakeups);
  }
  for (auto& notice : notices) notice.container_bits = channel_bits;
  Finish(std::move(wakeups));
  return notices;
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

std::size_t LocalChannel::parked_get_waiters() const {
  ds::MutexLock lock(mu_);
  return get_waiters_.size();
}

std::size_t LocalChannel::parked_put_waiters() const {
  ds::MutexLock lock(mu_);
  return put_waiters_.size();
}

}  // namespace dstampede::core
