#include "dstampede/core/container.hpp"

namespace dstampede::core {

std::string LocalContainer::KindText(const char* what) const {
  return std::string(is_queue_ ? "queue " : "channel ") + what;
}

std::optional<Status> LocalContainer::PutLocked(Timestamp ts,
                                                SharedBuffer& payload,
                                                Wakeups& out) {
  if (closed_) return CancelledError(KindText("closed"));
  std::optional<Status> tried = TryPutLocked(ts, payload, out);
  if (tried.has_value() && tried->ok()) {
    ++total_puts_;
    if (metrics_.puts != nullptr) metrics_.puts->Add();
  }
  return tried;
}

std::optional<Result<ItemView>> LocalContainer::GetLocked(std::uint32_t slot,
                                                          GetSpec spec) {
  if (closed_) return Result<ItemView>(CancelledError(KindText("closed")));
  std::optional<Result<ItemView>> tried = TryGetLocked(slot, spec);
  if (tried.has_value() && tried->ok() && metrics_.gets != nullptr) {
    metrics_.gets->Add();
  }
  return tried;
}

Status LocalContainer::Put(Timestamp ts, SharedBuffer payload,
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
    CancelWaiter(id, TimeoutError(KindText("at capacity")));
  }
  return sync.TakeResult();
}

std::uint64_t LocalContainer::PutAsync(Timestamp ts, SharedBuffer payload,
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
    inline_result = PutLocked(ts, payload, wakeups);
    if (inline_result.has_value()) {
      // The new item (or the reclaim it triggered) may resolve parked
      // waiters.
      if (inline_result->ok()) EvaluateWaitersLocked(wakeups);
    } else if (deadline.expired()) {
      inline_result = TimeoutError(KindText("at capacity"));
    } else {
      id = next_waiter_id_++;
      PutWaiter waiter{ts, std::move(payload), std::move(done), origin, 0};
      if (use_timer && wheel_ != nullptr) {
        waiter.timer = wheel_->Schedule(deadline, [this, id] {
          CancelWaiter(id, TimeoutError(KindText("at capacity")));
        });
      }
      put_waiters_.emplace(id, std::move(waiter));
    }
  }
  Finish(wakeups);
  if (inline_result.has_value()) done(std::move(*inline_result));
  return id;
}

Result<ItemView> LocalContainer::Get(std::uint32_t slot, GetSpec spec,
                                     Deadline deadline) {
  SyncWaiter<Result<ItemView>> sync;
  const std::uint64_t id = GetAsync(
      slot, spec, deadline,
      [&sync](Result<ItemView> item) { sync.Complete(std::move(item)); },
      kNoWaiterOrigin, /*use_timer=*/false);
  if (!sync.AwaitUntil(deadline) && id != 0) {
    CancelWaiter(id, TimeoutError(KindText("get")));
  }
  return sync.TakeResult();
}

std::uint64_t LocalContainer::GetAsync(std::uint32_t slot, GetSpec spec,
                                       Deadline deadline, GetCompletion done,
                                       std::uint32_t origin, bool use_timer) {
  Wakeups wakeups;
  std::optional<Result<ItemView>> inline_result;
  std::uint64_t id = 0;
  {
    ds::MutexLock lock(mu_);
    inline_result = GetLocked(slot, spec);
    if (inline_result.has_value()) {
      // A queue get pops its item, which frees room for a parked put;
      // a channel get changes no state.
      if (inline_result->ok() && is_queue_) EvaluateWaitersLocked(wakeups);
    } else if (deadline.expired()) {
      inline_result = Result<ItemView>(TimeoutError(KindText("get")));
    } else {
      id = next_waiter_id_++;
      GetWaiter waiter{slot, spec, std::move(done), origin, 0};
      if (use_timer && wheel_ != nullptr) {
        waiter.timer = wheel_->Schedule(deadline, [this, id] {
          CancelWaiter(id, TimeoutError(KindText("get")));
        });
      }
      get_waiters_.emplace(id, std::move(waiter));
    }
  }
  Finish(wakeups);
  if (inline_result.has_value()) done(std::move(*inline_result));
  return id;
}

bool LocalContainer::CancelWaiter(std::uint64_t waiter_id,
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

std::size_t LocalContainer::CancelWaitersOf(std::uint32_t origin,
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
  Finish(wakeups);
  return cancelled;
}

void LocalContainer::EvaluateWaitersLocked(Wakeups& out) {
  bool progress = true;
  while (progress) {
    progress = false;
    // Parked puts first: admission is what can satisfy parked gets,
    // and the reclaim an admission triggers can admit further puts
    // (hence the fixpoint loop).
    for (auto it = put_waiters_.begin(); it != put_waiters_.end();) {
      auto tried = PutLocked(it->second.ts, it->second.payload, out);
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
      auto tried = GetLocked(it->second.slot, it->second.spec);
      if (!tried.has_value()) {
        ++it;
        continue;
      }
      if (it->second.timer != 0) out.timers.push_back(it->second.timer);
      out.completions.push_back(
          [done = std::move(it->second.done),
           item = std::move(*tried)]() mutable { done(std::move(item)); });
      it = get_waiters_.erase(it);
      progress = true;
    }
  }
}

void LocalContainer::ReclaimedLocked(Timestamp ts, SharedBuffer payload,
                                     TimePoint born, Wakeups& out) {
  ++total_reclaimed_;
  if (metrics_.reclaimed != nullptr) metrics_.reclaimed->Add();
  if (metrics_.reclaim_lag_us != nullptr && born != TimePoint{}) {
    // Histogram::Observe is lock-free; safe under mu_.
    metrics_.reclaim_lag_us->Observe(ToMicros(Now() - born));
  }
  if (!out.handler) out.handler = gc_handler_;
  out.freed.emplace_back(ts, std::move(payload));
}

void LocalContainer::Finish(Wakeups& wakeups) {
  for (TimerWheel::TimerId timer : wakeups.timers) {
    if (wheel_ != nullptr) wheel_->Cancel(timer);
  }
  if (wakeups.handler) {
    for (auto& [ts, payload] : wakeups.freed) wakeups.handler(ts, payload);
  }
  if (on_reclaim_ && !wakeups.freed.empty()) on_reclaim_(wakeups.freed);
  for (auto& completion : wakeups.completions) completion();
}

void LocalContainer::Close() {
  Wakeups wakeups;
  {
    ds::MutexLock lock(mu_);
    closed_ = true;
    // Every parked waiter now resolves terminally (kCancelled).
    EvaluateWaitersLocked(wakeups);
  }
  Finish(wakeups);
}

void LocalContainer::set_gc_handler(GcHandler handler) {
  ds::MutexLock lock(mu_);
  gc_handler_ = std::move(handler);
}

std::size_t LocalContainer::parked_get_waiters() const {
  ds::MutexLock lock(mu_);
  return get_waiters_.size();
}

std::size_t LocalContainer::parked_put_waiters() const {
  ds::MutexLock lock(mu_);
  return put_waiters_.size();
}

}  // namespace dstampede::core
