// Continuation-waiter primitives: the building blocks of event-driven
// blocking on the dispatch path.
//
// The space-time-memory API is blocking by definition — a get waits for
// its item, a put waits out back-pressure (paper §3.1) — but *how* a
// wait is implemented is an implementation choice with a liveness
// consequence. Parking a dispatcher worker per blocked remote call
// makes pool width a hard bound on the number of simultaneously blocked
// clients (the bench_ablation B cliff). Instead, the containers stage a
// blocked request as a registered continuation waiter — the same move
// tuple-space implementations make when they keep pending-match records
// for blocked in/rd requests — and the worker returns to the pool
// immediately. The thread whose put/consume/reclaim/close resolves the
// wait runs the continuation; deadline expiry and lifecycle events
// (peer death, container close, shutdown) complete it with the right
// error status instead.
//
// This header provides the pieces shared by every waiter site:
//
//  - DeferredReply: a once-only reply slot for a suspended request.
//    Whichever completer gets there first (item arrival, timeout, peer
//    death, shutdown) sends the reply; everyone else finds it claimed.
//  - TimerWheel: the deadline table that turns "deadline expired while
//    parked" into a callback, so no thread has to sleep per waiter just
//    to enforce its deadline. Its owner fires it: a space's wheel is
//    its CLF endpoint's, run by the receiver between reads.
//  - SyncWaiter<T>: the inverse adapter — a stack-allocated completion
//    target that turns the two-phase async API back into the blocking
//    call the public STM API (and the surrogate threads serving end
//    devices) still expose.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/sync.hpp"

namespace dstampede {

// Origin tag a waiter carries when it was registered on behalf of a
// peer address space (AsIndex of the requester), so peer death can
// cancel exactly that peer's waiters. Waiters registered by local
// threads carry kNoWaiterOrigin (== AsIndex(kInvalidAsId)).
inline constexpr std::uint32_t kNoWaiterOrigin = 0xffffffffu;

// A once-only reply slot for a request suspended into a waiter. The
// thread serving the request when it suspends creates one; the
// completing thread — item arrival, deadline expiry, peer death,
// container close — encodes the reply and calls Complete(). Exactly
// one completer wins; the rest are no-ops, so racing completion paths
// need no further coordination.
class DeferredReply {
 public:
  using Sender = std::function<void(Buffer)>;

  explicit DeferredReply(Sender sender) : sender_(std::move(sender)) {}

  DeferredReply(const DeferredReply&) = delete;
  DeferredReply& operator=(const DeferredReply&) = delete;

  // Sends `reply` through the sender iff this is the first completion.
  // Returns whether this call won the claim.
  bool Complete(Buffer reply) {
    if (completed_.exchange(true, std::memory_order_acq_rel)) return false;
    sender_(std::move(reply));
    return true;
  }

 private:
  std::atomic<bool> completed_{false};
  Sender sender_;
};

// Deadline table for parked waiters. It has no thread: its owner calls
// RunDue, and a space's wheel is its CLF endpoint's (clf::Endpoint::
// timers()), whose receiver runs the due entries after every pass and
// polls its socket no longer than until the next one is due. So a
// thousand parked waiters with deadlines cost no thread at all. An
// entry that a thread other than the receiver schedules (the shm fast
// path's sender, a pool worker) while the receiver polls fires at the
// receiver's next pass: at most one 5 ms poll slice after its deadline.
// Implemented as a deadline-ordered map rather than a cascading bucket
// wheel: waiter populations here are hundreds, and the ordered map
// keeps cancellation (the overwhelmingly common case — most waiters
// complete long before their deadline) a cheap erase.
class TimerWheel {
 public:
  using TimerId = std::uint64_t;

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Schedules `fn` to run at `deadline`: the first RunDue at or after
  // it runs it. An infinite deadline is never scheduled: returns 0, a
  // TimerId no other entry uses. Safe to call while holding a container
  // lock (the wheel lock is a leaf). Entries never run are destroyed
  // with the wheel.
  TimerId Schedule(Deadline deadline, std::function<void()> fn);

  // Removes a pending entry. Returns false when the entry already
  // fired (or is firing), was cancelled, or never existed (id 0).
  bool Cancel(TimerId id);

  // Runs every entry due at `now`, earliest deadline first, on this
  // thread with no wheel lock held, so callbacks may take container
  // locks (CancelWaiter) and send replies; they must not block, since
  // every later entry waits behind them. Entries the callbacks schedule
  // wait for the next call. Returns the earliest deadline still
  // pending (possibly already due), TimePoint::max() when none.
  TimePoint RunDue(TimePoint now);

  std::size_t pending() const;

 private:
  mutable ds::Mutex mu_{"timer_wheel.mu"};
  // Ordered by (deadline, id): the front entry is always the next due.
  std::map<std::pair<TimePoint, TimerId>, std::function<void()>> entries_
      DS_GUARDED_BY(mu_);
  std::unordered_map<TimerId, TimePoint> index_ DS_GUARDED_BY(mu_);
  TimerId next_id_ DS_GUARDED_BY(mu_) = 1;
};

// Turns the two-phase async container API back into a blocking call:
// the caller registers a completion that writes here, then parks its
// own thread — which is fine, because it is the *caller's* thread (an
// application thread or a surrogate's dedicated session thread), not a
// shared dispatcher worker.
//
// Stack allocation is safe because every registered waiter is
// completed exactly once (by progress, deadline, cancellation, or
// close) before its record is dropped; the wrapper does not return
// until that completion ran.
template <typename T>
class SyncWaiter {
 public:
  SyncWaiter() = default;
  SyncWaiter(const SyncWaiter&) = delete;
  SyncWaiter& operator=(const SyncWaiter&) = delete;

  void Complete(T value) {
    ds::MutexLock lock(mu_);
    result_.emplace(std::move(value));
    cv_.NotifyAll();
  }

  // Waits for Complete() up to `deadline`; true iff it ran.
  bool AwaitUntil(Deadline deadline) {
    ds::MutexLock lock(mu_);
    while (!result_.has_value()) {
      if (!cv_.WaitUntil(mu_, deadline)) return result_.has_value();
    }
    return true;
  }

  // Waits for Complete() without a deadline and yields the result.
  // Only call after arranging that completion is inevitable (e.g. a
  // successful CancelWaiter runs it inline).
  T TakeResult() {
    ds::MutexLock lock(mu_);
    while (!result_.has_value()) cv_.Wait(mu_);
    T out = std::move(*result_);
    return out;
  }

 private:
  ds::Mutex mu_{"sync_waiter.mu"};
  ds::CondVar cv_;
  std::optional<T> result_ DS_GUARDED_BY(mu_);
};

}  // namespace dstampede
