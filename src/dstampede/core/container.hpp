// LocalContainer: the owner-side core that LocalChannel and LocalQueue
// share — the paper gives both kinds one put/get/consume API with the
// same blocking semantics (§3.1), and this class is that API's engine.
//
// Blocking is event-driven: every would-block operation is expressed
// through the two-phase async API (try, else register a continuation
// waiter), and every state change re-evaluates the parked waiters and
// completes the ones it satisfied — outside the container lock, on the
// thread that made the progress. The classic blocking Get/Put are thin
// wrappers that park the *caller's* thread on a SyncWaiter; no shared
// dispatcher thread ever parks inside a container. A parked waiter's
// deadline goes on a TimerWheel, which a space's CLF receiver fires.
//
// A kind supplies only what differs: the phase-one attempts
// (TryPutLocked/TryGetLocked), reclamation, its connection table
// (Attach/Detach) and Consume.
#pragma once

#include <cstdint>
#include <functional>
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
#include "dstampede/core/item.hpp"

namespace dstampede::core {

// Invoked (outside the container lock, on the thread that reclaimed
// it) for every reclaimed item. This is the paper's user-defined GC
// handler (§3.1): applications free any user-space state associated
// with the item here. AddressSpace installs handlers that hand the call
// to its dispatcher pool.
using GcHandler = std::function<void(Timestamp, const SharedBuffer&)>;

// Every item one container operation reclaimed, with its timestamp.
using ReclaimedItems = std::vector<std::pair<Timestamp, SharedBuffer>>;
// Told once per operation that reclaimed items, with all of them,
// outside the container lock and on the reclaiming thread. The owning
// space installs it at creation to publish GC notices (core/gc.hpp).
using ReclaimHook = std::function<void(const ReclaimedItems&)>;

// Continuations for the two-phase async container API. They run
// exactly once, with no container lock held, on whichever thread
// resolved the wait: the inline caller, a putter/consumer, the CLF
// receiver firing the timer wheel, or a lifecycle path (close, peer death).
using GetCompletion = std::function<void(Result<ItemView>)>;
using PutCompletion = std::function<void(Status)>;

class LocalContainer {
 public:
  virtual ~LocalContainer() = default;
  LocalContainer(const LocalContainer&) = delete;
  LocalContainer& operator=(const LocalContainer&) = delete;

  bool is_queue() const { return is_queue_; }

  // --- connections -----------------------------------------------------
  // Returns the connection slot used for all subsequent calls.
  // `label` identifies the connector in stats/debugging (thread name,
  // surrogate id, remote AS).
  virtual std::uint32_t Attach(ConnMode mode, std::string label) = 0;
  virtual Status Detach(std::uint32_t slot) = 0;
  virtual Status Consume(std::uint32_t slot, Timestamp ts) = 0;

  // --- I/O -------------------------------------------------------------
  // Blocks (up to deadline) while the container is at capacity.
  Status Put(Timestamp ts, SharedBuffer payload, Deadline deadline);
  // Blocks (up to deadline) until an item `spec` selects is there. A
  // queue pops its head item and ignores `spec`.
  Result<ItemView> Get(std::uint32_t slot, GetSpec spec, Deadline deadline);

  // --- two-phase (try-else-register) API -------------------------------
  // Phase one runs under the lock: if the operation can complete (or
  // terminally fail) right now, `done` runs inline on this thread and
  // 0 is returned. Otherwise a waiter is registered and its id (> 0)
  // returned; `done` later runs exactly once on the completing thread.
  // `origin` tags the waiter for CancelWaitersOf (peer death).
  // `use_timer=false` skips the wheel for callers that enforce the
  // deadline themselves (the sync wrappers).
  std::uint64_t GetAsync(std::uint32_t slot, GetSpec spec, Deadline deadline,
                         GetCompletion done,
                         std::uint32_t origin = kNoWaiterOrigin,
                         bool use_timer = true);
  std::uint64_t PutAsync(Timestamp ts, SharedBuffer payload, Deadline deadline,
                         PutCompletion done,
                         std::uint32_t origin = kNoWaiterOrigin,
                         bool use_timer = true);
  // Completes a parked waiter with `status` (inline, on this thread).
  // Returns false when the waiter already completed — the caller lost
  // the race and the genuine completion stands.
  bool CancelWaiter(std::uint64_t waiter_id, const Status& status);
  // Completes every parked waiter tagged with `origin`; returns how
  // many. Used when the peer the reply would go to is dead.
  std::size_t CancelWaitersOf(std::uint32_t origin, const Status& status);

  // --- garbage collection ---------------------------------------------
  void set_gc_handler(GcHandler handler);

  // Completes every parked waiter with kCancelled and fails subsequent
  // blocking calls; used when the owning address space shuts down.
  void Close();

  // --- introspection ---------------------------------------------------
  std::size_t parked_get_waiters() const;
  std::size_t parked_put_waiters() const;
  std::uint64_t total_puts() const {
    ds::MutexLock lock(mu_);
    return total_puts_;
  }
  std::uint64_t total_reclaimed() const {
    ds::MutexLock lock(mu_);
    return total_reclaimed_;
  }

  // Wires registry instruments (owner AS calls this once, before the
  // container is published). Also turns on reclaim-lag measurement:
  // puts stamp a birth time, reclaims observe the lag.
  void set_metrics(const StmMetrics& m) {
    ds::MutexLock lock(mu_);
    metrics_ = m;
  }

 protected:
  // `wheel` (optional, must outlive the container) enforces deadlines
  // of parked async waiters when its owner runs it. Without one,
  // finite-deadline async waiters only resolve through progress or an
  // explicit CancelWaiter — the sync wrappers enforce their own.
  // `on_reclaim` (optional) hears of every reclaimed item.
  LocalContainer(bool is_queue, TimerWheel* wheel, ReclaimHook on_reclaim)
      : is_queue_(is_queue),
        wheel_(wheel),
        on_reclaim_(std::move(on_reclaim)) {}

  // Work discovered under mu_ that must run only after it is released:
  // reclaimed payloads for the GC handler and the reclaim hook, waiter
  // completions, and timer cancellations for waiters that completed
  // early.
  struct Wakeups {
    ReclaimedItems freed;
    GcHandler handler;
    std::vector<std::function<void()>> completions;
    std::vector<TimerWheel::TimerId> timers;
  };

  // Phase-one attempts on an open container. nullopt means "would
  // block: park"; a value is the operation's final result (success or
  // terminal error).
  virtual std::optional<Result<ItemView>> TryGetLocked(std::uint32_t slot,
                                                       GetSpec spec)
      DS_REQUIRES(mu_) = 0;
  virtual std::optional<Status> TryPutLocked(Timestamp ts,
                                             SharedBuffer& payload,
                                             Wakeups& out) DS_REQUIRES(mu_) = 0;

  // Books one reclaimed item: counts it, observes its reclaim lag when
  // `born` is set, and hands the payload to the GC handler and the
  // reclaim hook through `out`.
  void ReclaimedLocked(Timestamp ts, SharedBuffer payload, TimePoint born,
                       Wakeups& out) DS_REQUIRES(mu_);
  // Re-runs phase one for every parked waiter, to fixpoint: an admitted
  // put can satisfy parked gets, and the reclaim (channel) or pop
  // (queue) that follows can admit further puts. Completed waiters
  // move into `out`.
  void EvaluateWaitersLocked(Wakeups& out) DS_REQUIRES(mu_);
  // Post-mutation tail shared by every path: cancels obsolete timers,
  // runs the GC handler and the reclaim hook, then the waiter
  // completions — all outside the lock (handlers and completions may
  // call back into the container).
  // By reference: a path with nothing to wake pays no move.
  void Finish(Wakeups& wakeups) DS_EXCLUDES(mu_);

  mutable ds::Mutex mu_{"container.mu"};
  StmMetrics metrics_ DS_GUARDED_BY(mu_);

 private:
  // A blocked get staged as data instead of a parked thread (the
  // tuple-space pending-match-record move). Owned by get_waiters_;
  // completion-by-removal under mu_ is what makes delivery
  // exactly-once even with racing completers.
  struct GetWaiter {
    std::uint32_t slot;
    GetSpec spec;
    GetCompletion done;
    std::uint32_t origin;
    TimerWheel::TimerId timer = 0;
  };
  // A back-pressured put: the payload waits in the record, not in a
  // blocked thread's stack frame.
  struct PutWaiter {
    Timestamp ts;
    SharedBuffer payload;
    PutCompletion done;
    std::uint32_t origin;
    TimerWheel::TimerId timer = 0;
  };

  // Phase one as every kind runs it: refused once closed, counted in
  // total_puts_ / stm.puts / stm.gets when it succeeds.
  std::optional<Status> PutLocked(Timestamp ts, SharedBuffer& payload,
                                  Wakeups& out) DS_REQUIRES(mu_);
  std::optional<Result<ItemView>> GetLocked(std::uint32_t slot, GetSpec spec)
      DS_REQUIRES(mu_);
  // "channel closed", "queue get", ...: status messages name the kind.
  std::string KindText(const char* what) const;

  const bool is_queue_;
  TimerWheel* const wheel_;
  const ReclaimHook on_reclaim_;

  bool closed_ DS_GUARDED_BY(mu_) = false;
  // Waiter id order is registration order: the maps double as FIFO
  // queues, so back-pressured puts are admitted first-come-first-served
  // and a queue serves blocked getters in the order they arrived.
  std::map<std::uint64_t, GetWaiter> get_waiters_ DS_GUARDED_BY(mu_);
  std::map<std::uint64_t, PutWaiter> put_waiters_ DS_GUARDED_BY(mu_);
  std::uint64_t next_waiter_id_ DS_GUARDED_BY(mu_) = 1;

  GcHandler gc_handler_ DS_GUARDED_BY(mu_);
  std::uint64_t total_puts_ DS_GUARDED_BY(mu_) = 0;
  std::uint64_t total_reclaimed_ DS_GUARDED_BY(mu_) = 0;
};

}  // namespace dstampede::core
