// Concurrency-correctness layer: annotated mutex/condvar wrappers.
//
// Space-time memory is served by dozens of cooperating threads (channel
// waiters, CLF receive loops, surrogate service loops), and
// the locking discipline between them is part of the system's
// correctness contract. This header makes that contract checkable twice
// over:
//
//  1. Statically. ds::Mutex / ds::MutexLock / ds::CondVar carry Clang
//     Thread Safety Analysis attributes, so a Clang build with
//     -Werror=thread-safety proves that every DS_GUARDED_BY field is
//     only touched under its lock and every DS_REQUIRES method is only
//     called with the lock held. The macros compile to nothing on
//     other compilers (GCC builds are unaffected).
//
//  2. Dynamically. With DSTAMPEDE_DEADLOCK_DETECT=1 in the
//     environment (or SetDeadlockDetectionForTesting(true)), every
//     acquisition feeds a per-process lock-order graph. The first
//     acquisition whose order is inconsistent with an earlier one —
//     i.e. the first edge that closes a cycle — aborts the process
//     with both offending stacks, before the program can actually
//     deadlock. Re-entrant acquisition of the same ds::Mutex (the
//     PR 2 GC-notice-handler-under-the-call-lock bug class) aborts
//     likewise, and AssertBlockingAllowed() turns "blocked on the
//     network while holding a lock" into an immediate abort instead
//     of a stall.
//
// Conventions (see docs/CONCURRENCY.md for the lock hierarchy):
//  - Name every long-lived mutex ("module.field"). Mutexes sharing a
//    name share one node in the lock-order graph, so an ABBA pattern
//    across *instances* of the same lock class is still caught. The
//    flip side: two same-named mutexes must never be held at once.
//  - A mutex that is legitimately held across blocking I/O (the
//    client's call-serialization lock) is constructed with
//    Mutex::kBlockingAllowed and is exempt from AssertBlockingAllowed.
//  - Condition waits are explicit loops over CondVar::Wait/WaitUntil;
//    predicate lambdas are avoided because Clang analyses lambda
//    bodies without the enclosing capability context.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "dstampede/common/clock.hpp"

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops elsewhere).
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DS_THREAD_ANNOTATION
#define DS_THREAD_ANNOTATION(x)
#endif

#define DS_CAPABILITY(x) DS_THREAD_ANNOTATION(capability(x))
#define DS_SCOPED_CAPABILITY DS_THREAD_ANNOTATION(scoped_lockable)
#define DS_GUARDED_BY(x) DS_THREAD_ANNOTATION(guarded_by(x))
#define DS_PT_GUARDED_BY(x) DS_THREAD_ANNOTATION(pt_guarded_by(x))
#define DS_REQUIRES(...) DS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DS_EXCLUDES(...) DS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define DS_ACQUIRE(...) DS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DS_RELEASE(...) DS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DS_TRY_ACQUIRE(...) \
  DS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define DS_ASSERT_CAPABILITY(x) DS_THREAD_ANNOTATION(assert_capability(x))
#define DS_RETURN_CAPABILITY(x) DS_THREAD_ANNOTATION(lock_returned(x))
#define DS_NO_THREAD_SAFETY_ANALYSIS \
  DS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dstampede::sync {

class CondVar;

// std::mutex with a thread-safety capability and an optional hook into
// the runtime lock-order detector. Construction is cheap whether or
// not detection is enabled; the enabled check is one relaxed atomic
// load per acquisition.
class DS_CAPABILITY("mutex") Mutex {
 public:
  // Tag for mutexes that are by design held across blocking operations
  // (socket I/O, condition waits in callees). Everything else aborts
  // under AssertBlockingAllowed() when detection is on.
  static constexpr bool kBlockingAllowed = true;

  Mutex() = default;
  // `name` must outlive the mutex (string literals in practice).
  // Same-named mutexes share a lock-order node; see header comment.
  explicit Mutex(const char* name, bool blocking_allowed = false)
      : name_(name), blocking_allowed_(blocking_allowed) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DS_ACQUIRE();
  void unlock() DS_RELEASE();
  bool try_lock() DS_TRY_ACQUIRE(true);

  // Runtime-checked when detection is on; statically tells Clang the
  // capability is held (for code reached only with the lock held).
  void AssertHeld() const DS_ASSERT_CAPABILITY(this);

  const char* name() const { return name_ != nullptr ? name_ : "<unnamed>"; }
  bool blocking_allowed() const { return blocking_allowed_; }

 private:
  friend class CondVar;
  friend struct Detector;

  std::uintptr_t node_id() const;

  std::mutex mu_;
  const char* name_ = nullptr;
  bool blocking_allowed_ = false;
};

// RAII scoped acquisition. Supports early release (for the
// unlock-before-notify idiom) but not re-acquisition; take a new
// MutexLock instead.
class DS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DS_ACQUIRE(mu) : mu_(&mu) { mu.lock(); }
  ~MutexLock() DS_RELEASE() {
    if (mu_ != nullptr) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Releases before scope exit; the destructor then does nothing.
  void Unlock() DS_RELEASE() {
    mu_->unlock();
    mu_ = nullptr;
  }

 private:
  Mutex* mu_;
};

// Condition variable bound to a ds::Mutex at each wait site. Waits
// keep the lock-order detector's held-set accurate (the mutex really
// is released while waiting).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) DS_REQUIRES(mu);
  // Returns false iff the deadline expired before a notification.
  // Deadline::Infinite() never times out; callers loop on their
  // predicate as usual.
  bool WaitUntil(Mutex& mu, Deadline deadline) DS_REQUIRES(mu);

  // The generation bump latches the notification for sliced virtual
  // waits: a notify that lands while a WaitUntilVirtual waiter is
  // between two wait_for slices (not formally waiting on cv_) would
  // otherwise be lost, and with the virtual deadline frozen the waiter
  // would re-arm slices forever.
  void NotifyOne() {
    gen_.fetch_add(1, std::memory_order_release);
    cv_.notify_one();
  }
  void NotifyAll() {
    gen_.fetch_add(1, std::memory_order_release);
    cv_.notify_all();
  }

 private:
  // Timed wait against an installed VirtualClock: registers with the
  // clock's timed-wait registry and re-checks virtual now in short
  // real-time slices. `ul` holds the waiter's mutex on entry and exit.
  bool WaitUntilVirtual(std::unique_lock<std::mutex>& ul, Deadline deadline,
                        VirtualClock* vc);

  std::condition_variable cv_;
  std::atomic<std::uint64_t> gen_{0};
};

// --- runtime deadlock detection -------------------------------------------

// True when DSTAMPEDE_DEADLOCK_DETECT is set in the environment (any
// value but "" or "0") or testing forced it on.
bool DeadlockDetectionEnabled();

// Overrides the environment for the current process. Death tests call
// this *inside* the EXPECT_DEATH statement so it applies in the child
// regardless of death-test style.
void SetDeadlockDetectionForTesting(bool enabled);

// Marks the calling thread, while the scope lives, as one that runs a
// transport's delivery or peer-event upcalls: the CLF receiver thread,
// or an shm sender inside its peer's upcall. Such a thread must not
// wait for a message, because it may be the thread that would deliver
// it. Marks nest; the mark is kept whether or not detection is on.
class DeliveryThreadScope {
 public:
  DeliveryThreadScope();
  ~DeliveryThreadScope();
  DeliveryThreadScope(const DeliveryThreadScope&) = delete;
  DeliveryThreadScope& operator=(const DeliveryThreadScope&) = delete;
};

// Call before an operation that may block indefinitely on something
// other than a ds::Mutex (socket reads, CLF request round-trips).
// Aborts if this thread holds any ds::Mutex not constructed with
// kBlockingAllowed — the invariant whose violation produced the PR 2
// Resume-reply deadlock — or runs under a DeliveryThreadScope. `what`
// names the operation in the report.
void AssertBlockingAllowed(const char* what);

// The lock half of AssertBlockingAllowed, for operations that never
// wait but may run other code's upcalls on this thread (CLF Send, whose
// shm fast path delivers to the peer inline).
void AssertNoLockHeld(const char* what);

// Number of distinct lock-order edges recorded so far (testing aid).
std::size_t LockOrderEdgeCountForTesting();

}  // namespace dstampede::sync

// Short spelling used throughout the tree: ds::Mutex, ds::MutexLock,
// ds::CondVar.
namespace ds = dstampede::sync;
