// Time helpers: one steady clock for all latency math, plus Deadline,
// the unit every blocking runtime call accepts — and the clock *seam*
// that makes the whole runtime simulable.
//
// Every piece of time-dependent machinery in the tree (Deadline math,
// TimerWheel, CLF retransmission/keepalive timers, reconnect backoff,
// the listener's janitor) reads time through dstampede::Now() and
// sleeps through dstampede::SleepFor()/ds::CondVar::WaitUntil(). By
// default those hit std::chrono::steady_clock and real waits. When a
// VirtualClock is installed (sim::SimController does this), the same
// call sites read settable virtual time instead, virtual sleeps block
// until the controller advances the clock, and timed condition waits
// are woken by Advance — so a simulated minute of timeouts runs in
// milliseconds of wall time, deterministically. A CLF receiver polls on
// real time instead and registers each pass's deadline, the sooner of
// 5 ms and its TimerWheel's next entry (RegisterDeadline), so the
// controller steps onto a parked waiter's deadline. See docs/SIMULATION.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>

namespace dstampede {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;
using Duration = SteadyClock::duration;

inline std::int64_t ToMicros(Duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

inline Duration Micros(std::int64_t us) {
  return std::chrono::microseconds(us);
}
inline Duration Millis(std::int64_t ms) {
  return std::chrono::milliseconds(ms);
}

// A settable clock for deterministic simulation. At most one instance
// is installed process-wide at a time; while installed, Now() reads it
// and SleepFor()/CondVar::WaitUntil() block on *virtual* time, woken
// by AdvanceTo/AdvanceBy. Virtual time starts at the real time of
// construction by default, so TimePoints remain comparable across
// install/uninstall boundaries (a deadline computed under one clock is
// at worst promptly expired under the other, never decades away).
//
// Thread-safety: all methods are thread-safe. The internal mutex is a
// leaf (a plain std::mutex, invisible to the deadlock detector): no
// callback ever runs under it, and notifications of woken waiters
// happen after it is released.
class VirtualClock {
 public:
  using WaitToken = std::uint64_t;

  VirtualClock() : VirtualClock(SteadyClock::now()) {}
  explicit VirtualClock(TimePoint start);
  // Uninstalls (waking every virtual sleeper) if still installed.
  ~VirtualClock();

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  // Makes this the process clock / restores the real clock. Install
  // before constructing the runtime objects that should run under
  // virtual time: threads already blocked in a *real* timed wait keep
  // their real deadline. Installing while another VirtualClock is
  // installed is a programming error (asserted).
  void Install();
  void Uninstall();
  bool installed() const {
    return installed_.load(std::memory_order_acquire);
  }

  TimePoint Now() const {
    return TimePoint(Duration(now_ticks_.load(std::memory_order_acquire)));
  }

  // Moves virtual time forward (monotone; a target in the past is a
  // no-op apart from re-notifying due waiters). Wakes every virtual
  // sleeper and every registered timed wait whose deadline has passed.
  void AdvanceTo(TimePoint t);
  void AdvanceBy(Duration d) { AdvanceTo(Now() + d); }

  // Virtual sleep: blocks the caller until virtual time reaches the
  // target or the clock is uninstalled (teardown never hangs on a
  // stopped controller).
  void SleepUntil(TimePoint until);
  void SleepFor(Duration d) { SleepUntil(Now() + d); }

  // --- timed-wait registry (used by ds::CondVar::WaitUntil) ---------
  // Registers a condition wait with deadline `when`; AdvanceTo past
  // `when` notify_all()s `cv`. The waiter unregisters after waking.
  WaitToken RegisterTimedWait(TimePoint when, std::condition_variable* cv);
  void UnregisterTimedWait(WaitToken token);
  // Registers `when` as a deadline that no wait blocks on, so
  // AdvanceUntilQuiescent steps no further than it while it lies ahead.
  // For a thread that polls on real time but judges deadlines against
  // Now() (a CLF receiver, which also fires its space's TimerWheel).
  // Unregister with UnregisterTimedWait.
  WaitToken RegisterDeadline(TimePoint when) {
    return RegisterTimedWait(when, &sleep_cv_);
  }

  // Earliest pending virtual wake-up (sleep target or registered timed
  // wait), including already-due entries whose owners have not yet run.
  std::optional<TimePoint> NextEventTime() const;
  // Pending timed waits + virtual sleepers (diagnostics/tests).
  std::size_t pending_waits() const;

  // Advance-until-quiescent controller: steps virtual time from one
  // pending deadline to the next, giving the woken threads `real_grace`
  // of wall time to react after each step, until
  //   - `done` (if provided) returns true, or
  //   - nothing is pending and no `done` was provided (quiescent), or
  //   - `horizon` of virtual time has been consumed.
  // When `done` is provided and nothing is registered, time still moves
  // in `max_step` quanta so progress that depends on wall-clock polling
  // loops (socket receivers) is not starved. A nonzero `min_step`
  // coalesces dense deadlines: each step covers at least that much
  // virtual time, firing every deadline inside the window under one
  // grace period instead of paying `real_grace` per deadline — a large
  // simulated cluster registers periodic timers every couple of virtual
  // milliseconds, and stepping each one individually makes an idle
  // virtual minute cost wall-clock seconds. Returns the virtual time
  // actually advanced.
  Duration AdvanceUntilQuiescent(Duration horizon,
                                 const std::function<bool()>& done = {},
                                 Duration max_step = Millis(50),
                                 Duration real_grace = Micros(200),
                                 Duration min_step = Duration::zero());

 private:
  std::atomic<std::int64_t> now_ticks_;
  std::atomic<bool> installed_{false};

  mutable std::mutex mu_;
  std::condition_variable sleep_cv_;
  // (deadline, token) -> cv, ordered so the due prefix is cheap.
  std::map<std::pair<TimePoint, WaitToken>, std::condition_variable*>
      timed_waits_;
  std::multiset<TimePoint> sleep_targets_;
  WaitToken next_token_ = 1;
};

namespace clock_internal {
extern std::atomic<VirtualClock*> g_virtual;
// Real std::this_thread sleeps. Debug-assert that no VirtualClock is
// installed: reaching a wall-clock sleep while simulating means some
// call site bypassed the seam.
void WallSleep(Duration d);
void WallSleepUntil(TimePoint until);
}  // namespace clock_internal

// The installed VirtualClock, or nullptr when running on real time.
inline VirtualClock* InstalledVirtualClock() {
  return clock_internal::g_virtual.load(std::memory_order_acquire);
}

inline TimePoint Now() {
  if (VirtualClock* vc = InstalledVirtualClock()) return vc->Now();
  return SteadyClock::now();
}

// The sleep every runtime loop must use instead of raw
// std::this_thread::sleep_for: virtual when a VirtualClock is
// installed, wall-clock otherwise.
inline void SleepFor(Duration d) {
  if (VirtualClock* vc = InstalledVirtualClock()) {
    vc->SleepFor(d);
    return;
  }
  clock_internal::WallSleep(d);
}

// Absolute-deadline companion to SleepFor (used by the soft-real-time
// tick loop): virtual when a VirtualClock is installed.
inline void SleepUntil(TimePoint until) {
  if (VirtualClock* vc = InstalledVirtualClock()) {
    vc->SleepUntil(until);
    return;
  }
  clock_internal::WallSleepUntil(until);
}

// A point in time after which a blocking call gives up with kTimeout.
// Deadline::Infinite() never expires; Deadline::Poll() expires now.
class Deadline {
 public:
  static Deadline Infinite() { return Deadline(TimePoint::max()); }
  static Deadline Poll() { return Deadline(TimePoint::min()); }
  static Deadline After(Duration d) { return Deadline(Now() + d); }
  static Deadline AfterMillis(std::int64_t ms) { return After(Millis(ms)); }
  // An absolute deadline; used by timer plumbing that stores TimePoints.
  static Deadline At(TimePoint when) { return Deadline(when); }

  bool expired() const { return when_ != TimePoint::max() && Now() >= when_; }
  bool infinite() const { return when_ == TimePoint::max(); }
  TimePoint when() const { return when_; }
  // Remaining time, clamped at zero.
  Duration remaining() const {
    if (infinite()) return Duration::max();
    auto now = Now();
    return when_ > now ? when_ - now : Duration::zero();
  }

 private:
  explicit Deadline(TimePoint when) : when_(when) {}
  TimePoint when_;
};

}  // namespace dstampede
