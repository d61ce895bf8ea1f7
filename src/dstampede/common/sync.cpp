// Runtime lock-order deadlock detection behind ds::Mutex.
//
// Model: a directed graph over lock *nodes*. A named mutex maps to a
// node shared by every mutex with that name (a lock class); an unnamed
// mutex maps to a per-instance node. Whenever a thread acquires B
// while holding A (top of its held stack) we insert edge A→B — but
// first we search for a path B→…→A. Finding one means some earlier
// acquisition established the opposite order: a potential deadlock,
// reported with both stacks and aborted *before* this thread blocks on
// B, so the report is produced instead of the hang.
//
// The graph only grows (edges are never removed, even when mutexes are
// destroyed), which is what makes the check a discipline check rather
// than a liveness heuristic: an order violation is reported even if
// the two threads never actually race. Name-aggregation keeps the
// graph small and catches ABBA across instances of one lock class; the
// cost is that two same-named mutexes must never be nested (nesting
// within a class has no defined order, so we treat it as unordered and
// record no edge).
//
// Everything here is off unless DSTAMPEDE_DEADLOCK_DETECT is set; the
// fast path is one relaxed atomic load per lock()/unlock().
#include "dstampede/common/sync.hpp"

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dstampede::sync {
namespace {

constexpr int kMaxFrames = 32;

struct Backtrace {
  void* frames[kMaxFrames];
  int depth = 0;

  void Capture() { depth = ::backtrace(frames, kMaxFrames); }
  void Dump() const {
    if (depth > 0) ::backtrace_symbols_fd(frames, depth, STDERR_FILENO);
  }
};

struct HeldLock {
  const Mutex* mu;
  std::uintptr_t node;
  Backtrace acquired_at;
};

struct EdgeInfo {
  Backtrace acquired_at;  // the acquisition that first created from→to
};

struct Graph {
  std::mutex mu;
  // node → (successor node → first acquisition that created the edge)
  std::unordered_map<std::uintptr_t, std::unordered_map<std::uintptr_t, EdgeInfo>>
      edges;
  std::unordered_map<std::uintptr_t, const char*> names;
  std::size_t edge_count = 0;
};

Graph& graph() {
  static Graph* g = new Graph;  // leaked: outlives static-dtor order issues
  return *g;
}

// -1: not yet read from the environment.
std::atomic<int> g_enabled{-1};

thread_local std::vector<HeldLock> t_held;
// Open DeliveryThreadScopes on this thread.
thread_local int t_delivery_depth = 0;

const char* NodeName(const Graph& g, std::uintptr_t node) {
  auto it = g.names.find(node);
  return it != g.names.end() ? it->second : "<unnamed>";
}

// DFS: is `to` reachable from `from`? Caller holds g.mu. On success
// `path` holds the nodes from `from` to `to` inclusive.
bool PathExists(const Graph& g, std::uintptr_t from, std::uintptr_t to,
                std::vector<std::uintptr_t>& path,
                std::unordered_set<std::uintptr_t>& visited) {
  path.push_back(from);
  if (from == to) return true;
  visited.insert(from);
  auto it = g.edges.find(from);
  if (it != g.edges.end()) {
    for (const auto& [next, info] : it->second) {
      if (visited.count(next) != 0) continue;
      if (PathExists(g, next, to, path, visited)) return true;
    }
  }
  path.pop_back();
  return false;
}

[[noreturn]] void DieCycle(Graph& g, const HeldLock& held, const Mutex* about,
                           const std::vector<std::uintptr_t>& path) {
  std::fprintf(stderr,
               "\n[dstampede] deadlock detector: lock-order cycle detected\n"
               "  this thread is acquiring \"%s\" while holding \"%s\",\n"
               "  but an earlier acquisition ordered them the other way:\n   ",
               about->name(), held.mu->name());
  for (std::size_t i = 0; i < path.size(); ++i) {
    std::fprintf(stderr, "%s\"%s\"", i == 0 ? " " : " -> ",
                 NodeName(g, path[i]));
  }
  std::fprintf(stderr, " -> (this acquisition) \"%s\"\n", about->name());
  std::fprintf(stderr, "  --- current acquisition stack ---\n");
  Backtrace now;
  now.Capture();
  now.Dump();
  std::fprintf(stderr, "  --- stack holding \"%s\" ---\n", held.mu->name());
  held.acquired_at.Dump();
  // The earlier, conflicting order: the first edge on the reverse path.
  if (path.size() >= 2) {
    auto it = g.edges.find(path[0]);
    if (it != g.edges.end()) {
      auto jt = it->second.find(path[1]);
      if (jt != it->second.end()) {
        std::fprintf(stderr,
                     "  --- earlier acquisition that ordered \"%s\" before "
                     "\"%s\" ---\n",
                     NodeName(g, path[0]), NodeName(g, path[1]));
        jt->second.acquired_at.Dump();
      }
    }
  }
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void DieReentrant(const HeldLock& held) {
  std::fprintf(stderr,
               "\n[dstampede] deadlock detector: re-entrant acquisition of "
               "ds::Mutex \"%s\"\n"
               "  this thread already holds this mutex; locking it again "
               "would self-deadlock\n"
               "  (classic instance: a callback dispatched while the lock "
               "is held calls back in).\n"
               "  --- current acquisition stack ---\n",
               held.mu->name());
  Backtrace now;
  now.Capture();
  now.Dump();
  std::fprintf(stderr, "  --- original acquisition stack ---\n");
  held.acquired_at.Dump();
  std::fflush(stderr);
  std::abort();
}

std::uintptr_t HashName(const char* name) {
  // FNV-1a; low bit set so name nodes can never collide with pointer
  // nodes (pointers are at least 2-aligned).
  std::uintptr_t h = 1469598103934665603ull;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ull;
  }
  return h | 1u;
}

}  // namespace

bool DeadlockDetectionEnabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* e = std::getenv("DSTAMPEDE_DEADLOCK_DETECT");
    v = (e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0) ? 1 : 0;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void SetDeadlockDetectionForTesting(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::size_t LockOrderEdgeCountForTesting() {
  Graph& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.edge_count;
}

DeliveryThreadScope::DeliveryThreadScope() { ++t_delivery_depth; }

DeliveryThreadScope::~DeliveryThreadScope() { --t_delivery_depth; }

void AssertBlockingAllowed(const char* what) {
  if (!DeadlockDetectionEnabled()) return;
  if (t_delivery_depth > 0) {
    std::fprintf(stderr,
                 "\n[dstampede] deadlock detector: blocking operation \"%s\" "
                 "on a delivery thread\n"
                 "  a thread running a transport's delivery upcall may be "
                 "the one that would deliver what it waits for\n"
                 "  --- current stack ---\n",
                 what);
    Backtrace now;
    now.Capture();
    now.Dump();
    std::fflush(stderr);
    std::abort();
  }
  AssertNoLockHeld(what);
}

void AssertNoLockHeld(const char* what) {
  if (!DeadlockDetectionEnabled()) return;
  for (const HeldLock& held : t_held) {
    if (held.mu->blocking_allowed()) continue;
    std::fprintf(stderr,
                 "\n[dstampede] deadlock detector: blocking operation \"%s\" "
                 "while holding ds::Mutex \"%s\"\n"
                 "  a lock not marked kBlockingAllowed may not be held "
                 "across indefinite waits\n"
                 "  --- current stack ---\n",
                 what, held.mu->name());
    Backtrace now;
    now.Capture();
    now.Dump();
    std::fprintf(stderr, "  --- stack that acquired \"%s\" ---\n",
                 held.mu->name());
    held.acquired_at.Dump();
    std::fflush(stderr);
    std::abort();
  }
}

std::uintptr_t Mutex::node_id() const {
  return name_ != nullptr ? HashName(name_)
                          : reinterpret_cast<std::uintptr_t>(this);
}

// Friend of Mutex; wraps the detector callbacks used by Mutex/CondVar.
struct Detector {
  // Runs the order checks *before* blocking on `m` so a genuine
  // inversion is reported rather than deadlocking first.
  static void BeforeLock(const Mutex* m) {
    if (!DeadlockDetectionEnabled()) return;
    for (const HeldLock& held : t_held) {
      if (held.mu == m) DieReentrant(held);
    }
    if (t_held.empty()) return;
    const HeldLock& top = t_held.back();
    const std::uintptr_t from = top.node;
    const std::uintptr_t to = m->node_id();
    if (from == to) return;  // same lock class: unordered, no edge
    Graph& g = graph();
    std::lock_guard<std::mutex> lock(g.mu);
    auto& out = g.edges[from];
    if (out.find(to) != out.end()) return;  // edge already known
    std::vector<std::uintptr_t> path;
    std::unordered_set<std::uintptr_t> visited;
    if (PathExists(g, to, from, path, visited)) {
      g.names.emplace(to, m->name());
      g.names.emplace(from, top.mu->name());
      DieCycle(g, top, m, path);
    }
    EdgeInfo info;
    info.acquired_at.Capture();
    out.emplace(to, std::move(info));
    g.names.emplace(from, top.mu->name());
    g.names.emplace(to, m->name());
    ++g.edge_count;
  }

  static void AfterLock(const Mutex* m) {
    if (!DeadlockDetectionEnabled()) return;
    HeldLock held{m, m->node_id(), {}};
    held.acquired_at.Capture();
    t_held.push_back(held);
  }

  static void OnUnlock(const Mutex* m) {
    if (!DeadlockDetectionEnabled()) return;
    for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
      if (it->mu == m) {
        t_held.erase(std::next(it).base());
        return;
      }
    }
  }

  static bool Held(const Mutex* m) {
    for (const HeldLock& held : t_held) {
      if (held.mu == m) return true;
    }
    return false;
  }
};

void Mutex::lock() {
  Detector::BeforeLock(this);
  mu_.lock();
  Detector::AfterLock(this);
}

void Mutex::unlock() {
  Detector::OnUnlock(this);
  mu_.unlock();
}

bool Mutex::try_lock() {
  // try_lock cannot deadlock (it fails instead of blocking), so no
  // order edge is recorded; the held stack still tracks it.
  if (!mu_.try_lock()) return false;
  Detector::AfterLock(this);
  return true;
}

void Mutex::AssertHeld() const {
  if (!DeadlockDetectionEnabled()) return;
  if (Detector::Held(this)) return;
  std::fprintf(stderr,
               "\n[dstampede] deadlock detector: AssertHeld failed for "
               "ds::Mutex \"%s\" — lock not held by this thread\n",
               name());
  Backtrace now;
  now.Capture();
  now.Dump();
  std::fflush(stderr);
  std::abort();
}

void CondVar::Wait(Mutex& mu) {
  // The wait releases mu; mirror that in the detector's held set so
  // concurrent order checks on this thread stay accurate.
  Detector::OnUnlock(&mu);
  std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
  cv_.wait(ul);
  ul.release();
  Detector::AfterLock(&mu);
}

bool CondVar::WaitUntil(Mutex& mu, Deadline deadline) {
  if (deadline.infinite()) {
    Wait(mu);
    return true;
  }
  VirtualClock* vc = InstalledVirtualClock();
  Detector::OnUnlock(&mu);
  std::unique_lock<std::mutex> ul(mu.mu_, std::adopt_lock);
  bool notified;
  if (vc == nullptr) {
    notified =
        cv_.wait_until(ul, deadline.when()) == std::cv_status::no_timeout;
  } else {
    notified = WaitUntilVirtual(ul, deadline, vc);
  }
  ul.release();
  Detector::AfterLock(&mu);
  return notified;
}

bool CondVar::WaitUntilVirtual(std::unique_lock<std::mutex>& ul,
                               Deadline deadline, VirtualClock* vc) {
  // Virtual-time timed wait: the deadline matures when the installed
  // VirtualClock is advanced past it, not when the wall clock gets
  // there. Each pass registers with the clock's timed-wait registry
  // (AdvanceTo past `when` notify_all()s our cv), then waits a short
  // *real* slice as belt-and-braces against the register/notify race —
  // a notification sent between our registry insert and the wait_for
  // is re-sent by the controller's next Advance, and the slice bounds
  // the damage of any missed wakeup to 2ms of wall time.
  const TimePoint when = deadline.when();
  // Snapshot under the caller's mutex: any notify bumped after this
  // (even one landing in the unprotected gap between two slices, where
  // cv_ has no formal waiter to receive it) is detected below instead
  // of being lost against a frozen virtual deadline.
  const std::uint64_t entry_gen = gen_.load(std::memory_order_acquire);
  for (;;) {
    if (vc->Now() >= when) return false;  // timed out (in virtual time)
    const VirtualClock::WaitToken token =
        vc->RegisterTimedWait(when, &cv_);
    const std::cv_status st = cv_.wait_for(ul, std::chrono::milliseconds(2));
    vc->UnregisterTimedWait(token);
    if (vc->Now() >= when) return false;
    if (st == std::cv_status::no_timeout) return true;  // maybe-notified
    if (gen_.load(std::memory_order_acquire) != entry_gen) {
      return true;  // notified between slices; the caller rechecks
    }
    if (!vc->installed()) {
      // Clock torn down mid-wait: finish on real time so callers see
      // ordinary timeout behaviour instead of spinning forever.
      return cv_.wait_until(ul, when) == std::cv_status::no_timeout;
    }
  }
}

}  // namespace dstampede::sync
