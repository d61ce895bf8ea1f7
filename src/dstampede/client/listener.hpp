// Listener (paper §3.2.2): the cluster-side thread that listens for
// new end devices joining a D-Stampede computation. Upon a join it
// creates a surrogate bound to one of the cluster's live address
// spaces (the device may request a specific one; otherwise
// round-robin) and dedicates a thread to it. Surrogates whose device
// vanished stay parked and countable — the paper's documented failure
// behaviour.
//
// Session-resilience extension: the listener also accepts Resume
// handshakes. A device reconnecting after a dropped link is re-bound
// to its parked surrogate in place; a device whose surrogate's host
// address space died has its session rehydrated from the name
// server's session registry onto a live address space instead of
// being lost. The listener advertises itself in the name server
// (`sys/listener/<port>`) so clients can discover failover targets.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "dstampede/client/surrogate.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/transport/tcp.hpp"

namespace dstampede::client {

class Listener {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0: pick a free port
    // Failure-handling extension (§6 future work): when non-zero, a
    // background janitor reaps surrogates that have been parked longer
    // than this — detaching the dead device's connections (releasing
    // its GC holds) and unregistering its names. Zero preserves the
    // paper's documented behaviour: parked surrogates linger forever.
    Duration reap_parked_after = Duration::zero();
    // Injects TCP-edge connection kills into every surrogate this
    // listener creates (reconnect stress tests). Not owned; must
    // outlive the listener.
    clf::FaultInjector* edge_faults = nullptr;
  };

  static Result<std::unique_ptr<Listener>> Start(core::Runtime& runtime,
                                                 const Options& options);
  static Result<std::unique_ptr<Listener>> Start(core::Runtime& runtime) {
    return Start(runtime, Options{});
  }
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  const transport::SockAddr& addr() const { return listener_.bound_addr(); }

  std::size_t surrogates_total() const;
  std::size_t surrogates_in(Surrogate::State state) const;
  std::uint64_t sessions_resumed() const { return sessions_resumed_.load(); }
  std::uint64_t sessions_migrated() const { return sessions_migrated_.load(); }
  // Surrogate Run threads not yet joined by the janitor (tests assert
  // reconnect churn does not accumulate exited threads).
  std::size_t run_threads() const;

  // Reaps every currently-parked surrogate immediately (regardless of
  // reap_parked_after); returns how many were reaped.
  std::size_t ReapParked();

  // Stops accepting, asks every surrogate to stop, joins threads.
  void Shutdown();

 private:
  explicit Listener(core::Runtime& runtime) : runtime_(runtime) {}
  void AcceptLoop();
  void Handshake(transport::TcpConnection conn);
  void HandleResume(transport::TcpConnection conn, std::uint64_t request_id,
                    const ResumeReq& resume);
  void JanitorLoop();
  // Picks a live (not stopped) address space; honours `preferred` when
  // it names a live one. Returns npos when the whole cluster is down.
  std::size_t PickLiveAs(std::int32_t preferred) DS_REQUIRES(mu_);
  // Dedicates a thread to one surrogate activation (join, resume or
  // migration). The thread is tracked with a done flag so the janitor
  // can join and drop it once Run() returns.
  void SpawnRun(Surrogate* surrogate);
  // Joins every Run thread whose surrogate finished; returns how many.
  std::size_t ReapFinishedThreads();

  // One Run thread per surrogate activation. A surrogate that resumes
  // or migrates gets a fresh activation, so under reconnect churn the
  // janitor must reap exited threads instead of accumulating them.
  struct RunThread {
    Thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  core::Runtime& runtime_;
  Options options_;
  transport::TcpListener listener_;
  std::string ns_name_;  // sys/listener/<port> advertisement

  // Protects the surrogate/thread registries and the join cursors.
  // Never held while calling into a surrogate or an address space.
  mutable ds::Mutex mu_{"listener.mu"};
  std::vector<std::unique_ptr<Surrogate>> surrogates_ DS_GUARDED_BY(mu_);
  std::vector<RunThread> threads_ DS_GUARDED_BY(mu_);
  std::uint64_t next_session_ DS_GUARDED_BY(mu_) = 1;
  std::size_t next_as_ DS_GUARDED_BY(mu_) = 0;  // round-robin cursor

  std::atomic<std::uint64_t> sessions_resumed_{0};
  std::atomic<std::uint64_t> sessions_migrated_{0};
  // Pull-provider registrations in AS 0's metrics registry (written in
  // Start before any thread exists, cleared once in Shutdown).
  std::vector<std::uint64_t> provider_tokens_;
  std::atomic<bool> stopping_{false};
  // Janitor pacing: WaitUntil instead of raw sleeps so Shutdown() can
  // interrupt the nap and virtual time drives the reap cadence.
  ds::Mutex janitor_mu_{"listener.janitor_mu"};
  ds::CondVar janitor_cv_;
  Thread accept_thread_;
  Thread janitor_thread_;
};

}  // namespace dstampede::client
