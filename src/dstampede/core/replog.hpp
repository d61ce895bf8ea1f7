// Leader-lease replication log for the control plane (name server +
// session registry). Three address spaces each hold a full NameServer
// replica; every mutation is a log entry appended by the current
// leader and applied in index order on every replica through
// NameServer::Apply, so all replicas converge on the same state.
//
// The protocol is deliberately small — no external deps, no persistent
// storage (a restarted replica is a new member that catches up):
//
//  - Roles. The configured replica list is sorted; the first replica
//    not known dead is the rightful leader. Elections are therefore
//    deterministic: when a follower's lease on the current leader
//    expires (no heartbeat within `lease`, typically because CLF
//    declared the leader dead — `OnPeerDown`), it computes the first
//    live replica; if that is itself, it bumps the term, catches up
//    from the surviving replicas (kRepFetch), and starts
//    heartbeating. Term numbers fence stale leaders: a deposed leader
//    whose append reaches a replica with a higher term is rejected
//    and steps down.
//
//  - Appends. The leader serializes appends (one pipeline at a time),
//    applies locally, then pushes the entry to every live replica
//    (kRepAppend) and requires a majority of acks before reporting
//    success. A follower that acks behind the leader's last index is
//    caught up with a backlog push in the same round. Followers apply
//    entries strictly in index order; CLF's exactly-once-in-order
//    delivery keeps the common path gap-free.
//
//  - Leases. A majority-acked round (append or heartbeat) renews the
//    leader's lease; a leader that cannot reach a majority for
//    `lease` steps down, which bounds split-brain: a minority-side
//    leader stops serving before the majority side elects. Reads are
//    served locally on any replica but only while its lease view is
//    fresh (leader: unexpired lease; follower: heard the leader
//    within `lease`) — `LeaseFresh()` is the freshness check the
//    AddressSpace read path consults before answering from the local
//    replica.
//
// Known limitations (docs/FAILURES.md): entries a deposed leader
// applied locally but never got quorum for are not rolled back (the
// next election supersedes them silently), and the in-memory log is
// unbounded — both acceptable for a control plane whose mutation rate
// is session/registration churn, not data traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/core/wire.hpp"
#include "dstampede/marshal/xdr.hpp"

namespace dstampede::core {

class RepLog {
 public:
  struct Options {
    AsId self = kInvalidAsId;
    // Sorted ascending; replicas[0] is the bootstrap leader. Must
    // contain `self`.
    std::vector<AsId> replicas;
    // Leader validity window. A follower that has not heard a
    // heartbeat for this long starts an election; a leader that has
    // not majority-acked a round for this long steps down.
    Duration lease = Millis(1200);
    // Leader heartbeat cadence (also the follower election-check
    // cadence). Must be well under `lease`.
    Duration heartbeat = Millis(300);
    // Per-replica deadline for one append/fetch RPC.
    Duration rpc_deadline = Millis(600);
  };

  // Applies one committed log entry (an encoded NsMutation) to the
  // local state machine. Called in strict index order, possibly from
  // the ticker thread, a dispatcher thread, or an appender.
  using ApplyFn = std::function<void(const Buffer& entry)>;
  // Sends one framed replication request to a peer replica and returns
  // the raw response frame. The callee owns request-id assignment and
  // transport (AddressSpace::Call underneath).
  using SendFn = std::function<Result<SharedBuffer>(
      AsId target, Op op, const std::function<void(marshal::XdrEncoder&)>& body,
      Deadline deadline)>;
  // True when CLF has declared the replica dead (election input).
  using PeerDeadFn = std::function<bool(AsId)>;

  RepLog(Options options, ApplyFn apply, SendFn send, PeerDeadFn peer_dead);
  ~RepLog();

  RepLog(const RepLog&) = delete;
  RepLog& operator=(const RepLog&) = delete;

  // Starts the ticker (heartbeats when leader, election checks when
  // follower). The bootstrap leader asserts its first lease on the
  // first tick.
  void Start();
  void Stop();

  // Invoked (off-lock, ticker thread) after this replica wins an
  // election — the address space re-drives dead-peer purges through
  // the new leader's log.
  void set_on_became_leader(std::function<void()> fn) {
    on_became_leader_ = std::move(fn);
  }

  // --- write path ------------------------------------------------------
  // Leader: appends, applies locally, replicates, and requires a
  // majority of acks. Followers return kUnavailable with a
  // "leader=<id>" hint (see LeaderHintFromMessage).
  Status Append(Buffer entry);

  // --- read-path freshness --------------------------------------------
  bool IsLeader() const;
  AsId leader() const;
  std::uint64_t term() const;
  // True while this replica may answer reads from its local state:
  // the leader inside its lease, or a follower that heard the leader
  // within the lease window.
  bool LeaseFresh() const;

  // --- wire handlers (AddressSpace dispatch) ---------------------------
  // Returns the ack to send (also when rejecting a stale term — the
  // status carries the rejection, the ack carries our term).
  Status HandleAppend(const RepAppendReq& req, RepAppendAck& ack);
  RepFetchResp HandleFetch(const RepFetchReq& req) const;

  // --- liveness inputs -------------------------------------------------
  void OnPeerDown(AsId peer);

  // --- observability ---------------------------------------------------
  std::uint64_t leader_changes() const {
    return leader_changes_.load(std::memory_order_relaxed);
  }
  std::uint64_t log_appends() const {
    return log_appends_.load(std::memory_order_relaxed);
  }
  std::uint64_t last_index() const;
  // Leader: entries the slowest contacted replica still misses.
  // Follower: entries this replica knows the leader has that it has
  // not applied yet. 0 when in sync.
  std::uint64_t replica_lag() const;

  // Extracts the numeric id from a "not leader; leader=<id>" hint;
  // kInvalidAsId when absent.
  static AsId LeaderHintFromMessage(const std::string& message);

 private:
  struct LogEntry {
    std::uint64_t term = 0;
    Buffer payload;
  };

  std::size_t QuorumLocked() const DS_REQUIRES(mu_);
  Status NotLeaderLocked() const DS_REQUIRES(mu_);
  // Applies `entry` at applied_+1 and advances. Caller guarantees
  // index order.
  void ApplyLocked(std::uint64_t entry_term, Buffer payload)
      DS_REQUIRES(mu_);
  // One replication round: pushes `fresh` (possibly empty = heartbeat)
  // plus any per-follower backlog, collects acks, renews or drops the
  // lease. Returns true when a majority (self included) acked.
  bool ReplicateRound();
  void TickerMain();
  void MaybeElect();
  void BecomeLeader();

  const Options options_;
  const ApplyFn apply_;
  const SendFn send_;
  const PeerDeadFn peer_dead_;
  std::function<void()> on_became_leader_;

  // Serializes append pipelines end-to-end (assign -> apply ->
  // replicate -> ack count); held across blocking replica RPCs by
  // design.
  ds::Mutex append_mu_{"replog.append_mu", ds::Mutex::kBlockingAllowed};

  mutable ds::Mutex mu_{"replog.mu"};
  std::uint64_t term_ DS_GUARDED_BY(mu_) = 1;
  AsId leader_ DS_GUARDED_BY(mu_) = kInvalidAsId;
  std::vector<LogEntry> log_ DS_GUARDED_BY(mu_);  // log_[i] = index i+1
  std::uint64_t applied_ DS_GUARDED_BY(mu_) = 0;
  TimePoint lease_until_ DS_GUARDED_BY(mu_){};          // leader lease
  TimePoint last_leader_contact_ DS_GUARDED_BY(mu_){};  // follower lease
  std::uint64_t leader_last_index_ DS_GUARDED_BY(mu_) = 0;
  // Leader's view of each follower's applied index.
  std::map<AsId, std::uint64_t> follower_applied_ DS_GUARDED_BY(mu_);
  // Replicas ever successfully contacted (quorum denominator grows as
  // the cluster bootstraps; never shrinks — a dead member still counts
  // against the majority).
  std::set<AsId> contacted_ DS_GUARDED_BY(mu_);
  std::set<AsId> down_ DS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> leader_changes_{0};
  std::atomic<std::uint64_t> log_appends_{0};

  ds::Mutex tick_mu_{"replog.tick_mu"};
  ds::CondVar tick_cv_;
  bool stopping_ DS_GUARDED_BY(tick_mu_) = false;
  bool tick_now_ DS_GUARDED_BY(tick_mu_) = false;
  Thread ticker_;
};

}  // namespace dstampede::core
