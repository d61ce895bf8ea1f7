#include "dstampede/core/replog.hpp"

#include <algorithm>
#include <utility>

#include "dstampede/common/logging.hpp"

namespace dstampede::core {

RepLog::RepLog(Options options, ApplyFn apply, SendFn send,
               PeerDeadFn peer_dead)
    : options_(std::move(options)),
      apply_(std::move(apply)),
      send_(std::move(send)),
      peer_dead_(std::move(peer_dead)) {
  ds::MutexLock lock(mu_);
  leader_ = options_.replicas.empty() ? options_.self : options_.replicas[0];
  contacted_.insert(options_.self);
  // Everyone starts agreeing on the bootstrap leader; followers give
  // it one full lease before contesting, the leader asserts its first
  // lease optimistically (renewed or dropped by the first round).
  last_leader_contact_ = Now();
  if (leader_ == options_.self) lease_until_ = Now() + options_.lease;
}

RepLog::~RepLog() { Stop(); }

void RepLog::Start() {
  ds::MutexLock lock(tick_mu_);
  if (ticker_.joinable() || stopping_) return;
  ticker_ = Thread([this] { TickerMain(); });
}

void RepLog::Stop() {
  {
    ds::MutexLock lock(tick_mu_);
    if (stopping_) {
      if (!ticker_.joinable()) return;
    }
    stopping_ = true;
  }
  tick_cv_.NotifyAll();
  if (ticker_.joinable()) ticker_.join();
}

std::size_t RepLog::QuorumLocked() const {
  return contacted_.size() / 2 + 1;
}

Status RepLog::NotLeaderLocked() const {
  if (leader_ == kInvalidAsId || leader_ == options_.self) {
    return UnavailableError("not leader; leader=none");
  }
  return UnavailableError("not leader; leader=" +
                          std::to_string(AsIndex(leader_)));
}

void RepLog::ApplyLocked(std::uint64_t entry_term, Buffer payload) {
  log_.push_back(LogEntry{entry_term, payload});
  applied_ = log_.size();
  log_appends_.fetch_add(1, std::memory_order_relaxed);
  apply_(payload);
}

bool RepLog::ReplicateRound() {
  struct Push {
    AsId target = kInvalidAsId;
    RepAppendReq req;
  };
  std::vector<Push> pushes;
  {
    ds::MutexLock lock(mu_);
    if (leader_ != options_.self) return false;
    for (AsId replica : options_.replicas) {
      if (replica == options_.self || down_.count(replica) != 0) continue;
      Push push;
      push.target = replica;
      push.req.term = term_;
      push.req.leader_as = AsIndex(options_.self);
      push.req.leader_last_index = applied_;
      // Push this follower's backlog (bounded per round; the next
      // round continues). An uncontacted follower starts from 0 and
      // dedups on its side by index.
      auto it = follower_applied_.find(replica);
      const std::uint64_t start = it != follower_applied_.end() ? it->second : 0;
      push.req.first_index = start + 1;
      const std::uint64_t limit = std::min<std::uint64_t>(applied_, start + 256);
      for (std::uint64_t idx = start + 1; idx <= limit; ++idx) {
        push.req.entries.push_back(log_[idx - 1].payload);
      }
      pushes.push_back(std::move(push));
    }
  }

  std::size_t acks = 1;  // self
  for (auto& push : pushes) {
    auto response = send_(push.target, Op::kRepAppend, BodyOf(push.req),
                          Deadline::After(options_.rpc_deadline));
    if (!response.ok()) continue;
    marshal::XdrDecoder dec(*response);
    auto header = DecodeResponseHeader(dec);
    if (!header.ok()) continue;
    auto ack = Decode<RepAppendAck>(dec);
    if (ack.ok() && ack->term > push.req.term) {
      // A newer leader exists somewhere: step down immediately.
      ds::MutexLock lock(mu_);
      if (ack->term > term_) {
        term_ = ack->term;
        leader_ = kInvalidAsId;
        lease_until_ = TimePoint::min();
        leader_changes_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    if (!header->status.ok()) continue;
    ++acks;
    ds::MutexLock lock(mu_);
    contacted_.insert(push.target);
    if (ack.ok()) follower_applied_[push.target] = ack->applied_index;
  }

  ds::MutexLock lock(mu_);
  if (leader_ != options_.self) return false;
  if (acks >= QuorumLocked()) {
    lease_until_ = Now() + options_.lease;
    last_leader_contact_ = Now();
    return true;
  }
  if (Now() >= lease_until_) {
    // Could not reach a majority for a whole lease: a majority-side
    // election may have superseded us. Stop serving.
    DS_LOG(kWarn) << "replog AS" << AsIndex(options_.self)
                  << ": lease lost at term " << term_ << ", stepping down";
    leader_ = kInvalidAsId;
    leader_changes_.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void RepLog::TickerMain() {
  for (;;) {
    {
      ds::MutexLock lock(tick_mu_);
      if (!stopping_ && !tick_now_) {
        tick_cv_.WaitUntil(tick_mu_, Deadline::After(options_.heartbeat));
      }
      if (stopping_) return;
      tick_now_ = false;
    }
    bool leading;
    {
      ds::MutexLock lock(mu_);
      leading = leader_ == options_.self;
    }
    if (leading) {
      ds::MutexLock pipeline(append_mu_);
      ReplicateRound();
    } else {
      MaybeElect();
    }
  }
}

void RepLog::MaybeElect() {
  // Refresh liveness from CLF (a peer may have been declared dead
  // without traffic through OnPeerDown yet). Read it before taking
  // mu_: in an address space the callback takes the space's peer and
  // CLF locks, and mu_ is a leaf.
  std::vector<AsId> dead;
  for (AsId replica : options_.replicas) {
    if (replica != options_.self && peer_dead_(replica)) {
      dead.push_back(replica);
    }
  }
  {
    ds::MutexLock lock(mu_);
    if (leader_ == options_.self) return;
    if (Now() < last_leader_contact_ + options_.lease) return;
    down_.insert(dead.begin(), dead.end());
    // Deterministic rule: the first live replica is the rightful
    // leader. If that is someone else (possibly the current leader,
    // merely slow), wait for its heartbeat rather than duel.
    AsId candidate = kInvalidAsId;
    for (AsId replica : options_.replicas) {
      if (down_.count(replica) == 0) {
        candidate = replica;
        break;
      }
    }
    if (candidate != options_.self) return;
    // Don't claim a term we cannot defend: a minority partition
    // would churn terms without ever renewing a lease. The bar is a
    // majority of the *configured* replica set — the contacted-set
    // quorum (QuorumLocked) is a bootstrap affordance for the seed
    // leader and would read as 1 on a replica that never led.
    std::size_t live = 0;
    for (AsId replica : options_.replicas) {
      if (down_.count(replica) == 0) ++live;
    }
    if (live < options_.replicas.size() / 2 + 1) return;
  }
  BecomeLeader();
}

void RepLog::BecomeLeader() {
  {
    ds::MutexLock pipeline(append_mu_);
    std::vector<AsId> peers;
    std::uint64_t from_index;
    {
      ds::MutexLock lock(mu_);
      if (leader_ == options_.self) return;
      from_index = applied_ + 1;
      for (AsId replica : options_.replicas) {
        if (replica != options_.self && down_.count(replica) == 0) {
          peers.push_back(replica);
        }
      }
    }

    // Catch up from every surviving replica before serving: the old
    // leader may have replicated entries we never saw.
    for (AsId peer : peers) {
      RepFetchReq fetch;
      fetch.from_index = from_index;
      auto resp = DecodeReply(
          send_(peer, Op::kRepFetch, BodyOf(fetch),
                Deadline::After(options_.rpc_deadline)),
          Decode<RepFetchResp, marshal::XdrDecoder>);
      if (!resp.ok()) continue;
      ds::MutexLock lock(mu_);
      if (resp->term > term_) term_ = resp->term;
      for (std::size_t i = 0; i < resp->entries.size(); ++i) {
        const std::uint64_t idx = resp->first_index + i;
        if (idx == applied_ + 1) {
          ApplyLocked(term_, std::move(resp->entries[i]));
        }
      }
      contacted_.insert(peer);
      from_index = applied_ + 1;
    }

    {
      ds::MutexLock lock(mu_);
      ++term_;
      leader_ = options_.self;
      // First lease comes from the announcement round below.
      lease_until_ = TimePoint::min();
      leader_changes_.fetch_add(1, std::memory_order_relaxed);
      DS_LOG(kInfo) << "replog AS" << AsIndex(options_.self)
                    << ": elected leader at term " << term_;
    }
    ReplicateRound();
  }
  // Outside the pipeline lock: the callback re-drives purges through
  // Append, which takes it again.
  if (on_became_leader_) on_became_leader_();
}

Status RepLog::Append(Buffer entry) {
  ds::MutexLock pipeline(append_mu_);
  {
    ds::MutexLock lock(mu_);
    if (leader_ != options_.self) return NotLeaderLocked();
    ApplyLocked(term_, std::move(entry));
  }
  if (ReplicateRound()) return OkStatus();
  {
    ds::MutexLock lock(mu_);
    // The lease may still be fresh (one slow follower, quorum of a
    // larger round pending); the entry is applied locally and the
    // next round pushes the backlog.
    if (leader_ == options_.self && Now() < lease_until_) return OkStatus();
  }
  return UnavailableError("ns replication lost quorum");
}

bool RepLog::IsLeader() const {
  ds::MutexLock lock(mu_);
  return leader_ == options_.self;
}

AsId RepLog::leader() const {
  ds::MutexLock lock(mu_);
  return leader_;
}

std::uint64_t RepLog::term() const {
  ds::MutexLock lock(mu_);
  return term_;
}

bool RepLog::LeaseFresh() const {
  ds::MutexLock lock(mu_);
  if (leader_ == options_.self) return Now() < lease_until_;
  if (leader_ == kInvalidAsId) return false;
  return Now() < last_leader_contact_ + options_.lease;
}

Status RepLog::HandleAppend(const RepAppendReq& req, RepAppendAck& ack) {
  const AsId req_leader = static_cast<AsId>(req.leader_as);
  ds::MutexLock lock(mu_);
  ack.term = term_;
  ack.applied_index = applied_;
  if (req.term < term_) {
    return FailedPreconditionError("stale term");
  }
  if (req.term == term_ && leader_ != kInvalidAsId && leader_ != req_leader) {
    // Same-term conflict (should not happen under deterministic
    // election); keep the incumbent.
    return FailedPreconditionError("conflicting leader");
  }
  if (term_ != req.term || leader_ != req_leader) {
    if (leader_ != req_leader) {
      leader_changes_.fetch_add(1, std::memory_order_relaxed);
    }
    term_ = req.term;
    leader_ = req_leader;
  }
  last_leader_contact_ = Now();
  leader_last_index_ = req.leader_last_index;
  contacted_.insert(req_leader);
  for (std::size_t i = 0; i < req.entries.size(); ++i) {
    const std::uint64_t idx = req.first_index + i;
    if (idx <= applied_) continue;  // duplicate (re-push after an ack loss)
    if (idx != applied_ + 1) break;  // gap; the ack triggers a backlog push
    ApplyLocked(req.term, req.entries[i]);
  }
  ack.term = term_;
  ack.applied_index = applied_;
  return OkStatus();
}

RepFetchResp RepLog::HandleFetch(const RepFetchReq& req) const {
  ds::MutexLock lock(mu_);
  RepFetchResp resp;
  resp.term = term_;
  resp.applied_index = applied_;
  const std::uint64_t from = std::max<std::uint64_t>(req.from_index, 1);
  resp.first_index = from;
  for (std::uint64_t idx = from; idx <= applied_; ++idx) {
    resp.entries.push_back(log_[idx - 1].payload);
  }
  return resp;
}

void RepLog::OnPeerDown(AsId peer) {
  bool poke = false;
  {
    ds::MutexLock lock(mu_);
    bool member = false;
    for (AsId replica : options_.replicas) member = member || replica == peer;
    if (!member) return;
    down_.insert(peer);
    if (peer == leader_) {
      // Expire the follower lease so the next tick elects instead of
      // waiting out a leader that can never speak again (CLF death is
      // permanent per epoch).
      last_leader_contact_ = TimePoint::min();
      poke = true;
    }
  }
  if (poke) {
    {
      ds::MutexLock lock(tick_mu_);
      tick_now_ = true;
    }
    tick_cv_.NotifyAll();
  }
}

std::uint64_t RepLog::last_index() const {
  ds::MutexLock lock(mu_);
  return applied_;
}

std::uint64_t RepLog::replica_lag() const {
  ds::MutexLock lock(mu_);
  if (leader_ == options_.self) {
    std::uint64_t lag = 0;
    for (AsId replica : contacted_) {
      if (replica == options_.self || down_.count(replica) != 0) continue;
      auto it = follower_applied_.find(replica);
      const std::uint64_t got = it != follower_applied_.end() ? it->second : 0;
      lag = std::max(lag, applied_ - std::min(applied_, got));
    }
    return lag;
  }
  return leader_last_index_ - std::min(leader_last_index_, applied_);
}

AsId RepLog::LeaderHintFromMessage(const std::string& message) {
  const auto pos = message.find("leader=");
  if (pos == std::string::npos) return kInvalidAsId;
  const char* p = message.c_str() + pos + 7;
  if (*p < '0' || *p > '9') return kInvalidAsId;
  std::uint64_t value = 0;
  while (*p >= '0' && *p <= '9') value = value * 10 + (*p++ - '0');
  if (value >= 0xffffffffu) return kInvalidAsId;
  return static_cast<AsId>(static_cast<std::uint32_t>(value));
}

}  // namespace dstampede::core
