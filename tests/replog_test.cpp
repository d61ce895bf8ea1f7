// RepLog: leader-lease replication for the control plane. These tests
// wire N in-process RepLog instances to each other through lambda
// SendFns that call the target's wire handlers directly — the same
// frames AddressSpace would carry over CLF, minus the transport.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "dstampede/common/sync.hpp"
#include "dstampede/core/replog.hpp"

namespace dstampede::core {
namespace {

Buffer Payload(std::uint8_t tag) { return Buffer{tag}; }

class TestCluster {
 public:
  explicit TestCluster(std::size_t n, Duration lease = Millis(150),
                       Duration heartbeat = Millis(25)) {
    std::vector<AsId> replicas;
    for (std::size_t i = 0; i < n; ++i) {
      replicas.push_back(static_cast<AsId>(static_cast<std::uint32_t>(i)));
    }
    applied_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      RepLog::Options opts;
      opts.self = replicas[i];
      opts.replicas = replicas;
      opts.lease = lease;
      opts.heartbeat = heartbeat;
      opts.rpc_deadline = Millis(100);
      nodes_.push_back(std::make_unique<RepLog>(
          opts,
          [this, i](const Buffer& entry) {
            ds::MutexLock lock(mu_);
            applied_[i].push_back(entry);
          },
          [this, i](AsId target, Op op,
                    const std::function<void(marshal::XdrEncoder&)>& body,
                    Deadline) { return Dispatch(i, target, op, body); },
          [this](AsId peer) {
            ds::MutexLock lock(mu_);
            return dead_.count(peer) != 0;
          }));
    }
  }

  ~TestCluster() {
    for (auto& node : nodes_) node->Stop();
  }

  RepLog& node(std::size_t i) { return *nodes_[i]; }

  void StartAll() {
    for (auto& node : nodes_) node->Start();
  }

  // Declares a replica dead for the whole cluster: its sends and the
  // sends to it fail, peer_dead_ reports it, and (like CLF would) every
  // survivor gets the OnPeerDown signal.
  void Kill(std::size_t i) {
    {
      ds::MutexLock lock(mu_);
      dead_.insert(static_cast<AsId>(static_cast<std::uint32_t>(i)));
    }
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (j != i) {
        nodes_[j]->OnPeerDown(static_cast<AsId>(static_cast<std::uint32_t>(i)));
      }
    }
  }

  std::vector<Buffer> AppliedOn(std::size_t i) {
    ds::MutexLock lock(mu_);
    return applied_[i];
  }

 private:
  Result<SharedBuffer> Dispatch(
      std::size_t from, AsId target, Op op,
      const std::function<void(marshal::XdrEncoder&)>& body) {
    {
      ds::MutexLock lock(mu_);
      if (dead_.count(target) != 0 ||
          dead_.count(static_cast<AsId>(static_cast<std::uint32_t>(from))) !=
              0) {
        return UnavailableError("peer down");
      }
    }
    marshal::XdrEncoder req_enc;
    body(req_enc);
    const Buffer req_bytes = req_enc.Take();
    marshal::XdrDecoder dec(req_bytes);
    RepLog& callee = *nodes_[AsIndex(target)];
    marshal::XdrEncoder resp;
    if (op == Op::kRepAppend) {
      auto req = Decode<RepAppendReq>(dec);
      if (!req.ok()) return req.status();
      RepAppendAck ack;
      const Status s = callee.HandleAppend(*req, ack);
      EncodeResponseHeader(resp, 1, s);
      Encode(resp, ack);
    } else if (op == Op::kRepFetch) {
      auto req = Decode<RepFetchReq>(dec);
      if (!req.ok()) return req.status();
      const RepFetchResp fetched = callee.HandleFetch(*req);
      EncodeResponseHeader(resp, 1, OkStatus());
      Encode(resp, fetched);
    } else {
      return InvalidArgumentError("unexpected op");
    }
    return SharedBuffer(resp.Take());
  }

  std::vector<std::unique_ptr<RepLog>> nodes_;
  ds::Mutex mu_{"replog_test.mu"};
  std::vector<std::vector<Buffer>> applied_ DS_GUARDED_BY(mu_);
  std::set<AsId> dead_ DS_GUARDED_BY(mu_);
};

bool WaitFor(const std::function<bool()>& cond,
             Duration budget = Millis(5000)) {
  const Deadline give_up = Deadline::After(budget);
  while (!cond()) {
    if (give_up.expired()) return false;
    dstampede::SleepFor(Millis(5));
  }
  return true;
}

TEST(RepLogTest, BootstrapLeaderReplicatesAppends) {
  TestCluster cluster(3);
  // No ticker needed: the bootstrap leader asserts its first lease in
  // the constructor and each Append runs its own replication round.
  EXPECT_TRUE(cluster.node(0).IsLeader());
  EXPECT_FALSE(cluster.node(1).IsLeader());

  ASSERT_TRUE(cluster.node(0).Append(Payload(1)).ok());
  ASSERT_TRUE(cluster.node(0).Append(Payload(2)).ok());
  EXPECT_EQ(cluster.node(0).log_appends(), 2u);
  EXPECT_EQ(cluster.node(0).last_index(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto applied = cluster.AppliedOn(i);
    ASSERT_EQ(applied.size(), 2u) << "replica " << i;
    EXPECT_EQ(applied[0], Payload(1));
    EXPECT_EQ(applied[1], Payload(2));
  }
  EXPECT_EQ(cluster.node(0).replica_lag(), 0u);
}

TEST(RepLogTest, FollowerAppendRedirectsWithLeaderHint) {
  TestCluster cluster(3);
  const Status s = cluster.node(1).Append(Payload(9));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(RepLog::LeaderHintFromMessage(s.message()),
            static_cast<AsId>(0));
  EXPECT_EQ(RepLog::LeaderHintFromMessage("no hint here"), kInvalidAsId);
}

TEST(RepLogTest, FollowerLeaseTracksHeartbeats) {
  TestCluster cluster(3, /*lease=*/Millis(120), /*heartbeat=*/Millis(20));
  cluster.StartAll();
  // Heartbeats make every follower's local-read lease fresh.
  ASSERT_TRUE(WaitFor([&] { return cluster.node(1).LeaseFresh(); }));
  ASSERT_TRUE(WaitFor([&] { return cluster.node(2).LeaseFresh(); }));
  EXPECT_TRUE(cluster.node(0).IsLeader());
}

TEST(RepLogTest, DeterministicFailoverWithCatchUp) {
  TestCluster cluster(3, /*lease=*/Millis(120), /*heartbeat=*/Millis(20));
  ASSERT_TRUE(cluster.node(0).Append(Payload(1)).ok());
  ASSERT_TRUE(cluster.node(0).Append(Payload(2)).ok());
  cluster.StartAll();
  ASSERT_TRUE(WaitFor([&] { return cluster.node(1).LeaseFresh(); }));

  const std::uint64_t term_before = cluster.node(1).term();
  cluster.Kill(0);
  // Deterministic election: AS 1 is the first live replica, so it (and
  // only it) takes over; AS 2 keeps following.
  ASSERT_TRUE(WaitFor([&] { return cluster.node(1).IsLeader(); }));
  EXPECT_FALSE(cluster.node(2).IsLeader());
  EXPECT_GT(cluster.node(1).term(), term_before);
  EXPECT_GE(cluster.node(1).leader_changes(), 1u);

  // The new leader serves writes; the old leader's entries survived.
  ASSERT_TRUE(WaitFor([&] {
    return cluster.node(1).Append(Payload(3)).ok();
  }));
  EXPECT_EQ(cluster.node(1).last_index(), 3u);
  ASSERT_TRUE(WaitFor([&] { return cluster.AppliedOn(2).size() == 3u; }));
  EXPECT_EQ(cluster.AppliedOn(2)[2], Payload(3));
}

TEST(RepLogTest, NewLeaderFetchesEntriesItMissed) {
  TestCluster cluster(3, /*lease=*/Millis(120), /*heartbeat=*/Millis(20));
  ASSERT_TRUE(cluster.node(0).Append(Payload(1)).ok());
  // An entry that reached only AS 2 (AS 1's ack was lost / it lagged):
  // inject it through the wire handler, exactly as a backlog push
  // would arrive.
  RepAppendReq req;
  req.term = cluster.node(0).term();
  req.leader_as = 0;
  req.leader_last_index = 2;
  req.first_index = 2;
  req.entries.push_back(Payload(2));
  RepAppendAck ack;
  ASSERT_TRUE(cluster.node(2).HandleAppend(req, ack).ok());
  ASSERT_EQ(cluster.node(2).last_index(), 2u);
  ASSERT_EQ(cluster.node(1).last_index(), 1u);

  cluster.StartAll();
  cluster.Kill(0);
  // Before serving, the new leader must catch up from the survivors —
  // entry 2 exists only on AS 2.
  ASSERT_TRUE(WaitFor([&] { return cluster.node(1).IsLeader(); }));
  EXPECT_EQ(cluster.node(1).last_index(), 2u);
  const auto applied = cluster.AppliedOn(1);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[1], Payload(2));
}

TEST(RepLogTest, StaleLeaderIsFencedByTerm) {
  TestCluster cluster(3, /*lease=*/Millis(120), /*heartbeat=*/Millis(20));
  cluster.StartAll();
  ASSERT_TRUE(WaitFor([&] { return cluster.node(2).LeaseFresh(); }));
  cluster.Kill(0);
  ASSERT_TRUE(WaitFor([&] { return cluster.node(1).IsLeader(); }));
  // Node 2 rightly accepts a term-1 heartbeat until it hears of term 2.
  ASSERT_TRUE(WaitFor([&] { return cluster.node(2).term() >= 2; }));

  // A heartbeat from the deposed term-1 leader must be rejected and
  // told the new term.
  RepAppendReq stale;
  stale.term = 1;
  stale.leader_as = 0;
  stale.leader_last_index = 0;
  stale.first_index = 1;
  RepAppendAck ack;
  const Status s = cluster.node(2).HandleAppend(stale, ack);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(ack.term, 2u);
}

TEST(RepLogTest, MinorityPartitionNeverElects) {
  TestCluster cluster(3, /*lease=*/Millis(100), /*heartbeat=*/Millis(20));
  cluster.StartAll();
  ASSERT_TRUE(WaitFor([&] { return cluster.node(2).LeaseFresh(); }));
  // Both peers die: AS 2 is the rightful candidate but has no quorum,
  // so it must keep refusing to lead (and its reads go stale).
  cluster.Kill(0);
  cluster.Kill(1);
  dstampede::SleepFor(Millis(400));
  EXPECT_FALSE(cluster.node(2).IsLeader());
  EXPECT_FALSE(cluster.node(2).LeaseFresh());
}

// The election check reads replica liveness through a callback that,
// in an address space, takes the space's peer and CLF locks, so it must
// run without replog.mu held. The deadlock detector aborts a blocking
// check made under any lock not marked kBlockingAllowed.
TEST(RepLogTest, ElectionCheckReadsLivenessOutsideItsLock) {
  sync::SetDeadlockDetectionForTesting(true);
  struct DetectorOff {
    ~DetectorOff() { sync::SetDeadlockDetectionForTesting(false); }
  } detector_off;
  RepLog::Options opts;
  opts.self = static_cast<AsId>(1);
  opts.replicas = {static_cast<AsId>(0), static_cast<AsId>(1)};
  opts.lease = Millis(50);
  opts.heartbeat = Millis(10);
  opts.rpc_deadline = Millis(20);
  std::atomic<int> checks{0};
  RepLog follower(
      opts, [](const Buffer&) {},
      [](AsId, Op, const std::function<void(marshal::XdrEncoder&)>&,
         Deadline) -> Result<SharedBuffer> {
        return UnavailableError("no peers");
      },
      [&checks](AsId) {
        sync::AssertBlockingAllowed("peer-dead callback");
        ++checks;
        return false;
      });
  follower.Start();
  // The bootstrap leader never heartbeats, so once its lease runs out
  // every tick is an election check.
  dstampede::SleepFor(opts.lease * 4);
  follower.Stop();
  EXPECT_GT(checks.load(), 0);
  EXPECT_FALSE(follower.IsLeader());
}

}  // namespace
}  // namespace dstampede::core
