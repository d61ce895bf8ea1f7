// Federation (§6 future work, implemented): multiple heterogeneous
// clusters in one application — unique AsId ranges, cross-cluster STM
// routing, the federation-wide name server, distributed GC across
// cluster boundaries, end devices on different clusters' listeners,
// and dynamic growth.
#include <gtest/gtest.h>

#include <thread>

#include "dstampede/clf/endpoint.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/core/federation.hpp"

namespace dstampede::core {
namespace {

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Federation::Options opts;
    opts.clusters = {
        Federation::ClusterSpec{.num_address_spaces = 2},
        Federation::ClusterSpec{.num_address_spaces = 1,
                                .dispatcher_threads = 4},
    };
    auto fed = Federation::Create(opts);
    ASSERT_TRUE(fed.ok()) << fed.status();
    fed_ = std::move(fed).value();
  }

  Buffer Bytes(std::string_view s) { return Buffer(s.begin(), s.end()); }

  std::unique_ptr<Federation> fed_;
};

TEST_F(FederationTest, AsIdRangesAreDisjoint) {
  EXPECT_EQ(AsIndex(fed_->cluster(0).as(0).id()), 0u);
  EXPECT_EQ(AsIndex(fed_->cluster(0).as(1).id()), 1u);
  EXPECT_EQ(AsIndex(fed_->cluster(1).as(0).id()), 4096u);
}

TEST_F(FederationTest, CrossClusterPutGet) {
  // Channel in cluster 1; producer and consumer in cluster 0.
  auto ch = fed_->cluster(1).as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = fed_->cluster(0).as(0).Connect(*ch, ConnMode::kOutput);
  auto in = fed_->cluster(0).as(1).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok());
  Buffer payload(20000);
  FillPattern(payload, 5);
  ASSERT_TRUE(fed_->cluster(0).as(0).Put(*out, 1, payload).ok());
  auto item = fed_->cluster(0).as(1).Get(*in, GetSpec::Exact(1),
                                         Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_TRUE(CheckPattern(item->payload.span(), 5));
}

TEST_F(FederationTest, FederationWideNameServer) {
  auto ch = fed_->cluster(1).as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(fed_->cluster(1)
                  .as(0)
                  .NsRegister(NsEntry{"fed/ch", NsEntry::Kind::kChannel,
                                      ch->bits(), "on cluster 1"})
                  .ok());
  // Visible from cluster 0 (which hosts the NS) and its other AS.
  auto entry =
      fed_->cluster(0).as(1).NsLookup("fed/ch", Deadline::AfterMillis(5000));
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->id_bits, ch->bits());
}

TEST_F(FederationTest, CrossClusterGc) {
  auto ch = fed_->cluster(0).as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = fed_->cluster(0).as(1).Connect(*ch, ConnMode::kOutput);
  auto in = fed_->cluster(1).as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(fed_->cluster(0).as(1).Put(*out, 7, Bytes("x")).ok());
  auto channel = fed_->cluster(0).as(1).FindChannel(ch->bits());
  EXPECT_EQ(channel->live_items(), 1u);
  // The remote (other-cluster) consumer's consume drives reclamation.
  ASSERT_TRUE(fed_->cluster(1).as(0).Consume(*in, 7).ok());
  EXPECT_EQ(channel->live_items(), 0u);
}

TEST_F(FederationTest, EndDevicesOnDifferentClusters) {
  auto listener_a = client::Listener::Start(fed_->cluster(0));
  auto listener_b = client::Listener::Start(fed_->cluster(1));
  ASSERT_TRUE(listener_a.ok());
  ASSERT_TRUE(listener_b.ok());

  client::CClient::Options oa;
  oa.server = (*listener_a)->addr();
  oa.name = "producer@A";
  auto producer = client::CClient::Join(oa);
  ASSERT_TRUE(producer.ok());

  client::CClient::Options ob;
  ob.server = (*listener_b)->addr();
  ob.name = "consumer@B";
  auto consumer = client::CClient::Join(ob);
  ASSERT_TRUE(consumer.ok());

  auto ch = (*producer)->CreateChannel();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE((*producer)
                  ->NsRegister(NsEntry{"fed/stream", NsEntry::Kind::kChannel,
                                       ch->bits(), ""})
                  .ok());
  auto entry =
      (*consumer)->NsLookup("fed/stream", Deadline::AfterMillis(5000));
  ASSERT_TRUE(entry.ok()) << entry.status();

  auto out = (*producer)->Connect(*ch, ConnMode::kOutput);
  auto in = (*consumer)->Connect(ChannelId::FromBits(entry->id_bits),
                                 ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok()) << in.status();

  ASSERT_TRUE((*producer)->Put(*out, 1, Bytes("inter-cluster")).ok());
  auto item =
      (*consumer)->Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->payload.ToString(), "inter-cluster");

  (*listener_a)->Shutdown();
  (*listener_b)->Shutdown();
}

TEST_F(FederationTest, DynamicGrowthWiresAcrossClusters) {
  auto added = fed_->AddAddressSpace(1);
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(AsIndex((*added)->id()), 4097u);
  // The newcomer reaches a channel in cluster 0 and the global NS.
  auto ch = fed_->cluster(0).as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = (*added)->Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE((*added)->Put(*out, 1, Bytes("hi")).ok());
  EXPECT_TRUE((*added)
                  ->NsRegister(NsEntry{"dyn/fed", NsEntry::Kind::kOther, 0, ""})
                  .ok());
}

TEST(FederationValidationTest, RejectsBadOptions) {
  Federation::Options empty;
  EXPECT_EQ(Federation::Create(empty).status().code(),
            StatusCode::kInvalidArgument);
  Federation::Options oversized;
  oversized.as_id_stride = 2;
  oversized.clusters = {Federation::ClusterSpec{.num_address_spaces = 3}};
  EXPECT_EQ(Federation::Create(oversized).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FederationValidationTest, ThreeClusters) {
  Federation::Options opts;
  opts.clusters = {Federation::ClusterSpec{}, Federation::ClusterSpec{},
                   Federation::ClusterSpec{}};
  auto fed = Federation::Create(opts);
  ASSERT_TRUE(fed.ok());
  // A triangle route: channel on cluster 2, producer on 0, consumer on 1.
  auto ch = (*fed)->cluster(2).as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = (*fed)->cluster(0).as(0).Connect(*ch, ConnMode::kOutput);
  auto in = (*fed)->cluster(1).as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  Buffer b = {1, 2, 3};
  ASSERT_TRUE((*fed)->cluster(0).as(0).Put(*out, 1, b).ok());
  auto item = (*fed)->cluster(1).as(0).Get(*in, GetSpec::Exact(1),
                                           Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->payload.ToVector(), b);
}

TEST(FederationFailureTest, DeadClusterFailsFastAndPurgesItsNames) {
  // Edge fast-fail: with CLF failure detection enabled federation-wide,
  // an entire cluster going dark is (1) declared via IsClusterDown,
  // (2) purged from the name server, and (3) unreachable calls against
  // it fail kUnavailable immediately instead of waiting out deadlines.
  Federation::Options opts;
  opts.clusters = {Federation::ClusterSpec{.num_address_spaces = 2},
                   Federation::ClusterSpec{.num_address_spaces = 1}};
  opts.clf_max_retransmits = 5;
  opts.peer_keepalive_interval = Millis(25);
  opts.peer_timeout = Millis(150);
  auto created = Federation::Create(opts);
  ASSERT_TRUE(created.ok()) << created.status();
  auto& fed = *created;

  auto ch = fed->cluster(1).as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(fed->cluster(1)
                  .as(0)
                  .NsRegister(NsEntry{"fed/doomed", NsEntry::Kind::kChannel,
                                      ch->bits(), "on cluster 1"})
                  .ok());
  auto out = fed->cluster(0).as(0).Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(fed->IsClusterDown(1));
  EXPECT_FALSE(fed->IsClusterDown(0));

  fed->cluster(1).Shutdown();

  const TimePoint give_up = Now() + Millis(10000);
  while (!fed->IsClusterDown(1) && Now() < give_up) {
    std::this_thread::sleep_for(Millis(5));
  }
  ASSERT_TRUE(fed->IsClusterDown(1)) << "CLF never declared the cluster dead";
  EXPECT_EQ(fed->DeadSpacesIn(1), 1u);
  EXPECT_FALSE(fed->IsClusterDown(0));

  // Data calls toward the dead cluster fail fast, not after the wire
  // deadline.
  const TimePoint t0 = Now();
  Status put = fed->cluster(0).as(0).Put(*out, 1, Buffer{1, 2, 3},
                                         Deadline::AfterMillis(60000));
  EXPECT_EQ(put.code(), StatusCode::kUnavailable) << put;
  EXPECT_LT(Now() - t0, Millis(2000));

  // Its registrations are purged from the federation-wide name server.
  const TimePoint purge_give_up = Now() + Millis(5000);
  while (fed->cluster(0).as(0).NsLookup("fed/doomed").ok() &&
         Now() < purge_give_up) {
    std::this_thread::sleep_for(Millis(5));
  }
  EXPECT_EQ(fed->cluster(0).as(0).NsLookup("fed/doomed").status().code(),
            StatusCode::kNotFound);
}

TEST(FederationFailureTest, RevivedClusterIsNoLongerDown) {
  // The cluster-down verdict must not be sticky: once the dead space
  // comes back with a fresh CLF incarnation at its old address, the
  // peer-up observers un-count it and IsClusterDown flips back.
  Federation::Options opts;
  opts.clusters = {Federation::ClusterSpec{.num_address_spaces = 1},
                   Federation::ClusterSpec{.num_address_spaces = 1}};
  opts.clf_max_retransmits = 5;
  opts.peer_keepalive_interval = Millis(25);
  opts.peer_timeout = Millis(150);
  auto created = Federation::Create(opts);
  ASSERT_TRUE(created.ok()) << created.status();
  auto& fed = *created;

  const transport::SockAddr doomed_addr = fed->cluster(1).as(0).clf_addr();
  fed->cluster(1).Shutdown();
  const TimePoint give_up = Now() + Millis(10000);
  while (!fed->IsClusterDown(1) && Now() < give_up) {
    std::this_thread::sleep_for(Millis(5));
  }
  ASSERT_TRUE(fed->IsClusterDown(1)) << "CLF never declared the cluster dead";

  // A restarted node: a fresh CLF incarnation bound to the dead space's
  // address, probing a survivor. The epoch reset resurrects the peer.
  clf::Endpoint::Options ep_opts;
  ep_opts.port = doomed_addr.port;
  ep_opts.max_retransmits = 5;
  ep_opts.keepalive_interval = Millis(25);
  ep_opts.peer_timeout = Millis(150);
  metrics::Registry registry;
  auto revived = clf::Endpoint::Create(
      ep_opts, registry, [](const transport::SockAddr&, SharedBuffer) {});
  ASSERT_TRUE(revived.ok()) << revived.status();
  (*revived)->WatchPeer(fed->cluster(0).as(0).clf_addr());

  const TimePoint revive_give_up = Now() + Millis(10000);
  while (fed->IsClusterDown(1) && Now() < revive_give_up) {
    std::this_thread::sleep_for(Millis(5));
  }
  EXPECT_FALSE(fed->IsClusterDown(1)) << "revived cluster still shunned";
  EXPECT_EQ(fed->DeadSpacesIn(1), 0u);
  (*revived)->Shutdown();
}

}  // namespace
}  // namespace dstampede::core
