// Cluster failure detection & recovery: deterministic partitions in
// the fault injector, CLF peer-death declaration (retransmit budget,
// keepalive silence), epoch-based resurrection, and the AddressSpace
// recovery sequence (pending calls fail kUnavailable, dead-space
// connections detach so GC reclaims, name-server entries purge).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "clf_sink.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede::clf {
namespace {

// Polls until pred() holds or `timeout` passes.
template <typename Pred>
bool WaitFor(Pred pred, Duration timeout) {
  const TimePoint give_up = Now() + timeout;
  while (!pred()) {
    if (Now() >= give_up) return false;
    std::this_thread::sleep_for(Millis(5));
  }
  return true;
}

Endpoint::Options Detecting() {
  Endpoint::Options opts;
  opts.initial_rto = Millis(5);
  opts.max_rto = Millis(20);
  opts.max_retransmits = 5;
  opts.keepalive_interval = Millis(25);
  opts.peer_timeout = Millis(150);
  return opts;
}

SinkEndpoint MakeEndpoint(Endpoint::Options opts = {},
                          Endpoint::PeerEventCallback on_peer_down = nullptr,
                          Endpoint::PeerEventCallback on_peer_up = nullptr) {
  auto ep = CreateSinkEndpoint(opts, std::move(on_peer_down),
                               std::move(on_peer_up));
  EXPECT_TRUE(ep.ok()) << ep.status();
  return std::move(ep).value();
}

TEST(FaultInjectorPartitionTest, BlackholesUntilHealed) {
  FaultInjector inj;
  const auto peer = transport::SockAddr::Loopback(4242);
  const auto other = transport::SockAddr::Loopback(4243);
  EXPECT_FALSE(inj.active());

  inj.Partition(peer);
  EXPECT_TRUE(inj.active());
  EXPECT_TRUE(inj.IsPartitioned(peer));
  EXPECT_FALSE(inj.IsPartitioned(other));
  EXPECT_TRUE(inj.Filter(peer, Buffer{1, 2, 3}).empty());
  EXPECT_EQ(inj.Filter(other, Buffer{1, 2, 3}).size(), 1u);
  EXPECT_EQ(inj.blackholed(), 1u);

  inj.Heal(peer);
  EXPECT_FALSE(inj.active());
  EXPECT_EQ(inj.Filter(peer, Buffer{1, 2, 3}).size(), 1u);
}

TEST(FaultInjectorPartitionTest, TimeWindowedPartitionExpires) {
  FaultInjector inj;
  const auto peer = transport::SockAddr::Loopback(4242);
  inj.PartitionFor(peer, Millis(50));
  EXPECT_TRUE(inj.IsPartitioned(peer));
  EXPECT_TRUE(WaitFor([&] { return !inj.IsPartitioned(peer); }, Millis(2000)));
  EXPECT_EQ(inj.Filter(peer, Buffer{7}).size(), 1u);
  EXPECT_FALSE(inj.active());
}

TEST(FaultInjectorPartitionTest, HealAllClearsEveryPartition) {
  FaultInjector inj;
  inj.Partition(transport::SockAddr::Loopback(1));
  inj.Partition(transport::SockAddr::Loopback(2));
  EXPECT_TRUE(inj.active());
  inj.HealAll();
  EXPECT_FALSE(inj.active());
  EXPECT_FALSE(inj.IsPartitioned(transport::SockAddr::Loopback(1)));
}

TEST(ClfFailureTest, PartitionedPeerDeclaredDeadWithinBound) {
  std::atomic<bool> down_fired{false};
  auto a = MakeEndpoint(Detecting(), [&](const transport::SockAddr&) {
    down_fired = true;
  });
  auto b = MakeEndpoint(Detecting());

  // Healthy exchange first, so death is a state change, not a default.
  ASSERT_TRUE(a->Send(b->addr(), Buffer{1}).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_FALSE(down_fired.load());

  // Symmetric partition: data and acks both blackhole.
  a->fault_injector().Partition(b->addr());
  b->fault_injector().Partition(a->addr());

  const TimePoint start = Now();
  ASSERT_TRUE(a->Send(b->addr(), Buffer{2}).ok());  // handed to the wire
  ASSERT_TRUE(WaitFor([&] { return a->IsPeerDead(b->addr()); }, Millis(5000)))
      << "peer never declared dead";
  // Bound: 5 retransmits under a 20ms rto cap plus the 150ms silence
  // timeout, with generous scheduling slack.
  EXPECT_LT(Now() - start, Millis(5000));
  // The dead flag flips under the lock before the callback runs
  // outside it, so IsPeerDead() can be observed a beat ahead of the
  // notification: wait rather than sample.
  EXPECT_TRUE(WaitFor([&] { return down_fired.load(); }, Millis(2000)));
  EXPECT_GE(a.registry->GetCounter("clf.peers_declared_dead").Value(), 1u);

  // Further sends fail fast instead of hanging.
  Status send = a->Send(b->addr(), Buffer{3});
  EXPECT_EQ(send.code(), StatusCode::kUnavailable) << send;
}

TEST(ClfFailureTest, SilentWatchedPeerDeclaredDeadByKeepalive) {
  auto a = MakeEndpoint(Detecting());
  transport::SockAddr dead_addr;
  {
    auto b = MakeEndpoint();
    dead_addr = b->addr();
    b->Shutdown();
  }
  a->WatchPeer(dead_addr);  // no traffic ever flows
  ASSERT_TRUE(WaitFor([&] { return a->IsPeerDead(dead_addr); }, Millis(5000)));
  EXPECT_GE(a.registry->GetCounter("clf.keepalive_probes_sent").Value(), 1u);
}

TEST(ClfFailureTest, DeadPeerDropsPacketsWaitingForTheWindow) {
  Endpoint::Options opts = Detecting();
  opts.window_packets = 2;
  auto a = MakeEndpoint(opts);
  auto b = MakeEndpoint(Detecting());
  a->fault_injector().Partition(b->addr());
  b->fault_injector().Partition(a->addr());

  // Nine fragments: two go to the wire, seven queue behind the window.
  const Buffer nine_fragments(8 * 60000 + 1000);
  ASSERT_TRUE(a->Send(b->addr(), nine_fragments).ok())
      << "a Send past the window must not wait for it";
  EXPECT_EQ(a.registry->GetCounter("clf.data_packets_sent").Value(), 2u);

  ASSERT_TRUE(WaitFor([&] { return a->IsPeerDead(b->addr()); }, Millis(5000)))
      << "peer never declared dead";
  // Death dropped the queued fragments with the rest of the ARQ state;
  // none of them was sent.
  EXPECT_EQ(a.registry->GetCounter("clf.data_packets_sent").Value(), 2u);
  Status send = a->Send(b->addr(), Buffer{1});
  EXPECT_EQ(send.code(), StatusCode::kUnavailable) << send;
}

TEST(ClfFailureTest, RestartedPeerResurrectsWithNewEpoch) {
  std::atomic<bool> up_fired{false};
  auto a = MakeEndpoint(Detecting(), nullptr,
                        [&](const transport::SockAddr&) { up_fired = true; });
  std::uint16_t port = 0;
  std::uint32_t first_epoch = 0;
  {
    auto b1 = MakeEndpoint(Detecting());
    port = b1->addr().port;
    first_epoch = b1->epoch();
    ASSERT_TRUE(b1->Send(a->addr(), Buffer{1}).ok());
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(a.Next(got, from, Deadline::AfterMillis(5000)).ok());
    b1->Shutdown();
  }
  const auto b_addr = transport::SockAddr::Loopback(port);
  ASSERT_TRUE(WaitFor([&] { return a->IsPeerDead(b_addr); }, Millis(5000)))
      << "silence after shutdown should kill the peer";
  EXPECT_FALSE(up_fired.load());

  // Same port, fresh incarnation.
  Endpoint::Options opts = Detecting();
  opts.port = port;
  auto b2 = MakeEndpoint(opts);
  ASSERT_NE(b2->epoch(), first_epoch);
  ASSERT_TRUE(b2->Send(a->addr(), Buffer{4, 2}).ok());

  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(a.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(got, (Buffer{4, 2}));
  EXPECT_TRUE(WaitFor([&] { return !a->IsPeerDead(b_addr); }, Millis(1000)));
  EXPECT_TRUE(up_fired.load());
  EXPECT_GE(a.registry->GetCounter("clf.peers_resurrected").Value(), 1u);

  // And the reverse direction works against the new incarnation.
  ASSERT_TRUE(a->Send(b_addr, Buffer{9}).ok());
  ASSERT_TRUE(b2.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(got, (Buffer{9}));
}

}  // namespace
}  // namespace dstampede::clf

namespace dstampede::core {
namespace {

using clf::WaitFor;

Runtime::Options DetectingRuntime(std::size_t n) {
  Runtime::Options opts;
  opts.num_address_spaces = n;
  opts.clf_max_retransmits = 5;
  opts.peer_keepalive_interval = Millis(25);
  opts.peer_timeout = Millis(150);
  return opts;
}

// Cuts the link between two address spaces in both directions, so
// neither data nor acks nor probes cross: a true network partition.
void PartitionPair(AddressSpace& x, AddressSpace& y) {
  x.fault_injector().Partition(y.clf_addr());
  y.fault_injector().Partition(x.clf_addr());
}

TEST(RuntimeFailureTest, PendingCallFailsUnavailableWithinBound) {
  auto rt = Runtime::Create(DetectingRuntime(2));
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto ch = (*rt)->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = (*rt)->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok()) << in.status();

  // A Get blocked at the remote owner, far from its wire deadline.
  Status blocked_result = OkStatus();
  std::thread blocked([&] {
    auto item =
        (*rt)->as(0).Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(60000));
    blocked_result = item.status();
  });
  std::this_thread::sleep_for(Millis(100));  // let the request land

  const TimePoint cut = Now();
  PartitionPair((*rt)->as(0), (*rt)->as(1));
  blocked.join();
  EXPECT_EQ(blocked_result.code(), StatusCode::kUnavailable) << blocked_result;
  EXPECT_LT(Now() - cut, Millis(10000)) << "death must beat the 60s deadline";
  EXPECT_TRUE((*rt)->as(0).IsPeerDown((*rt)->as(1).id()));

  // New calls fail fast, they don't wait out a timeout.
  const TimePoint t0 = Now();
  auto late = (*rt)->as(0).Get(*in, GetSpec::Exact(2), Deadline::AfterMillis(60000));
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(Now() - t0, Millis(1000));
}

TEST(RuntimeFailureTest, GcReclaimsItemsHeldOnlyByDeadSpace) {
  auto rt = Runtime::Create(DetectingRuntime(2));
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& owner = (*rt)->as(0);
  AddressSpace& doomed = (*rt)->as(1);

  auto ch = owner.CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = owner.Connect(*ch, ConnMode::kOutput);
  auto local_in = owner.Connect(*ch, ConnMode::kInput);
  auto remote_in = doomed.Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(local_in.ok());
  ASSERT_TRUE(remote_in.ok()) << remote_in.status();

  ASSERT_TRUE(owner.Put(*out, 1, Buffer{1, 2, 3}).ok());
  ASSERT_TRUE(owner.Consume(*local_in, 1).ok());
  auto channel = owner.FindChannel(ch->bits());
  ASSERT_NE(channel, nullptr);
  ASSERT_EQ(channel->live_items(), 1u)
      << "the remote connection still claims the item";

  PartitionPair(owner, doomed);
  ASSERT_TRUE(WaitFor([&] { return owner.IsPeerDown(doomed.id()); },
                      Millis(10000)));
  // Recovery detached the dead space's slot; the item has no remaining
  // unconsumed input connection, so that detach reclaims it.
  EXPECT_TRUE(WaitFor([&] { return channel->live_items() == 0; },
                      Millis(5000)))
      << "item still live after peer death";
}

TEST(RuntimeFailureTest, NameServerEntriesPurgedOnOwnerDeath) {
  auto rt = Runtime::Create(DetectingRuntime(2));
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& ns_host = (*rt)->as(0);
  AddressSpace& doomed = (*rt)->as(1);

  ASSERT_TRUE(
      doomed.NsRegister(NsEntry{"doomed/svc", NsEntry::Kind::kOther, 0, ""})
          .ok());
  ASSERT_TRUE(
      ns_host.NsRegister(NsEntry{"stable/svc", NsEntry::Kind::kOther, 0, ""})
          .ok());
  auto before = ns_host.NsLookup("doomed/svc");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->owner_as, doomed.id()) << "registration must be stamped";

  PartitionPair(ns_host, doomed);
  ASSERT_TRUE(WaitFor([&] { return ns_host.IsPeerDown(doomed.id()); },
                      Millis(10000)));
  EXPECT_TRUE(WaitFor(
      [&] { return !ns_host.NsLookup("doomed/svc").ok(); }, Millis(5000)))
      << "dead space's name still resolvable";
  EXPECT_TRUE(ns_host.NsLookup("stable/svc").ok())
      << "survivor's name must remain";
}

TEST(RuntimeFailureTest, InternalRpcDeadlineIsConfigurable) {
  // Without failure detection, a partitioned control-plane RPC runs
  // into the configured internal deadline instead of the 10s default.
  Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.internal_rpc_deadline = Millis(100);
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto ch = (*rt)->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = (*rt)->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());

  PartitionPair((*rt)->as(0), (*rt)->as(1));
  const TimePoint t0 = Now();
  Status s = (*rt)->as(0).Consume(*in, 1);
  EXPECT_EQ(s.code(), StatusCode::kTimeout) << s;
  // 100ms wire deadline + the fixed transport slack; far below the
  // 10s + slack the old hard-coded deadline produced.
  EXPECT_LT(Now() - t0, Millis(9000));
}

}  // namespace
}  // namespace dstampede::core
