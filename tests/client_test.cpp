// Client library + listener + surrogate integration: joining, STM ops
// from an end device, cross-AS routing through the surrogate, GC-notice
// piggybacking, C/Java interop, clean leave vs parked surrogate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dstampede/client/java_client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede::client {
namespace {

using core::ConnMode;
using core::GetSpec;
using core::NsEntry;

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
    auto listener = Listener::Start(*rt_);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
  }

  void TearDown() override {
    if (listener_) listener_->Shutdown();
    if (rt_) rt_->Shutdown();
  }

  std::unique_ptr<CClient> JoinC(std::int32_t preferred_as = -1,
                                 const std::string& name = "dev") {
    CClient::Options opts;
    opts.server = listener_->addr();
    opts.name = name;
    opts.preferred_as = preferred_as;
    auto client = CClient::Join(opts);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  Buffer Bytes(std::string_view s) { return Buffer(s.begin(), s.end()); }

  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(ClientTest, JoinAssignsSurrogateAndHostAs) {
  auto client = JoinC();
  EXPECT_NE(client->session_id(), 0u);
  EXPECT_LT(AsIndex(client->host_as()), rt_->size());
  EXPECT_EQ(listener_->surrogates_total(), 1u);
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kActive), 1u);
}

TEST_F(ClientTest, PreferredAsHonored) {
  auto client = JoinC(/*preferred_as=*/1);
  EXPECT_EQ(AsIndex(client->host_as()), 1u);
}

TEST_F(ClientTest, RoundRobinAssignment) {
  auto a = JoinC();
  auto b = JoinC();
  EXPECT_NE(AsIndex(a->host_as()), AsIndex(b->host_as()));
}

TEST_F(ClientTest, ClientCreatesChannelInHostAs) {
  auto client = JoinC(/*preferred_as=*/0);
  auto ch = client->CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  EXPECT_EQ(AsIndex(ch->owner()), 0u);
  EXPECT_NE(rt_->as(0).FindChannel(ch->bits()), nullptr);
}

TEST_F(ClientTest, PutGetThroughSurrogate) {
  auto client = JoinC();
  auto ch = client->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = client->Connect(*ch, ConnMode::kOutput);
  auto in = client->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  Buffer payload(55000);
  FillPattern(payload, 8);
  ASSERT_TRUE(client->Put(*out, 3, payload).ok());
  auto item = client->Get(*in, GetSpec::Exact(3), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->timestamp, 3);
  EXPECT_TRUE(CheckPattern(item->payload.span(), 8));
}

TEST_F(ClientTest, TwoDevicesShareOneChannelViaNameServer) {
  auto producer = JoinC(-1, "camera");
  auto consumer = JoinC(-1, "display");

  auto ch = producer->CreateChannel();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(producer
                  ->NsRegister(NsEntry{"shared/video", NsEntry::Kind::kChannel,
                                       ch->bits(), "test stream"})
                  .ok());
  auto entry = consumer->NsLookup("shared/video", Deadline::AfterMillis(5000));
  ASSERT_TRUE(entry.ok()) << entry.status();

  auto out = producer->Connect(*ch, ConnMode::kOutput);
  auto in = consumer->Connect(ChannelId::FromBits(entry->id_bits),
                              ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  ASSERT_TRUE(producer->Put(*out, 1, Bytes("frame-1")).ok());
  auto item =
      consumer->Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->payload.ToString(), "frame-1");
  EXPECT_TRUE(consumer->Consume(*in, 1).ok());
}

TEST_F(ClientTest, CrossAsRoutingThroughSurrogate) {
  // Device hosted on AS0 operates a channel owned by AS1: the surrogate
  // must forward over CLF transparently.
  auto device = JoinC(/*preferred_as=*/0);
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(device->Put(*out, 9, Bytes("routed")).ok());
  auto item = device->Get(*in, GetSpec::Exact(9), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->payload.ToString(), "routed");
}

TEST_F(ClientTest, BlockingGetAcrossDevices) {
  auto producer = JoinC();
  auto consumer = JoinC();
  auto ch = producer->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = consumer->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());

  std::thread late_producer([&] {
    std::this_thread::sleep_for(Millis(50));
    auto out = producer->Connect(*ch, ConnMode::kOutput);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(producer->Put(*out, 1, Bytes("late")).ok());
  });
  auto item =
      consumer->Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(15000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->payload.ToString(), "late");
  late_producer.join();
}

TEST_F(ClientTest, QueueThroughSurrogate) {
  auto client = JoinC();
  auto q = client->CreateQueue();
  ASSERT_TRUE(q.ok());
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(client->Put(*out, 1, Bytes("job-a")).ok());
  ASSERT_TRUE(client->Put(*out, 2, Bytes("job-b")).ok());
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(5000))->payload.ToString(),
            "job-a");
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(5000))->payload.ToString(),
            "job-b");
}

TEST_F(ClientTest, GcNoticesPiggybackToInterestedDevice) {
  auto device = JoinC();
  auto ch = device->CreateChannel();
  ASSERT_TRUE(ch.ok());

  std::vector<Timestamp> reclaimed;
  ASSERT_TRUE(device
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&](const core::GcNotice& notice) {
                                   reclaimed.push_back(notice.timestamp);
                                 })
                  .ok());

  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(device->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(device->Consume(*in, 1).ok());

  // The surrogate forwards the notice "at an opportune time" (§3.2.4):
  // here, on the reply of the consume that reclaimed the item. The
  // harmless calls only matter if it came later.
  for (int i = 0; i < 50 && reclaimed.empty(); ++i) {
    std::this_thread::sleep_for(Millis(10));
    (void)device->NsList("");
  }
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], 1);
  EXPECT_GE(device->gc_notices_received(), 1u);
}

TEST_F(ClientTest, GcHandlerRunsBeforeTheReclaimingConsumeReturns) {
  // The host owns the channel, so the consume that reclaims the item
  // publishes its notice on the surrogate's own thread, and the notice
  // rides that consume's reply: no later call is needed.
  auto device = JoinC();
  auto ch = device->CreateChannel();
  ASSERT_TRUE(ch.ok());
  std::vector<Timestamp> reclaimed;
  ASSERT_TRUE(device
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&](const core::GcNotice& notice) {
                                   reclaimed.push_back(notice.timestamp);
                                 })
                  .ok());
  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(device->Put(*out, 1, Bytes("x")).ok());
  EXPECT_TRUE(reclaimed.empty());
  ASSERT_TRUE(device->Consume(*in, 1).ok());
  EXPECT_EQ(reclaimed, (std::vector<Timestamp>{1}));
}

// A known gap, pinned: a surrogate's sink registers on its host, but
// notices are published where the items are reclaimed, on the owner.
// So a device hears only of containers its host owns; closing the gap
// needs an owner-to-host notice route on the wire.
TEST_F(ClientTest, DeviceHostedAwayFromTheOwnerGetsNoNotices) {
  auto device = JoinC(/*preferred_as=*/1);
  ASSERT_EQ(AsIndex(device->host_as()), 1u);
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  std::atomic<int> notices{0};
  ASSERT_TRUE(device
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&](const core::GcNotice&) { ++notices; })
                  .ok());
  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(device->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(device->Consume(*in, 1).ok());
  auto channel = rt_->as(0).FindChannel(ch->bits());
  ASSERT_NE(channel, nullptr);
  EXPECT_EQ(channel->live_items(), 0u) << "the owner did reclaim the item";
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(Millis(10));
    (void)device->NsList("");
  }
  EXPECT_EQ(notices.load(), 0);
  EXPECT_EQ(device->gc_notices_received(), 0u);
}

TEST_F(ClientTest, UninterestedDeviceGetsNoNotices) {
  auto device = JoinC();
  auto ch = device->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(device->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(device->Consume(*in, 1).ok());
  std::this_thread::sleep_for(Millis(100));
  (void)device->NsList("");
  EXPECT_EQ(device->gc_notices_received(), 0u);
}

TEST_F(ClientTest, CleanLeaveRetiresSurrogate) {
  auto device = JoinC();
  ASSERT_TRUE(device->Leave().ok());
  for (int i = 0; i < 100 &&
                  listener_->surrogates_in(Surrogate::State::kLeft) == 0;
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kLeft), 1u);
  // Calls after leave fail locally.
  EXPECT_EQ(device->CreateChannel().status().code(),
            StatusCode::kConnectionClosed);
}

TEST_F(ClientTest, ParkedByAbruptClose) {
  // The paper's §3.3 limitation, reproduced deliberately: an end device
  // that dies without a clean leave leaves its surrogate parked.
  // Open a raw TCP connection, complete the Hello, then slam it shut:
  // the surrogate must park, not crash, and stay countable.
  auto conn = transport::TcpConnection::Connect(listener_->addr());
  ASSERT_TRUE(conn.ok());
  marshal::XdrEncoder enc;
  core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kHello), 1);
  HelloReq hello;
  hello.name = "abrupt";
  core::Encode(enc, hello);
  ASSERT_TRUE(conn->SendFrame(enc.Take()).ok());
  Buffer reply;
  ASSERT_TRUE(conn->RecvFrame(reply, Deadline::AfterMillis(5000)).ok());
  conn->Close();  // vanish without Bye

  for (int i = 0; i < 100 &&
                  listener_->surrogates_in(Surrogate::State::kParked) == 0;
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kParked), 1u);
}

TEST_F(ClientTest, HelloRequiredBeforeAnythingElse) {
  auto conn = transport::TcpConnection::Connect(listener_->addr());
  ASSERT_TRUE(conn.ok());
  marshal::XdrEncoder enc;
  core::EncodeRequestHeader(enc, core::Op::kCreateChannel, 1);
  core::Encode(enc, core::CreateReq{});
  ASSERT_TRUE(conn->SendFrame(enc.Take()).ok());
  Buffer reply;
  // The listener drops devices that do not say hello.
  Status s = conn->RecvFrame(reply, Deadline::AfterMillis(3000));
  EXPECT_EQ(s.code(), StatusCode::kConnectionClosed);
}

// --- Java-style client ------------------------------------------------------

TEST_F(ClientTest, JavaClientFullRoundTrip) {
  JavaStyleClient::Options opts;
  opts.server = listener_->addr();
  opts.name = "jdev";
  auto client = JavaStyleClient::Join(opts);
  ASSERT_TRUE(client.ok()) << client.status();
  auto ch = (*client)->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = (*client)->Connect(*ch, ConnMode::kOutput);
  auto in = (*client)->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  Buffer payload(20000);
  FillPattern(payload, 13);
  ASSERT_TRUE((*client)->Put(*out, 1, payload).ok());
  auto item =
      (*client)->Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok());
  EXPECT_TRUE(CheckPattern(item->payload.span(), 13));
}

TEST_F(ClientTest, CAndJavaDevicesInterop) {
  // Language heterogeneity (§3.2.3): a Java producer feeds a C consumer
  // through the same channel abstraction.
  JavaStyleClient::Options jopts;
  jopts.server = listener_->addr();
  jopts.name = "java-camera";
  auto java = JavaStyleClient::Join(jopts);
  ASSERT_TRUE(java.ok());
  auto c = JoinC(-1, "c-display");

  auto ch = (*java)->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = (*java)->Connect(*ch, ConnMode::kOutput);
  auto in = c->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  Buffer payload(4096);
  FillPattern(payload, 21);
  ASSERT_TRUE((*java)->Put(*out, 5, payload).ok());
  auto item = c->Get(*in, GetSpec::Exact(5), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_TRUE(CheckPattern(item->payload.span(), 21));
  EXPECT_TRUE(c->Consume(*in, 5).ok());
}

TEST_F(ClientTest, ManyDevicesConcurrently) {
  constexpr int kDevices = 6;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int d = 0; d < kDevices; ++d) {
    threads.emplace_back([&, d] {
      CClient::Options opts;
      opts.server = listener_->addr();
      opts.name = "dev-" + std::to_string(d);
      auto client = CClient::Join(opts);
      if (!client.ok()) return;
      auto ch = (*client)->CreateChannel();
      if (!ch.ok()) return;
      auto out = (*client)->Connect(*ch, ConnMode::kOutput);
      auto in = (*client)->Connect(*ch, ConnMode::kInput);
      if (!out.ok() || !in.ok()) return;
      for (Timestamp ts = 0; ts < 20; ++ts) {
        Buffer payload(1024);
        FillPattern(payload, static_cast<std::uint64_t>(d * 1000 + ts));
        if (!(*client)->Put(*out, ts, std::move(payload)).ok()) return;
        auto item = (*client)->Get(*in, GetSpec::Exact(ts),
                                   Deadline::AfterMillis(10000));
        if (!item.ok() ||
            !CheckPattern(item->payload.span(),
                          static_cast<std::uint64_t>(d * 1000 + ts))) {
          return;
        }
        if (!(*client)->Consume(*in, ts).ok()) return;
      }
      ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kDevices);
}

// --- session resilience: transparent reconnect & surrogate failover ---

class ResilienceTest : public ::testing::Test {
 protected:
  // Failure detection on (the resilience layer rides on PR 1's CLF
  // machinery); the listener shares one edge fault injector so tests
  // can kill the device<->surrogate TCP link at precise points.
  void Start() {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    opts.clf_max_retransmits = 5;
    opts.peer_keepalive_interval = Millis(50);
    opts.peer_timeout = kPeerTimeout;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
    Listener::Options lopts;
    lopts.edge_faults = &edge_faults_;
    auto listener = Listener::Start(*rt_, lopts);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
  }

  void TearDown() override {
    if (listener_) listener_->Shutdown();
    if (rt_) rt_->Shutdown();
  }

  std::unique_ptr<CClient> JoinC(std::int32_t preferred_as = -1) {
    CClient::Options opts;
    opts.server = listener_->addr();
    opts.preferred_as = preferred_as;
    auto client = CClient::Join(opts);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  Buffer Bytes(std::string_view s) { return Buffer(s.begin(), s.end()); }

  static constexpr auto kPeerTimeout = std::chrono::milliseconds(500);

  clf::FaultInjector edge_faults_;
  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(ResilienceTest, TransparentReconnectIsExactlyOnce) {
  Start();
  auto client = JoinC();
  auto q = client->CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(client->Put(*out, 0, Bytes("a")).ok());

  // Link killed before the surrogate executes the put: the replay after
  // reconnect must run it (for the first time) — nothing is lost.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kBeforeExecute);
  ASSERT_TRUE(client->Put(*out, 1, Bytes("b")).ok());

  // Link killed after the execute but before the reply: the replay must
  // be answered from the surrogate's reply cache — nothing runs twice.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kAfterExecute);
  ASSERT_TRUE(client->Put(*out, 2, Bytes("c")).ok());

  EXPECT_EQ(client->reconnects(), 2u);
  EXPECT_GE(client->replays(), 2u);
  EXPECT_EQ(edge_faults_.connections_killed(), 2u);
  EXPECT_EQ(listener_->sessions_resumed(), 2u);
  EXPECT_EQ(listener_->sessions_migrated(), 0u);
  EXPECT_EQ(listener_->surrogates_total(), 1u);

  // Every acked put is in the queue exactly once, in order.
  for (std::string_view want : {"a", "b", "c"}) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), want);
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);
}

// The registry's copy of a session carries the ticket of the call that
// changed it. A Detach whose reply and host are both lost is acked by
// ticket after the failover, never run again, so its mirror must carry
// its own ticket. A device NsRegister mirrors the record once, ticket
// included: the routed register and the record put, no ticket RPC.
TEST_F(ResilienceTest, SessionMirrorCarriesTheTicketOfTheCallThatChangedIt) {
  Start();
  auto client = JoinC(/*preferred_as=*/1);  // Hello is id 1
  ASSERT_EQ(client->host_as(), rt_->as(1).id());
  ASSERT_NE(rt_->as(1).name_server_as(), rt_->as(1).id());
  auto ch = client->CreateChannel();  // id 2
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto conn = client->Connect(*ch, ConnMode::kOutput);  // id 3
  ASSERT_TRUE(conn.ok()) << conn.status();
  auto record = rt_->as(0).SessionGet(client->session_id());
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(record->last_executed_ticket, 3u);
  ASSERT_EQ(record->attachments.size(), 1u);

  ASSERT_TRUE(client->Disconnect(*conn).ok());  // id 4
  record = rt_->as(0).SessionGet(client->session_id());
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(record->last_executed_ticket, 4u);
  EXPECT_TRUE(record->attachments.empty());

  const metrics::Counter& remote_calls =
      rt_->as(1).metrics_registry().GetCounter("api.remote_calls");
  const auto before = remote_calls.Value();
  NsEntry entry;
  entry.name = "mirrored";
  entry.kind = NsEntry::Kind::kChannel;
  entry.id_bits = ch->bits();
  ASSERT_TRUE(client->NsRegister(entry).ok());  // id 5
  EXPECT_EQ(remote_calls.Value() - before, 2u);
  record = rt_->as(0).SessionGet(client->session_id());
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(record->last_executed_ticket, 5u);
  EXPECT_EQ(record->registered_names, std::vector<std::string>{"mirrored"});
}

TEST_F(ResilienceTest, FailoverToLiveAddressSpaceOnHostDeath) {
  Start();
  // Containers owned by AS 0 so they survive AS 1 (the session's host)
  // dying mid-stream.
  auto q = rt_->as(0).CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();

  auto client = JoinC(/*preferred_as=*/1);
  ASSERT_EQ(AsIndex(client->host_as()), 1u);
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok()) << in.status();

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }

  rt_->as(1).Shutdown();
  const TimePoint cut = Now();
  for (int i = 5; i < 10; ++i) {
    Status s = client->Put(*out, i, Bytes("item-" + std::to_string(i)));
    ASSERT_TRUE(s.ok()) << "put " << i << ": " << s;
  }
  // The put that spanned the death paid for detection + failover; the
  // documented bound is 2x the peer timeout.
  EXPECT_LT(Now() - cut, 2 * kPeerTimeout);

  EXPECT_EQ(AsIndex(client->host_as()), 0u) << "session must have migrated";
  EXPECT_EQ(client->reconnects(), 1u);
  EXPECT_EQ(listener_->sessions_migrated(), 1u);

  // Zero acked ops lost, zero duplicated, order preserved — across the
  // migration and the replayed in-flight call.
  for (int i = 0; i < 10; ++i) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), "item-" + std::to_string(i));
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);
}

TEST_F(ResilienceTest, ResumeAfterMigrationAdoptsTheLiveSurrogate) {
  Start();
  auto q = rt_->as(0).CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto client = JoinC(/*preferred_as=*/1);
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok()) << in.status();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }

  // Host death migrates the session; the dead-host surrogate becomes a
  // superseded tombstone that stays in the listener's table.
  rt_->as(1).Shutdown();
  for (int i = 3; i < 6; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }
  ASSERT_EQ(listener_->sessions_migrated(), 1u);

  // Drop the TCP link to the *migrated* surrogate. The resume must
  // match the live surrogate past the tombstone and adopt it in place;
  // re-migrating through the tombstone would supersede the live
  // surrogate, whose eventual reap (on a live host) destroys the
  // session's registry record and reply cache.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kBeforeExecute);
  for (int i = 6; i < 9; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }
  EXPECT_EQ(listener_->sessions_migrated(), 1u)
      << "resume re-migrated through a superseded tombstone";
  EXPECT_EQ(listener_->sessions_resumed(), 1u);

  // A second drop: the once-resumed session must stay resumable.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kAfterExecute);
  for (int i = 9; i < 12; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }
  EXPECT_EQ(listener_->sessions_migrated(), 1u);
  EXPECT_EQ(listener_->sessions_resumed(), 2u);

  // Exactly-once across the migration and both resumes, in order.
  for (int i = 0; i < 12; ++i) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), "item-" + std::to_string(i));
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);

  // Reconnect churn spawned four surrogate activations but must not
  // accumulate their exited Run threads: the janitor joins them,
  // leaving only the live one.
  const TimePoint reap_give_up = Now() + Millis(5000);
  while (listener_->run_threads() > 1 && Now() < reap_give_up) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ(listener_->run_threads(), 1u);
}

TEST_F(ResilienceTest, GcNoticesSurviveFailover) {
  Start();
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto client = JoinC(/*preferred_as=*/1);

  std::atomic<int> reclaimed{0};
  ASSERT_TRUE(client
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&](const core::GcNotice&) { ++reclaimed; })
                  .ok());
  auto out = client->Connect(*ch, ConnMode::kOutput);
  auto in = client->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  rt_->as(1).Shutdown();

  // All of these replay/route through the migrated surrogate.
  ASSERT_TRUE(client->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(client->Consume(*in, 1).ok());
  for (int i = 0; i < 100 && reclaimed.load() == 0; ++i) {
    std::this_thread::sleep_for(Millis(10));
    (void)client->NsList("");
  }
  EXPECT_EQ(reclaimed.load(), 1)
      << "the GC interest (and notice path) must survive migration";
  EXPECT_EQ(listener_->sessions_migrated(), 1u);
}

TEST_F(ResilienceTest, ReconnectGivesUpWhenClusterGone) {
  Start();
  CClient::Options opts;
  opts.server = listener_->addr();
  opts.reconnect.give_up_after = Millis(300);
  auto joined = CClient::Join(opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  auto client = std::move(joined).value();

  listener_->Shutdown();

  const TimePoint t0 = Now();
  auto s = client->NsList("");
  EXPECT_EQ(s.status().code(), StatusCode::kUnavailable) << s.status();
  EXPECT_GE(Now() - t0, Millis(300)) << "should have kept trying for a while";
  EXPECT_LT(Now() - t0, Millis(5000));
}

TEST_F(ResilienceTest, ResumeOfEndedOrUnknownSessionReportsNotFound) {
  Start();
  auto client = JoinC();
  const std::uint64_t ended_session = client->session_id();
  ASSERT_TRUE(client->Leave().ok());
  for (int i = 0;
       i < 100 && listener_->surrogates_in(Surrogate::State::kLeft) == 0;
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }

  auto try_resume = [&](std::uint64_t session_id) -> StatusCode {
    auto conn = transport::TcpConnection::Connect(listener_->addr());
    EXPECT_TRUE(conn.ok());
    if (!conn.ok()) return StatusCode::kInternal;
    marshal::XdrEncoder enc;
    core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kResume),
                              77);
    ResumeReq req;
    req.client_kind = kClientKindC;
    req.session_id = session_id;
    req.last_acked_ticket = 0;
    req.preferred_as = -1;
    core::Encode(enc, req);
    EXPECT_TRUE(conn->SendFrame(enc.Take()).ok());
    Buffer reply;
    Status s = conn->RecvFrame(reply, Deadline::AfterMillis(5000));
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) return StatusCode::kInternal;
    marshal::XdrDecoder dec(reply);
    auto hdr = core::DecodeResponseHeader(dec);
    EXPECT_TRUE(hdr.ok());
    return hdr.ok() ? hdr->status.code() : StatusCode::kInternal;
  };

  // A cleanly-ended session is gone (surrogate kLeft, registry dropped).
  EXPECT_EQ(try_resume(ended_session), StatusCode::kNotFound);
  // A session id that never existed has no registry record either.
  EXPECT_EQ(try_resume(0xdeadbeefULL), StatusCode::kNotFound);
}

TEST_F(ResilienceTest, GcNoticeReentrancySurvivesTheDeadlockDetector) {
  // Regression for the Resume-reply deadlock fixed in the resilience
  // PR: GC notices arriving on a Resume reply are deferred until
  // client.mu is released, so a handler that re-enters the client must
  // not deadlock. Run the whole scenario with the runtime lock-order /
  // blocking-while-locked detector armed: a regression (dispatching
  // under the lock) shows up as a re-entrant-acquisition abort instead
  // of a silent hang.
  sync::SetDeadlockDetectionForTesting(true);
  struct DetectorOff {
    ~DetectorOff() { sync::SetDeadlockDetectionForTesting(false); }
  } detector_off;

  Start();
  auto client = JoinC();
  auto ch = client->CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  core::AddressSpace& host = rt_->as(AsIndex(client->host_as()));

  std::atomic<int> notices{0};
  std::atomic<int> reentered{0};
  CClient* raw = client.get();
  ASSERT_TRUE(client
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&, raw](const core::GcNotice&) {
                                   ++notices;
                                   // Re-enter the client mid-dispatch.
                                   if (raw->NsList("").ok()) ++reentered;
                                 })
                  .ok());
  auto out = client->Connect(*ch, ConnMode::kOutput);
  auto in = host.Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(client->Put(*out, 1, Bytes("x")).ok());

  // A thread of the host, not the client, consumes: the reclaim puts
  // the notice in the surrogate's pending set while the client makes
  // no calls. Then kill the link: the notice rides back on the Resume
  // reply (the deferred-dispatch path) rather than a normal call's
  // trailer.
  ASSERT_TRUE(host.Consume(*in, 1).ok());
  EXPECT_EQ(notices.load(), 0);
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kBeforeExecute);
  for (int i = 0; i < 100 && notices.load() == 0; ++i) {
    (void)client->NsList("");
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_GE(notices.load(), 1);
  EXPECT_EQ(reentered.load(), notices.load());
  EXPECT_GE(client->reconnects(), 1u);
}

TEST_F(ResilienceTest, ResumeThroughADifferentListenerAfterListenerDeath) {
  // Two listeners over the same cluster. The session is created through
  // the first; killing that listener must not kill the session — the
  // client's reconnect tries its alternate server and the second
  // listener rehydrates the session from the shared registry, even
  // though it never saw this device before.
  Start();
  auto second = Listener::Start(*rt_, Listener::Options{});
  ASSERT_TRUE(second.ok()) << second.status();

  CClient::Options opts;
  opts.server = listener_->addr();
  opts.alternate_servers = {(*second)->addr()};
  auto joined = CClient::Join(opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  auto client = std::move(joined).value();

  auto q = client->CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }

  // Kill the listener that owns the session's surrogate. The cluster
  // (every address space) stays alive — only the front door dies.
  listener_->Shutdown();

  for (int i = 5; i < 10; ++i) {
    Status s = client->Put(*out, i, Bytes("item-" + std::to_string(i)));
    ASSERT_TRUE(s.ok()) << "put " << i << " after listener death: " << s;
  }
  EXPECT_GE(client->reconnects(), 1u);
  EXPECT_EQ((*second)->sessions_migrated(), 1u)
      << "the second listener must have rehydrated the session";

  // Exactly-once, in order, across the listener failover.
  for (int i = 0; i < 10; ++i) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), "item-" + std::to_string(i));
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);
  (*second)->Shutdown();
}

TEST_F(ResilienceTest, ListenerAdvertisesItselfInNameServer) {
  Start();
  auto client = JoinC();
  auto entries = client->NsList("sys/listener/");
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].id_bits, listener_->addr().port);
  // The full advertised address travels in the meta field, so failover
  // candidates need not assume loopback.
  auto advertised = transport::SockAddr::FromString((*entries)[0].meta);
  ASSERT_TRUE(advertised.ok()) << advertised.status();
  EXPECT_EQ(*advertised, listener_->addr());
}

}  // namespace
}  // namespace dstampede::client
