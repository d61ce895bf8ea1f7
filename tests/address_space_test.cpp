// AddressSpace / Runtime integration: location-transparent STM ops
// between address spaces over CLF, the cross-AS name server, remote
// blocking semantics, remote GC, dynamic join.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clf_sink.hpp"
#include "dstampede/core/runtime.hpp"
#include "thread_count.hpp"

namespace dstampede::core {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Runtime::Options opts;
    opts.num_address_spaces = 3;
    auto rt = Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
  }

  Buffer Bytes(std::string_view s) { return Buffer(s.begin(), s.end()); }

  std::unique_ptr<Runtime> rt_;
};

TEST_F(RuntimeTest, LocalPutGetWithinOneAs) {
  AddressSpace& as = rt_->as(0);
  auto ch = as.CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = as.Connect(*ch, ConnMode::kOutput);
  auto in = as.Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(as.Put(*out, 1, Bytes("hello")).ok());
  auto item = as.Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(1000));
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->payload.ToString(), "hello");
}

TEST_F(RuntimeTest, RemotePutGetAcrossAddressSpaces) {
  // Channel owned by AS1; producer in AS0; consumer in AS2.
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = rt_->as(0).Connect(*ch, ConnMode::kOutput);
  auto in = rt_->as(2).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok()) << in.status();

  Buffer payload(50000);
  FillPattern(payload, 3);
  ASSERT_TRUE(rt_->as(0).Put(*out, 7, payload).ok());
  auto item =
      rt_->as(2).Get(*in, GetSpec::Exact(7), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->timestamp, 7);
  EXPECT_TRUE(CheckPattern(item->payload.span(), 3));
}

TEST_F(RuntimeTest, CreateChannelOnRemoteAs) {
  auto ch = rt_->as(0).CreateChannelOn(static_cast<AsId>(2));
  ASSERT_TRUE(ch.ok()) << ch.status();
  EXPECT_EQ(AsIndex(ch->owner()), 2u);
  // The owner AS can find it locally.
  EXPECT_NE(rt_->as(2).FindChannel(ch->bits()), nullptr);
}

TEST_F(RuntimeTest, RemoteBlockingGetWaitsForProducer) {
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());
  std::thread producer([&] {
    std::this_thread::sleep_for(Millis(50));
    auto out = rt_->as(2).Connect(*ch, ConnMode::kOutput);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(rt_->as(2).Put(*out, 1, Bytes("waited")).ok());
  });
  auto item =
      rt_->as(0).Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->payload.ToString(), "waited");
  producer.join();
}

TEST_F(RuntimeTest, RemoteGetTimesOut) {
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());
  auto item = rt_->as(0).Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(100));
  EXPECT_EQ(item.status().code(), StatusCode::kTimeout);
}

TEST_F(RuntimeTest, RemoteConsumeDrivesDistributedGc) {
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = rt_->as(0).Connect(*ch, ConnMode::kOutput);
  auto in_a = rt_->as(0).Connect(*ch, ConnMode::kInput);
  auto in_b = rt_->as(2).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in_a.ok());
  ASSERT_TRUE(in_b.ok());

  ASSERT_TRUE(rt_->as(0).Put(*out, 1, Bytes("x")).ok());
  auto channel = rt_->as(1).FindChannel(ch->bits());
  ASSERT_NE(channel, nullptr);

  ASSERT_TRUE(rt_->as(0).Consume(*in_a, 1).ok());
  EXPECT_EQ(channel->live_items(), 1u) << "remote consumer b still holds it";
  ASSERT_TRUE(rt_->as(2).Consume(*in_b, 1).ok());
  EXPECT_EQ(channel->live_items(), 0u)
      << "all input connections consumed: reclaimed";
}

TEST_F(RuntimeTest, PeersConsumePublishesTheOwnersNoticeBeforeItsReply) {
  // The owner's sinks hear of a reclaim on the thread that made it —
  // for a peer's consume, the one serving it — stamped with the id bits
  // of the container, before the reply goes back.
  AddressSpace& owner = rt_->as(1);
  AddressSpace& peer = rt_->as(0);
  auto ch = owner.CreateChannel();
  auto q = owner.CreateQueue();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(q.ok());
  std::mutex mu;
  std::vector<GcNotice> notices;
  // Removes the sink on every exit, a failed ASSERT's included, before
  // what it captures goes.
  struct SinkGuard {
    GcService& gc;
    std::uint64_t token;
    ~SinkGuard() { gc.RemoveSink(token); }
  } sink{owner.gc(),
         owner.gc().AddSink([&](const std::vector<GcNotice>& batch) {
           std::lock_guard<std::mutex> lock(mu);
           notices.insert(notices.end(), batch.begin(), batch.end());
         })};
  auto noticed = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return notices;
  };

  auto ch_out = peer.Connect(*ch, ConnMode::kOutput);
  auto ch_in = peer.Connect(*ch, ConnMode::kInput);
  auto q_out = peer.Connect(*q, ConnMode::kOutput);
  auto q_in = peer.Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(ch_out.ok() && ch_in.ok() && q_out.ok() && q_in.ok());
  ASSERT_TRUE(peer.Put(*ch_out, 1, Bytes("abc")).ok());
  ASSERT_TRUE(peer.Consume(*ch_in, 1).ok());
  std::vector<GcNotice> seen = noticed();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].container_bits, ch->bits());
  EXPECT_FALSE(seen[0].is_queue);
  EXPECT_EQ(seen[0].timestamp, 1);
  EXPECT_EQ(seen[0].payload_size, 3u);

  ASSERT_TRUE(peer.Put(*q_out, 2, Bytes("q")).ok());
  ASSERT_TRUE(peer.Get(*q_in).ok());
  ASSERT_TRUE(peer.Consume(*q_in, 2).ok());
  seen = noticed();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].container_bits, q->bits());
  EXPECT_TRUE(seen[1].is_queue);
  EXPECT_EQ(owner.gc().notices_total(), 2u);
}

TEST_F(RuntimeTest, RemoteConsumeUntil) {
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = rt_->as(1).Connect(*ch, ConnMode::kOutput);
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  for (Timestamp ts = 0; ts < 8; ++ts) {
    ASSERT_TRUE(rt_->as(1).Put(*out, ts, Bytes("x")).ok());
  }
  ASSERT_TRUE(rt_->as(0).ConsumeUntil(*in, 5).ok());
  EXPECT_EQ(rt_->as(1).FindChannel(ch->bits())->live_items(), 2u);
}

TEST_F(RuntimeTest, RemoteQueueRoundTrip) {
  auto q = rt_->as(2).CreateQueue();
  ASSERT_TRUE(q.ok());
  auto out = rt_->as(0).Connect(*q, ConnMode::kOutput);
  auto in = rt_->as(1).Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(rt_->as(0).Put(*out, 5, Bytes("job")).ok());
  auto item = rt_->as(1).Get(*in, Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->timestamp, 5);
  EXPECT_EQ(item->payload.ToString(), "job");
  EXPECT_TRUE(rt_->as(1).Consume(*in, 5).ok());
}

TEST_F(RuntimeTest, ConnectToMissingChannelFails) {
  ChannelId bogus(static_cast<AsId>(1), 9999);
  auto conn = rt_->as(0).Connect(bogus, ConnMode::kInput);
  EXPECT_EQ(conn.status().code(), StatusCode::kNotFound);
}

TEST_F(RuntimeTest, ConnectToUnknownPeerFails) {
  ChannelId bogus(static_cast<AsId>(42), 1);
  auto conn = rt_->as(0).Connect(bogus, ConnMode::kInput);
  EXPECT_EQ(conn.status().code(), StatusCode::kNotFound);
}

// Both kinds draw slots from one counter and live in one table at the
// owner, so a handle that names a queue's slot as a channel (or the
// reverse) must still find nothing: every op answers kNotFound, on the
// owner and from a peer.
TEST_F(RuntimeTest, HandleOfTheOtherKindIsNotFound) {
  AddressSpace& owner = rt_->as(1);
  auto ch = owner.CreateChannel();
  auto q = owner.CreateQueue();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(q.ok());
  // Slot 1 of each container is live, so a lookup that ignored the
  // kind would land on a real connection of the other container.
  auto ch_conn = owner.Connect(*ch, ConnMode::kInputOutput);
  auto q_conn = owner.Connect(*q, ConnMode::kInputOutput);
  ASSERT_TRUE(ch_conn.ok());
  ASSERT_TRUE(q_conn.ok());
  ASSERT_EQ(ch_conn->slot(), q_conn->slot());

  for (AddressSpace* as : {&owner, &rt_->as(0)}) {
    SCOPED_TRACE(as == &owner ? "on the owner" : "from a peer");
    EXPECT_EQ(as->Connect(QueueId::FromBits(ch->bits()), ConnMode::kInput)
                  .status()
                  .code(),
              StatusCode::kNotFound);
    EXPECT_EQ(as->Connect(ChannelId::FromBits(q->bits()), ConnMode::kInput)
                  .status()
                  .code(),
              StatusCode::kNotFound);
    for (const Connection& forged :
         {Connection(ch->bits(), /*is_queue=*/true, ConnMode::kInputOutput,
                     owner.id(), ch_conn->slot()),
          Connection(q->bits(), /*is_queue=*/false, ConnMode::kInputOutput,
                     owner.id(), q_conn->slot())}) {
      SCOPED_TRACE(forged.is_queue() ? "channel named as queue"
                                     : "queue named as channel");
      EXPECT_EQ(as->Put(forged, 1, Bytes("x"), Deadline::AfterMillis(5000))
                    .code(),
                StatusCode::kNotFound);
      EXPECT_EQ(as->Get(forged, GetSpec::Oldest(), Deadline::AfterMillis(5000))
                    .status()
                    .code(),
                StatusCode::kNotFound);
      EXPECT_EQ(as->Consume(forged, 1).code(), StatusCode::kNotFound);
      EXPECT_EQ(as->Disconnect(forged).code(), StatusCode::kNotFound);
      if (!forged.is_queue()) {
        EXPECT_EQ(as->ConsumeUntil(forged, 1).code(), StatusCode::kNotFound);
        EXPECT_EQ(as->SetFilter(forged, ItemFilter{}).code(),
                  StatusCode::kNotFound);
      }
    }
  }
  EXPECT_EQ(owner.FindQueue(ch->bits()), nullptr);
  EXPECT_EQ(owner.FindChannel(q->bits()), nullptr);
  // Nothing reached the real containers.
  EXPECT_EQ(owner.FindChannel(ch->bits())->total_puts(), 0u);
  EXPECT_EQ(owner.FindQueue(q->bits())->total_puts(), 0u);
  EXPECT_TRUE(owner.Disconnect(*ch_conn).ok());
  EXPECT_TRUE(owner.Disconnect(*q_conn).ok());
}

TEST_F(RuntimeTest, DisconnectRemoteConnectionReleasesGcHold) {
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = rt_->as(1).Connect(*ch, ConnMode::kOutput);
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(rt_->as(1).Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(rt_->as(0).Disconnect(*in).ok());
  // No input connections remain -> item retained (not garbage), but a
  // new consumer can attach and see it.
  auto in2 = rt_->as(2).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in2.ok());
  auto item = rt_->as(2).Get(*in2, GetSpec::Exact(1), Deadline::AfterMillis(5000));
  ASSERT_TRUE(item.ok());
}

TEST_F(RuntimeTest, PutOnInputOnlyConnectionRejected) {
  auto ch = rt_->as(1).CreateChannel();
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(rt_->as(0).Put(*in, 1, Bytes("x")).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(RuntimeTest, RemoteGetOnOutputOnlyConnectionRejected) {
  auto ch = rt_->as(1).CreateChannel();
  auto out = rt_->as(0).Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(rt_->as(0).Put(*out, 1, Bytes("x")).ok());
  auto item = rt_->as(0).Get(*out, GetSpec::Exact(1), Deadline::AfterMillis(5000));
  EXPECT_EQ(item.status().code(), StatusCode::kPermissionDenied);
}

// --- name server across address spaces -------------------------------------

TEST_F(RuntimeTest, NsRegisterInOneAsLookupInAnother) {
  auto ch = rt_->as(2).CreateChannel();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(rt_->as(2)
                  .NsRegister(NsEntry{"camera/0", NsEntry::Kind::kChannel,
                                      ch->bits(), "left eye"})
                  .ok());
  auto entry = rt_->as(1).NsLookup("camera/0", Deadline::AfterMillis(5000));
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_EQ(entry->id_bits, ch->bits());
  EXPECT_EQ(entry->meta, "left eye");

  // And the id is directly connectable from a third AS.
  auto conn = rt_->as(0).Connect(ChannelId::FromBits(entry->id_bits),
                                 ConnMode::kInput);
  EXPECT_TRUE(conn.ok());
}

TEST_F(RuntimeTest, NsBlockingLookupAcrossAs) {
  std::thread registrar([&] {
    std::this_thread::sleep_for(Millis(50));
    ASSERT_TRUE(
        rt_->as(1)
            .NsRegister(NsEntry{"late/name", NsEntry::Kind::kOther, 0, ""})
            .ok());
  });
  auto entry = rt_->as(2).NsLookup("late/name", Deadline::AfterMillis(10000));
  EXPECT_TRUE(entry.ok()) << entry.status();
  registrar.join();
}

TEST_F(RuntimeTest, NsDuplicateAcrossAsRejected) {
  ASSERT_TRUE(
      rt_->as(0).NsRegister(NsEntry{"dup", NsEntry::Kind::kOther, 0, ""}).ok());
  EXPECT_EQ(
      rt_->as(1).NsRegister(NsEntry{"dup", NsEntry::Kind::kOther, 0, ""}).code(),
      StatusCode::kAlreadyExists);
}

TEST_F(RuntimeTest, NsListAcrossAs) {
  ASSERT_TRUE(
      rt_->as(1).NsRegister(NsEntry{"svc/a", NsEntry::Kind::kOther, 0, ""}).ok());
  ASSERT_TRUE(
      rt_->as(2).NsRegister(NsEntry{"svc/b", NsEntry::Kind::kOther, 0, ""}).ok());
  auto list = rt_->as(0).NsList("svc/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
  ASSERT_TRUE(rt_->as(1).NsUnregister("svc/a").ok());
  EXPECT_EQ(rt_->as(0).NsList("svc/")->size(), 1u);
}

// --- threads, dynamism -------------------------------------------------------

TEST_F(RuntimeTest, SpawnedThreadsRunAndJoin) {
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    rt_->as(0).Spawn("worker", [&] { ran.fetch_add(1); });
  }
  rt_->as(0).JoinThreads();
  EXPECT_EQ(ran.load(), 5);
}

TEST_F(RuntimeTest, DynamicallyAddedAsJoinsTheMesh) {
  auto added = rt_->AddAddressSpace();
  ASSERT_TRUE(added.ok()) << added.status();
  AddressSpace& newcomer = **added;
  EXPECT_EQ(rt_->size(), 4u);

  // The newcomer can use the name server and reach existing channels.
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(rt_->as(1)
                  .NsRegister(NsEntry{"dyn/ch", NsEntry::Kind::kChannel,
                                      ch->bits(), ""})
                  .ok());
  auto entry = newcomer.NsLookup("dyn/ch", Deadline::AfterMillis(5000));
  ASSERT_TRUE(entry.ok());
  auto out = newcomer.Connect(ChannelId::FromBits(entry->id_bits),
                              ConnMode::kOutput);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(newcomer.Put(*out, 1, Bytes("from newcomer")).ok());
}

TEST_F(RuntimeTest, ProducerConsumerPipelineAcrossThreeAs) {
  // The paper's producer/consumer pseudocode (§3), spread over the
  // cluster: producer in AS0, channel in AS1, consumer in AS2.
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  constexpr Timestamp kFrames = 50;

  rt_->as(0).Spawn("producer", [&] {
    auto out = rt_->as(0).Connect(*ch, ConnMode::kOutput);
    ASSERT_TRUE(out.ok());
    for (Timestamp ts = 0; ts < kFrames; ++ts) {
      Buffer item(256);
      FillPattern(item, static_cast<std::uint64_t>(ts));
      ASSERT_TRUE(rt_->as(0).Put(*out, ts, std::move(item)).ok());
    }
  });
  std::atomic<int> received{0};
  rt_->as(2).Spawn("consumer", [&] {
    auto in = rt_->as(2).Connect(*ch, ConnMode::kInput);
    ASSERT_TRUE(in.ok());
    for (Timestamp ts = 0; ts < kFrames; ++ts) {
      auto item =
          rt_->as(2).Get(*in, GetSpec::Exact(ts), Deadline::AfterMillis(30000));
      ASSERT_TRUE(item.ok()) << item.status();
      EXPECT_TRUE(CheckPattern(item->payload.span(),
                               static_cast<std::uint64_t>(ts)));
      ASSERT_TRUE(rt_->as(2).Consume(*in, ts).ok());
      received.fetch_add(1);
    }
  });
  rt_->as(0).JoinThreads();
  rt_->as(2).JoinThreads();
  EXPECT_EQ(received.load(), kFrames);
  // Everything consumed by the only input connection: fully reclaimed.
  EXPECT_EQ(rt_->as(1).FindChannel(ch->bits())->live_items(), 0u);
}

TEST_F(RuntimeTest, OpCountersTrackActivity) {
  // A remote put from AS0 into AS1's channel, then a get and consume of
  // the item: the issuing space counts each call once under api.*, and
  // the owner counts the container work under stm.*.
  AddressSpace& as0 = rt_->as(0);
  AddressSpace& as1 = rt_->as(1);
  auto ch = as1.CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = as0.Connect(*ch, ConnMode::kOutput);
  auto in = as0.Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  ASSERT_TRUE(as0.Put(*out, 1, Bytes("12345")).ok());
  auto item = as0.Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(5000));
  ASSERT_TRUE(item.ok());
  ASSERT_TRUE(as0.Consume(*in, 1).ok());

  auto count = [](AddressSpace& as, const char* name) {
    return as.metrics_registry().GetCounter(name).Value();
  };
  EXPECT_EQ(count(as0, "api.puts"), 1u);
  EXPECT_EQ(count(as1, "api.puts"), 0u);
  EXPECT_EQ(count(as1, "stm.puts"), 1u);
  EXPECT_EQ(count(as0, "stm.puts"), 0u);
  EXPECT_EQ(count(as0, "api.gets"), 1u);
  EXPECT_EQ(count(as1, "api.gets"), 0u);
  EXPECT_EQ(count(as1, "stm.gets"), 1u);
  EXPECT_EQ(count(as0, "api.attaches"), 2u);
  EXPECT_EQ(count(as1, "api.attaches"), 0u);
  EXPECT_EQ(count(as0, "api.consumes"), 1u);
  EXPECT_EQ(count(as1, "api.consumes"), 0u);
  EXPECT_EQ(count(as0, "api.bytes_put"), 5u);
  EXPECT_EQ(count(as1, "api.bytes_put"), 0u);
  EXPECT_EQ(count(as0, "api.bytes_got"), 5u);
  EXPECT_EQ(count(as1, "api.bytes_got"), 0u);
  EXPECT_GE(count(as0, "api.remote_calls"), 5u);  // attach x2, put, get, consume
}

TEST_F(RuntimeTest, DispatchDeferredCountsOnlyParkedRequests) {
  // A remote put into a channel with room and a get of an item that is
  // there both complete in the try phase: nothing parks on the owner.
  AddressSpace& as0 = rt_->as(0);
  AddressSpace& as1 = rt_->as(1);
  auto ch = as1.CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = as0.Connect(*ch, ConnMode::kOutput);
  auto in = as0.Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  auto deferred = [&] {
    return as1.metrics_registry().GetCounter("dispatch.deferred").Value();
  };

  ASSERT_TRUE(as0.Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(as0.Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(deferred(), 0u);

  // A get of an item that never comes parks until its deadline.
  auto missing = as0.Get(*in, GetSpec::Exact(2), Deadline::AfterMillis(50));
  EXPECT_EQ(missing.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(deferred(), 1u);
}

TEST_F(RuntimeTest, PeerRequestForStateHeldElsewhereIsRefused) {
  // A request that arrives over CLF is served on the receiving space's
  // own state or refused: a put sent to AS0 for AS1's channel is not
  // forwarded to AS1.
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto peer = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(peer.ok()) << peer.status();
  PutReq req;
  req.container_bits = ch->bits();
  req.mode = ConnMode::kOutput;
  req.ts = 1;
  req.deadline_ms = 0;
  req.payload = Bytes("x");
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kPut, 7);
  Encode(enc, req);
  ASSERT_TRUE((*peer)->Send(rt_->as(0).clf_addr(), enc.Take()).ok());

  Buffer reply;
  transport::SockAddr from;
  ASSERT_TRUE(peer->Next(reply, from, Deadline::AfterMillis(10000)).ok());
  marshal::XdrDecoder dec(reply);
  auto hdr = DecodeResponseHeader(dec);
  ASSERT_TRUE(hdr.ok()) << hdr.status();
  EXPECT_EQ(hdr->request_id, 7u);
  EXPECT_EQ(hdr->status.code(), StatusCode::kNotFound) << hdr->status;
  EXPECT_EQ(rt_->as(1).FindChannel(ch->bits())->total_puts(), 0u);
  EXPECT_EQ(rt_->as(0).metrics_registry().GetCounter("api.puts").Value(), 0u);
  EXPECT_EQ(
      rt_->as(0).metrics_registry().GetCounter("api.remote_calls").Value(),
      0u);
}

// An end device reaches ExecuteWireRequest through its surrogate. The
// replication ops have no public API, so a device's forged append or
// fetch is refused and changes nothing on the replica.
TEST(RuntimeReplicationTest, EndDeviceFramesCannotDriveTheLog) {
  Runtime::Options opts;
  opts.num_address_spaces = 3;
  opts.ns_replicas = 3;
  opts.dispatcher_threads = 2;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& follower = (*rt)->as(1);
  RepLog* replog = follower.replication();
  ASSERT_NE(replog, nullptr);
  const std::uint64_t term = replog->term();

  NsMutation forged;
  forged.kind = NsMutation::Kind::kRegister;
  forged.entry.name = "forged/name";
  forged.entry.owner_as = (*rt)->as(0).id();
  RepAppendReq append;
  append.term = term + 100;
  append.leader_as = AsIndex((*rt)->as(0).id());
  append.leader_last_index = replog->last_index() + 1;
  append.first_index = replog->last_index() + 1;
  append.entries.push_back(EncodeNsMutation(forged));
  marshal::XdrEncoder append_enc;
  EncodeRequestHeader(append_enc, Op::kRepAppend, 1);
  Encode(append_enc, append);
  const Buffer append_reply = follower.ExecuteWireRequest(append_enc.Take());
  marshal::XdrDecoder append_dec(append_reply);
  auto append_hdr = DecodeResponseHeader(append_dec);
  ASSERT_TRUE(append_hdr.ok()) << append_hdr.status();
  EXPECT_EQ(append_hdr->status.code(), StatusCode::kPermissionDenied)
      << append_hdr->status;
  EXPECT_EQ(replog->term(), term);
  EXPECT_EQ(follower.local_name_server()->Lookup("forged/name").status().code(),
            StatusCode::kNotFound);

  RepFetchReq fetch;
  fetch.from_index = 1;
  marshal::XdrEncoder fetch_enc;
  EncodeRequestHeader(fetch_enc, Op::kRepFetch, 2);
  Encode(fetch_enc, fetch);
  const Buffer fetch_reply = follower.ExecuteWireRequest(fetch_enc.Take());
  marshal::XdrDecoder fetch_dec(fetch_reply);
  auto fetch_hdr = DecodeResponseHeader(fetch_dec);
  ASSERT_TRUE(fetch_hdr.ok()) << fetch_hdr.status();
  EXPECT_EQ(fetch_hdr->status.code(), StatusCode::kPermissionDenied)
      << fetch_hdr->status;
  EXPECT_TRUE(fetch_dec.AtEnd()) << "the refusal carries no log entries";
}

// The session registry has no public device API either: a device frame
// could otherwise read another session's record (its redo payload
// included), forge one or drop one. AS 0 holds the registry; the other
// spaces would route to it.
TEST_F(RuntimeTest, EndDeviceFramesCannotTouchTheSessionRegistry) {
  SessionRecord record;
  record.session_id = 42;
  record.client_name = "dev";
  record.host_as = rt_->as(1).id();
  record.last_executed_ticket = 3;
  record.redo_ticket = 2;
  record.redo_payload = Buffer{0xab, 0xcd};
  ASSERT_TRUE(rt_->as(1).SessionPut(record).ok());

  SessionRecord forged = record;
  forged.client_name = "forged";
  forged.last_executed_ticket = 99;
  SessionTickReq tick;
  tick.session_id = 42;
  tick.ticket = 77;
  SessionIdReq session;
  session.session_id = 42;
  for (std::size_t i = 0; i < rt_->size(); ++i) {
    AddressSpace& as = rt_->as(i);
    auto refused = [&as](Op op, const auto& body) {
      marshal::XdrEncoder enc;
      EncodeRequestHeader(enc, op, 1);
      Encode(enc, body);
      const Buffer reply = as.ExecuteWireRequest(enc.Take());
      marshal::XdrDecoder dec(reply);
      auto hdr = DecodeResponseHeader(dec);
      return hdr.ok() && hdr->status.code() == StatusCode::kPermissionDenied &&
             dec.AtEnd();
    };
    EXPECT_TRUE(refused(Op::kSessionGet, session)) << "AS" << i;
    EXPECT_TRUE(refused(Op::kSessionPut, forged)) << "AS" << i;
    EXPECT_TRUE(refused(Op::kSessionTick, tick)) << "AS" << i;
    EXPECT_TRUE(refused(Op::kSessionDrop, session)) << "AS" << i;
  }

  auto kept = rt_->as(0).local_name_server()->GetSession(42);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->client_name, "dev");
  EXPECT_EQ(kept->last_executed_ticket, 3u);
  EXPECT_EQ(kept->redo_payload, record.redo_payload);
}

TEST_F(RuntimeTest, ShutdownCancelsBlockedRemoteGet) {
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());
  std::thread getter([&] {
    auto item =
        rt_->as(0).Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(30000));
    EXPECT_FALSE(item.ok());
  });
  std::this_thread::sleep_for(Millis(100));
  rt_->Shutdown();
  getter.join();
}

// --- delivery contract ------------------------------------------------------
//
// CLF delivery starts as soon as a space's socket binds, which can be
// before AddressSpace::Create returns; a request that arrives then must
// still be served.

// A sys/metrics request, which every space answers for itself.
Buffer MetricsRequest(std::uint64_t request_id, AsId target) {
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kMetrics, request_id);
  MetricsReq req;
  req.target_as = AsIndex(target);
  Encode(enc, req);
  return enc.Take();
}

void ExpectAnswered(clf::SinkEndpoint& client, std::uint64_t request_id) {
  Buffer reply;
  transport::SockAddr from;
  ASSERT_TRUE(client.Next(reply, from, Deadline::AfterMillis(10000)).ok())
      << "request " << request_id << " was never answered";
  marshal::XdrDecoder dec(reply);
  auto hdr = DecodeResponseHeader(dec);
  ASSERT_TRUE(hdr.ok()) << hdr.status();
  EXPECT_EQ(hdr->request_id, request_id);
  EXPECT_TRUE(hdr->status.ok()) << hdr->status;
}

// A port that was free a moment ago.
std::uint16_t FreeUdpPort() {
  auto probe = transport::UdpSocket::Bind(0);
  EXPECT_TRUE(probe.ok()) << probe.status();
  return probe->bound_addr().port;
}

TEST(RuntimeDeliveryTest, RequestRetransmittedBeforeSpaceExistsIsAnswered) {
  auto client = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(client.ok()) << client.status();
  const auto addr = transport::SockAddr::Loopback(FreeUdpPort());
  ASSERT_TRUE((*client)->Send(addr, MetricsRequest(41, AsId{0})).ok());
  // The request retransmits into a closed port for a while.
  std::this_thread::sleep_for(Millis(50));

  AddressSpace::Options opts;
  opts.clf_port = addr.port;
  opts.dispatcher_threads = 2;
  auto as = AddressSpace::Create(opts);
  ASSERT_TRUE(as.ok()) << as.status();
  ExpectAnswered(*client, 41);
}

TEST(RuntimeDeliveryTest, ShmRequestDeliveredDuringCreateIsAnswered) {
  // A sender spinning on the shm registry reaches the space's delivery
  // upcall moments after its ring registers, while Create still runs.
  clf::Endpoint::Options shm;
  shm.enable_shm_fastpath = true;
  auto client = clf::CreateSinkEndpoint(shm);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto addr = transport::SockAddr::Loopback(FreeUdpPort());
  std::thread sender([&] {
    const TimePoint give_up = Now() + Millis(10000);
    while (clf::ShmRegistry::Instance().Lookup(addr) == nullptr &&
           Now() < give_up) {
      std::this_thread::yield();
    }
    EXPECT_TRUE((*client)->Send(addr, MetricsRequest(42, AsId{0})).ok());
  });

  AddressSpace::Options opts;
  opts.clf_port = addr.port;
  opts.shm_fastpath = true;
  opts.dispatcher_threads = 2;
  auto as = AddressSpace::Create(opts);
  sender.join();
  ASSERT_TRUE(as.ok()) << as.status();
  ExpectAnswered(*client, 42);
}

TEST(RuntimeDeliveryTest, PlainSpaceRunsOneThreadUntilAPeerNeedsAWorker) {
  // The CLF receiver alone: delivery has no thread of its own, the
  // receiver fires the space's timers, GC runs on the thread that
  // reclaims, and a dispatcher worker starts only for a request that
  // goes to the pool.
  const int before = BaselineThreadCount();
  AddressSpace::Options opts;
  opts.dispatcher_threads = 3;
  opts.ns_replicas = {AsId{0}};
  auto as = AddressSpace::Create(opts);
  ASSERT_TRUE(as.ok()) << as.status();
  EXPECT_EQ(ThreadCount() - before, 1);

  auto peer = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(peer.ok()) << peer.status();
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kNsList, 43);
  Encode(enc, NsLookupReq{});
  ASSERT_TRUE((*peer)->Send((*as)->clf_addr(), enc.Take()).ok());
  ExpectAnswered(*peer, 43);
  // The peer's endpoint brought its own receiver.
  EXPECT_EQ(ThreadCount() - before, 1 + 1 + 1);
}

TEST(RuntimeDeliveryTest, CreateOnABoundPortFailsCleanly) {
  auto first = AddressSpace::Create({});
  ASSERT_TRUE(first.ok()) << first.status();
  AddressSpace::Options opts;
  opts.clf_port = (*first)->clf_addr().port;
  auto second = AddressSpace::Create(opts);
  EXPECT_FALSE(second.ok());
}

// --- peer ops served where they arrive -------------------------------------

Runtime::Options UdpRuntime(std::size_t spaces) {
  Runtime::Options opts;
  opts.num_address_spaces = spaces;
  opts.shm_fastpath = false;
  return opts;
}

TEST(RuntimeInlineServeTest, RemotePutsShedTheOwnersStandaloneAcks) {
  auto rt = Runtime::Create(UdpRuntime(2));
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& owner = (*rt)->as(1);
  auto ch = owner.CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto out = (*rt)->as(0).Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();
  metrics::Registry& registry = owner.metrics_registry();
  const std::uint64_t acks = registry.GetCounter("clf.acks_sent").Value();
  const std::uint64_t rode =
      registry.GetCounter("clf.acks_piggybacked").Value();

  constexpr int kPuts = 50;
  for (int ts = 1; ts <= kPuts; ++ts) {
    ASSERT_TRUE((*rt)->as(0).Put(*out, ts, Buffer(64)).ok());
  }
  // The owner served each put on its receiver thread, so the reply
  // carried the ack of the request it answered.
  EXPECT_LT(registry.GetCounter("clf.acks_sent").Value() - acks,
            std::uint64_t{kPuts / 2});
  EXPECT_GE(registry.GetCounter("clf.acks_piggybacked").Value() - rode,
            std::uint64_t{kPuts / 2});
}

TEST(RuntimeInlineServeTest, RelayedPayloadsAliasTheMessagesThatCarriedThem) {
  // AS0 puts into AS1's channel and AS2 gets, over UDP, at sizes of 1, 2
  // and 4 CLF fragments. The owner stores each payload as a slice of
  // the put's request, and AS2's payload is a slice of the get's reply:
  // each keeps its message alive, the payload plus a header of tens of
  // bytes.
  auto rt = Runtime::Create(UdpRuntime(3));
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& owner = (*rt)->as(1);
  auto ch = owner.CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto out = (*rt)->as(0).Connect(*ch, ConnMode::kOutput);
  auto in = (*rt)->as(2).Connect(*ch, ConnMode::kInput);
  auto here = owner.Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok() && in.ok() && here.ok());

  Timestamp ts = 0;
  for (const std::size_t size : {1000u, 100000u, 190000u}) {
    ++ts;
    Buffer payload(size);
    FillPattern(payload, ts);
    ASSERT_TRUE((*rt)->as(0).Put(*out, ts, payload).ok()) << size;

    auto got = (*rt)->as(2).Get(*in, GetSpec::Exact(ts),
                                Deadline::AfterMillis(10000));
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->payload.size(), size);
    EXPECT_TRUE(CheckPattern(got->payload.span(), ts)) << size;
    EXPECT_GT(got->payload.capacity(), size);
    EXPECT_LT(got->payload.capacity(), size + 100);

    auto stored = owner.Get(*here, GetSpec::Exact(ts), Deadline::Poll());
    ASSERT_TRUE(stored.ok()) << stored.status();
    EXPECT_EQ(stored->payload, got->payload);
    EXPECT_GT(stored->payload.capacity(), size);
    EXPECT_LT(stored->payload.capacity(), size + 100);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*rt)->as(i).metrics_registry()
                  .GetCounter("clf.retransmissions").Value(),
              0u)
        << "AS" << i;
  }
}

TEST(RuntimeInlineServeTest, GcHandlerMakingARemoteCallCompletesOnAPeersConsume) {
  auto rt = Runtime::Create(UdpRuntime(2));
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& as0 = (*rt)->as(0);
  AddressSpace& as1 = (*rt)->as(1);
  auto ch = as1.CreateChannel();
  auto report = as0.CreateChannel();
  ASSERT_TRUE(ch.ok() && report.ok());
  auto report_out = as1.Connect(*report, ConnMode::kOutput);
  auto report_in = as0.Connect(*report, ConnMode::kInput);
  ASSERT_TRUE(report_out.ok() && report_in.ok());
  // 0 until the handler's remote put returns, then 1 (OK) or 2.
  auto handled = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(as1.SetChannelGcHandler(
                     *ch, [as = &as1, to = *report_out, handled](
                              Timestamp ts, const SharedBuffer&) {
                       const Status put = as->Put(
                           to, ts, Buffer{1}, Deadline::AfterMillis(5000));
                       handled->store(put.ok() ? 1 : 2);
                     })
                  .ok());

  auto out = as0.Connect(*ch, ConnMode::kOutput);
  auto in = as0.Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok() && in.ok());
  ASSERT_TRUE(as0.Put(*out, 7, Buffer(32)).ok());
  ASSERT_TRUE(as0.Get(*in, GetSpec::Exact(7), Deadline::AfterMillis(5000)).ok());
  // AS1 reclaims the item while it serves this consume.
  ASSERT_TRUE(as0.Consume(*in, 7).ok());
  auto reported =
      as0.Get(*report_in, GetSpec::Exact(7), Deadline::AfterMillis(5000));
  ASSERT_TRUE(reported.ok()) << reported.status();
  const TimePoint give_up = Now() + Millis(5000);
  while (handled->load() == 0 && Now() < give_up) {
    std::this_thread::sleep_for(Millis(1));
  }
  EXPECT_EQ(handled->load(), 1);
}

// Container code on the delivery thread, racing the owner's own
// threads: AS0 puts into a channel and a queue on AS2 while an AS2
// thread does the same; an AS1 thread gets every channel item by
// timestamp (often parking until a put completes it) and consumes it,
// and an AS1 thread and an AS2 thread share the queue. GC handlers
// count the reclaims.
TEST(RuntimeInlineServeTest, PeersAndLocalThreadsShareOwnedContainers) {
  auto rt = Runtime::Create(UdpRuntime(3));
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& as0 = (*rt)->as(0);
  AddressSpace& as1 = (*rt)->as(1);
  AddressSpace& owner = (*rt)->as(2);
  auto ch = owner.CreateChannel();
  auto q = owner.CreateQueue();
  ASSERT_TRUE(ch.ok() && q.ok());
  auto reclaimed = std::make_shared<std::atomic<int>>(0);
  auto count = [reclaimed](Timestamp, const SharedBuffer&) {
    reclaimed->fetch_add(1);
  };
  ASSERT_TRUE(owner.SetChannelGcHandler(*ch, count).ok());
  ASSERT_TRUE(owner.SetQueueGcHandler(*q, count).ok());

  constexpr int kPerProducer = 100;
  constexpr int kItems = 2 * kPerProducer;  // per container
  auto payload = [](Timestamp ts) {
    Buffer b(100 + static_cast<std::size_t>(ts % 50));
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint8_t>(ts * 31 + static_cast<Timestamp>(i));
    }
    return b;
  };
  std::atomic<int> failures{0};
  auto check = [&](const Status& s) {
    if (!s.ok()) {
      ADD_FAILURE() << s;
      failures.fetch_add(1);
    }
    return s.ok();
  };
  const Deadline kBound = Deadline::AfterMillis(20000);

  // Producers: AS0 puts odd channel timestamps and queue items 1..N,
  // the owner's thread even timestamps and queue items N+1..2N.
  auto produce = [&](AddressSpace& as, int first_ts, int queue_base) {
    auto ch_out = as.Connect(*ch, ConnMode::kOutput);
    auto q_out = as.Connect(*q, ConnMode::kOutput);
    if (!check(ch_out.status()) || !check(q_out.status())) return;
    for (int i = 0; i < kPerProducer; ++i) {
      const Timestamp ts = first_ts + 2 * i;
      if (!check(as.Put(*ch_out, ts, payload(ts), kBound))) return;
      const Timestamp qts = queue_base + i + 1;
      if (!check(as.Put(*q_out, qts, payload(qts), kBound))) return;
    }
  };
  // Queue consumers claim a get each until every item is claimed.
  std::atomic<int> claimed{0};
  ds::Mutex seen_mu("test.seen_mu");
  std::multiset<Timestamp> seen;
  auto drain_queue = [&](AddressSpace& as) {
    auto in = as.Connect(*q, ConnMode::kInput);
    if (!check(in.status())) return;
    while (claimed.fetch_add(1) < kItems) {
      auto item = as.Get(*in, kBound);
      if (!check(item.status())) return;
      if (item->payload.size() != payload(item->timestamp).size() ||
          !std::equal(item->payload.data(),
                      item->payload.data() + item->payload.size(),
                      payload(item->timestamp).begin())) {
        ADD_FAILURE() << "queue item " << item->timestamp << " corrupted";
      }
      {
        ds::MutexLock lock(seen_mu);
        seen.insert(item->timestamp);
      }
      if (!check(as.Consume(*in, item->timestamp))) return;
    }
  };
  // The channel's one reader gets each timestamp in order.
  auto read_channel = [&] {
    auto in = as1.Connect(*ch, ConnMode::kInput);
    if (!check(in.status())) return;
    for (Timestamp ts = 1; ts <= kItems; ++ts) {
      auto item = as1.Get(*in, GetSpec::Exact(ts), kBound);
      if (!check(item.status())) return;
      const Buffer want = payload(ts);
      if (item->payload.size() != want.size() ||
          !std::equal(want.begin(), want.end(), item->payload.data())) {
        ADD_FAILURE() << "channel item " << ts << " corrupted";
      }
      if (!check(as1.Consume(*in, ts))) return;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(read_channel);
  threads.emplace_back([&] { drain_queue(as1); });
  threads.emplace_back([&] { drain_queue(owner); });
  threads.emplace_back([&] { produce(as0, 1, 0); });
  threads.emplace_back([&] { produce(owner, 2, kPerProducer); });
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::multiset<Timestamp> want;
  for (Timestamp ts = 1; ts <= kItems; ++ts) want.insert(ts);
  EXPECT_EQ(seen, want);  // every queue item exactly once
  for (const auto& container :
       {std::static_pointer_cast<LocalContainer>(owner.FindChannel(ch->bits())),
        std::static_pointer_cast<LocalContainer>(owner.FindQueue(q->bits()))}) {
    ASSERT_NE(container, nullptr);
    EXPECT_EQ(container->parked_get_waiters(), 0u);
    EXPECT_EQ(container->parked_put_waiters(), 0u);
    EXPECT_EQ(container->total_reclaimed(), std::uint64_t{kItems});
  }
  const TimePoint give_up = Now() + Millis(10000);
  while (reclaimed->load() < 2 * kItems && Now() < give_up) {
    std::this_thread::sleep_for(Millis(1));
  }
  EXPECT_EQ(reclaimed->load(), 2 * kItems);
}

}  // namespace
}  // namespace dstampede::core
