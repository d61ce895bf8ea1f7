// CLF tests: reliable ordered delivery, fragmentation of large
// messages, the shared-memory fast path, and the property suite that
// drives the ARQ through seeded drop/duplicate/reorder schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "clf_sink.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::clf {
namespace {

SinkEndpoint MakeEndpoint(Endpoint::Options opts = {}) {
  auto ep = CreateSinkEndpoint(opts);
  EXPECT_TRUE(ep.ok()) << ep.status();
  return std::move(ep).value();
}

TEST(ClfTest, SmallMessageRoundTrip) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  Buffer msg = {1, 2, 3};
  ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(got, msg);
  EXPECT_EQ(from, a->addr());
}

TEST(ClfTest, EmptyMessage) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  ASSERT_TRUE(a->Send(b->addr(), {}).ok());
  Buffer got = {9};
  transport::SockAddr from;
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_TRUE(got.empty());
}

TEST(ClfTest, LargeMessageFragmentsAndReassembles) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  Buffer msg(1400 * 1024);  // ~24 fragments
  FillPattern(msg, 42);
  ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(10000)).ok());
  ASSERT_EQ(got.size(), msg.size());
  EXPECT_TRUE(CheckPattern(got, 42));
  EXPECT_GT(a.registry->GetCounter("clf.data_packets_sent").Value(), 20u);
}

TEST(ClfTest, ManyMessagesStayOrdered) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    Buffer msg(64);
    FillPattern(msg, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  }
  for (int i = 0; i < kCount; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
    EXPECT_TRUE(CheckPattern(got, static_cast<std::uint64_t>(i)))
        << "message " << i << " out of order or corrupt";
  }
}

TEST(ClfTest, BidirectionalTraffic) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  std::thread peer([&] {
    for (int i = 0; i < 50; ++i) {
      Buffer got;
      transport::SockAddr from;
      ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
      ASSERT_TRUE(b->Send(from, got).ok());  // echo
    }
  });
  for (int i = 0; i < 50; ++i) {
    Buffer msg(512);
    FillPattern(msg, static_cast<std::uint64_t>(i) + 1000);
    ASSERT_TRUE(a->Send(b->addr(), msg).ok());
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(a.Next(got, from, Deadline::AfterMillis(5000)).ok());
    EXPECT_EQ(got, msg);
  }
  peer.join();
}

TEST(ClfTest, MultiplePeersInterleaved) {
  auto hub = MakeEndpoint();
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  for (int i = 0; i < 20; ++i) {
    Buffer from_a(32, 0xA);
    Buffer from_b(32, 0xB);
    ASSERT_TRUE(a->Send(hub->addr(), from_a).ok());
    ASSERT_TRUE(b->Send(hub->addr(), from_b).ok());
  }
  int got_a = 0, got_b = 0;
  for (int i = 0; i < 40; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(hub.Next(got, from, Deadline::AfterMillis(5000)).ok());
    if (from == a->addr()) {
      EXPECT_EQ(got, Buffer(32, 0xA));
      ++got_a;
    } else {
      EXPECT_EQ(got, Buffer(32, 0xB));
      ++got_b;
    }
  }
  EXPECT_EQ(got_a, 20);
  EXPECT_EQ(got_b, 20);
}

TEST(ClfTest, ShutdownRightAfterADatagramWakesTheReceiver) {
  // Each datagram sends the receiver back to a fresh 5 ms poll; Shutdown
  // wakes it rather than wait out what is left of it (3-4 ms here).
  // The median keeps a few shutdowns slowed by a loaded machine from
  // deciding the result.
  auto a = MakeEndpoint();
  std::vector<std::int64_t> shutdown_us;
  for (int i = 0; i < 20; ++i) {
    auto b = MakeEndpoint();
    ASSERT_TRUE(a->Send(b->addr(), Buffer{1}).ok());
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
    std::this_thread::sleep_for(Millis(1));  // back in its poll by now
    const TimePoint start = Now();
    b->Shutdown();
    shutdown_us.push_back(ToMicros(Now() - start));
  }
  std::sort(shutdown_us.begin(), shutdown_us.end());
  EXPECT_LT(shutdown_us[shutdown_us.size() / 2], 2000);
}

TEST(EndpointTimerDeathTest, BlockingInATimerCallbackAborts) {
  // Timer callbacks run on the receiver under its DeliveryThreadScope,
  // so one that blocks aborts under the deadlock detector.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sync::SetDeadlockDetectionForTesting(true);
        auto ep = MakeEndpoint();
        ep->timers().Schedule(Deadline::Poll(), [] {
          sync::AssertBlockingAllowed("clf_test fake I/O");
        });
        std::this_thread::sleep_for(std::chrono::seconds(10));
      },
      "on a delivery thread");
}

TEST(ClfTest, SendAfterShutdownFails) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  a->Shutdown();
  Buffer one = {1};
  EXPECT_EQ(a->Send(b->addr(), one).code(), StatusCode::kCancelled);
}

TEST(ClfTest, ShmFastPathDelivers) {
  Endpoint::Options opts;
  opts.enable_shm_fastpath = true;
  auto a = MakeEndpoint(opts);
  auto b = MakeEndpoint(opts);
  Buffer msg(300 * 1024);  // multiple shm chunks
  FillPattern(msg, 9);
  ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_TRUE(CheckPattern(got, 9));
  EXPECT_EQ(from, a->addr());
  // The fast path must have bypassed the wire entirely.
  EXPECT_EQ(a.registry->GetCounter("clf.data_packets_sent").Value(), 0u);
  EXPECT_EQ(b.registry->GetCounter("clf.shm_messages").Value(), 1u);
}

TEST(ClfTest, ShmDisabledUsesWire) {
  Endpoint::Options opts;  // fastpath off by default
  auto a = MakeEndpoint(opts);
  auto b = MakeEndpoint(opts);
  ASSERT_TRUE(a->Send(b->addr(), Buffer(100)).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_GE(a.registry->GetCounter("clf.data_packets_sent").Value(), 1u);
  EXPECT_EQ(b.registry->GetCounter("clf.shm_messages").Value(), 0u);
}

TEST(ClfTest, ConcurrentLargeSendsToOnePeerDoNotInterleave) {
  // Regression: two threads sending multi-fragment messages from the
  // same endpoint to the same peer must not interleave fragments in
  // the sequence space (reassembly would see a foreign first-fragment
  // mid message and corrupt both).
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  constexpr int kPerThread = 15;
  constexpr std::size_t kSize = 150 * 1024;  // 3 fragments each
  std::thread t1([&] {
    for (int i = 0; i < kPerThread; ++i) {
      Buffer msg(kSize);
      FillPattern(msg, 1000 + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(a->Send(b->addr(), msg).ok());
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < kPerThread; ++i) {
      Buffer msg(kSize);
      FillPattern(msg, 2000 + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(a->Send(b->addr(), msg).ok());
    }
  });
  int seen_t1 = 0, seen_t2 = 0;
  for (int i = 0; i < 2 * kPerThread; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(30000)).ok());
    ASSERT_EQ(got.size(), kSize);
    // Each message must be internally intact and attributable.
    if (CheckPattern(got, 1000 + static_cast<std::uint64_t>(seen_t1))) {
      ++seen_t1;
    } else if (CheckPattern(got, 2000 + static_cast<std::uint64_t>(seen_t2))) {
      ++seen_t2;
    } else {
      FAIL() << "message " << i << " corrupted or out of per-thread order";
    }
  }
  EXPECT_EQ(seen_t1, kPerThread);
  EXPECT_EQ(seen_t2, kPerThread);
  t1.join();
  t2.join();
}

// --- delivery contract ------------------------------------------------------

// Polls until pred() holds or `timeout` passes.
template <typename Pred>
bool WaitFor(Pred pred, Duration timeout) {
  const TimePoint give_up = Now() + timeout;
  while (!pred()) {
    if (Now() >= give_up) return false;
    std::this_thread::sleep_for(Millis(1));
  }
  return true;
}

TEST(ClfTest, DeliverySendPastTheWindowReturnsAtOnce) {
  // A delivery upcall sends more fragments than the window holds to a
  // partitioned peer. The fragments past the window queue on the peer,
  // so the Send returns at once instead of parking the receiver thread,
  // and Shutdown has nothing to wake.
  auto peer = MakeEndpoint();
  const transport::SockAddr peer_addr = peer->addr();
  const Buffer big(130 * 60000);  // > 128 fragments
  std::atomic<Endpoint*> self{nullptr};
  std::atomic<int> send_code{-1};
  metrics::Registry registry;
  auto relay = Endpoint::Create({}, registry,
                                [&](const transport::SockAddr&, SharedBuffer) {
    send_code = static_cast<int>(self.load()->Send(peer_addr, big).code());
  });
  ASSERT_TRUE(relay.ok()) << relay.status();
  self = relay->get();
  (*relay)->fault_injector().Partition(peer_addr);

  auto trigger = MakeEndpoint();
  ASSERT_TRUE(trigger->Send((*relay)->addr(), Buffer{1}).ok());
  ASSERT_TRUE(WaitFor([&] { return send_code.load() != -1; }, Millis(10000)))
      << "the delivery's Send never returned";
  EXPECT_EQ(send_code.load(), static_cast<int>(StatusCode::kOk));
  // The window's worth went out; the rest waits for acks.
  EXPECT_EQ(registry.GetCounter("clf.data_packets_sent").Value(), 128u);

  const TimePoint start = Now();
  (*relay)->Shutdown();
  EXPECT_LT(Now() - start, Millis(2000));
}

TEST(ClfTest, ShmSendDuringPeerShutdownNeverReachesIt) {
  // A sender may pass the registry lookup just before the peer shuts
  // down. The peer's Shutdown must wait for such a transfer and refuse
  // later ones, so nothing is delivered into a destroyed endpoint or
  // sink (ASan checks the latter). Each delivery dawdles so that the
  // shutdown lands mid-transfer.
  Endpoint::Options opts;
  opts.enable_shm_fastpath = true;
  for (int round = 0; round < 5; ++round) {
    auto a = MakeEndpoint(opts);
    metrics::Registry registry;
    auto sink = std::make_unique<MessageSink>();
    auto b = Endpoint::Create(
        opts, registry,
        [to_sink = sink->Deliver()](const transport::SockAddr& from,
                                    SharedBuffer message) {
          std::this_thread::sleep_for(Millis(2));
          to_sink(from, std::move(message));
        });
    ASSERT_TRUE(b.ok()) << b.status();
    const transport::SockAddr b_addr = (*b)->addr();

    std::atomic<bool> stop{false};
    std::atomic<int> bad_status{0};
    std::thread sender([&] {
      const Buffer msg(256, 7);
      while (!stop.load()) {
        // kUnavailable: the ring closed under the transfer. Once `b` is
        // unregistered, sends fall back to UDP and succeed unacked.
        const StatusCode code = a->Send(b_addr, msg).code();
        if (code != StatusCode::kOk && code != StatusCode::kUnavailable) {
          ++bad_status;
        }
      }
    });
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(sink->Next(got, from, Deadline::AfterMillis(5000)).ok());
    b->reset();
    sink.reset();
    stop = true;
    sender.join();
    EXPECT_EQ(bad_status.load(), 0);
  }
}

// A first-fragment data packet as the wire carries it: magic C1F0,
// type 1 (data), flags 1 (first fragment), seq, ack, epoch, then the
// u32 message length and the bytes.
Buffer FirstFragment(std::uint32_t seq, std::uint32_t length,
                     const Buffer& bytes) {
  Buffer packet = {0xC1, 0xF0, 1, 1};
  for (std::uint32_t v : {seq, 0u, /*epoch=*/7u, length}) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      packet.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }
  packet.insert(packet.end(), bytes.begin(), bytes.end());
  return packet;
}

TEST(ClfTest, OverCapFirstFragmentIsDroppedAndStreamContinues) {
  auto b = MakeEndpoint();
  auto raw = transport::UdpSocket::Bind(0);
  ASSERT_TRUE(raw.ok()) << raw.status();
  ASSERT_TRUE(
      raw->SendTo(b->addr(), FirstFragment(0, 0xFFFFFFFFu, {1, 2, 3})).ok());
  ASSERT_TRUE(raw->SendTo(b->addr(), FirstFragment(1, 3, {4, 5, 6})).ok());

  SharedBuffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(got.ToVector(), (Buffer{4, 5, 6}));
  EXPECT_EQ(from, raw->bound_addr());
  // Reassembly reuses its buffer, so a reservation sized by the hostile
  // length would have carried over into this message.
  EXPECT_LT(got.capacity(), transport::kMaxFrame);
  EXPECT_EQ(b.registry->GetCounter("clf.messages_delivered").Value(), 1u);
}

// "VmSize:" of /proc/self/status, in kB.
long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

TEST(ClfTest, ClaimedLengthReservesOnlyWhatArrives) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  Buffer got;
  transport::SockAddr from;
  // b's receiver has made its first allocations before the baseline.
  ASSERT_TRUE(a->Send(b->addr(), Buffer{1}).ok());
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  auto raw = transport::UdpSocket::Bind(0);
  ASSERT_TRUE(raw.ok()) << raw.status();
  metrics::Counter& data_packets =
      b.registry->GetCounter("clf.data_packets_received");
  const auto packets_before = data_packets.Value();
  const long before_kb = VmSizeKb();

  // One datagram that opens a message of the largest allowed length.
  ASSERT_TRUE(raw->SendTo(b->addr(),
                          FirstFragment(0, transport::kMaxFrame, {1, 2, 3}))
                  .ok());
  const TimePoint give_up = Now() + Millis(5000);
  while (data_packets.Value() == packets_before && Now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_EQ(data_packets.Value(), packets_before + 1);
  // The receiver handles this after the claim, so the claim's buffer
  // exists once it arrives.
  ASSERT_TRUE(a->Send(b->addr(), Buffer{2}).ok());
  ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(got, Buffer{2});
  EXPECT_LT(VmSizeKb() - before_kb, 8 * 1024);
}

TEST(ClfTest, DataPacketsCarryAcksBothWaysAndDropThemOnAnEpochChange) {
  // A one-packet window, so b's second message waits for an ack.
  Endpoint::Options one;
  one.window_packets = 1;
  auto b = MakeEndpoint(one);
  auto raw = transport::UdpSocket::Bind(0);
  ASSERT_TRUE(raw.ok()) << raw.status();
  // The layout OverCapFirstFragmentIsDroppedAndStreamContinues builds.
  auto packet = [](std::uint8_t type, std::uint8_t flags, std::uint32_t seq,
                   std::uint32_t ack, std::uint32_t epoch,
                   const Buffer& payload) {
    Buffer p = {0xC1, 0xF0, type, flags};
    for (std::uint32_t v : {seq, ack, epoch}) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        p.push_back(static_cast<std::uint8_t>(v >> shift));
      }
    }
    p.insert(p.end(), payload.begin(), payload.end());
    return p;
  };
  // Incarnation 7's one-byte message `seq`, carrying `ack`.
  auto message = [&](std::uint8_t seq, std::uint32_t ack, std::uint32_t epoch) {
    return packet(1, 1, seq, ack, epoch, {0, 0, 0, 1, seq});
  };
  auto field = [](const Buffer& p, std::size_t at) {
    return (std::uint32_t{p[at]} << 24) | (std::uint32_t{p[at + 1]} << 16) |
           (std::uint32_t{p[at + 2]} << 8) | p[at + 3];
  };
  // Reads what b sends `raw` until a packet of `type` arrives whose last
  // byte is `last` (any, when negative), skipping the rest (acks,
  // retransmissions of other messages), until `deadline`.
  auto await = [&](std::uint8_t type, int last, Buffer& got,
                   Deadline deadline = Deadline::AfterMillis(5000)) {
    transport::SockAddr from;
    while (raw->RecvFrom(got, from, deadline).ok()) {
      if (got.size() >= 16 && got[2] == type &&
          (last < 0 || got.back() == last)) {
        return true;
      }
    }
    return false;
  };
  Buffer got;
  transport::SockAddr from;
  auto delivered = [&] {
    return b.Next(got, from, Deadline::AfterMillis(5000)).ok();
  };

  // Incarnation 7 sends messages 0 to 2; b's data packet back carries
  // the cumulative ack of that stream.
  for (std::uint8_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(raw->SendTo(b->addr(), message(seq, 0, 7)).ok());
    ASSERT_TRUE(delivered());
  }
  ASSERT_TRUE(b->Send(raw->bound_addr(), Buffer{0x61}).ok());
  ASSERT_TRUE(await(1, 0x61, got));
  EXPECT_EQ(field(got, 4), 0u);  // seq
  EXPECT_EQ(field(got, 8), 3u);  // ack

  // The second message waits behind the window. An ack past what b has
  // sent (another stream's) opens nothing; a data packet's real ack
  // does, and the admitted packet carries b's ack in turn.
  ASSERT_TRUE(b->Send(raw->bound_addr(), Buffer{0x62}).ok());
  ASSERT_TRUE(raw->SendTo(b->addr(), message(3, 5, 7)).ok());
  ASSERT_TRUE(delivered());
  EXPECT_FALSE(await(1, 0x62, got, Deadline::Poll()));
  ASSERT_TRUE(raw->SendTo(b->addr(), message(4, 1, 7)).ok());
  ASSERT_TRUE(await(1, 0x62, got));
  EXPECT_EQ(field(got, 4), 1u);
  EXPECT_EQ(field(got, 8), 5u);

  // Incarnation 8 speaks on the same address; b answers its ping once
  // it has dropped the old incarnation's stream state.
  ASSERT_TRUE(raw->SendTo(b->addr(), packet(3, 0, 0, 0, 8, {})).ok());
  ASSERT_TRUE(await(4, -1, got)) << "no pong";
  ASSERT_TRUE(b->Send(raw->bound_addr(), Buffer{0x63}).ok());
  ASSERT_TRUE(await(1, 0x63, got));
  EXPECT_EQ(field(got, 4), 0u);  // a fresh stream to the successor...
  EXPECT_EQ(field(got, 8), 0u);  // ...acking nothing of the old one
  EXPECT_EQ(b.registry->GetCounter("clf.epoch_resets").Value(), 1u);
}

TEST(ClfTest, FourFragmentMessageArrivesAsOneBufferOfItsLength) {
  // 190,000 bytes take four fragments. In order, each is appended
  // straight into the reassembly buffer; reordered by the injector, the
  // early ones wait in the stash. Either way one SharedBuffer arrives,
  // sized exactly as the first fragment announced, holding the bytes
  // that were sent.
  constexpr std::size_t kLength = 190000;
  Buffer msg(kLength);
  FillPattern(msg, 190);
  Endpoint::Options reordering;
  reordering.faults.reorder_probability = 1.0;
  reordering.faults.seed = 3;
  for (const Endpoint::Options& opts : {Endpoint::Options{}, reordering}) {
    auto a = MakeEndpoint(opts);
    auto b = MakeEndpoint();
    ASSERT_TRUE(a->Send(b->addr(), msg).ok());
    SharedBuffer got;
    transport::SockAddr from;
    ASSERT_TRUE(b.Next(got, from, Deadline::AfterMillis(10000)).ok());
    EXPECT_EQ(got.size(), kLength);
    EXPECT_EQ(got.capacity(), kLength);
    EXPECT_TRUE(CheckPattern(got.span(), 190));
    EXPECT_EQ(b.registry->GetCounter("clf.data_packets_received").Value(),
              4u);
    EXPECT_EQ(b.registry->GetCounter("clf.messages_delivered").Value(), 1u);
  }
}

TEST(ClfTest, RetransmissionCarriesTheCurrentAckAndTheSameBytes) {
  // b sends a two-fragment message to a raw socket that never acks it.
  // While b waits to retransmit, the raw socket's own stream reaches b,
  // so the retransmissions must carry the ack b owes now, with the
  // bytes (the first fragment's length word included) of the first send.
  Endpoint::Options slow;
  slow.initial_rto = Millis(300);
  auto b = MakeEndpoint(slow);
  auto raw = transport::UdpSocket::Bind(0);
  ASSERT_TRUE(raw.ok()) << raw.status();
  auto field = [](const Buffer& p, std::size_t at) {
    return (std::uint32_t{p[at]} << 24) | (std::uint32_t{p[at + 1]} << 16) |
           (std::uint32_t{p[at + 2]} << 8) | p[at + 3];
  };
  // The next data packet b sends `raw` with this seq, skipping acks.
  auto await_data = [&](std::uint32_t seq, Buffer& got) {
    transport::SockAddr from;
    while (raw->RecvFrom(got, from, Deadline::AfterMillis(5000)).ok()) {
      if (got.size() >= 16 && got[2] == 1 && field(got, 4) == seq) {
        return true;
      }
    }
    return false;
  };
  Buffer msg(70000);
  FillPattern(msg, 2);
  ASSERT_TRUE(b->Send(raw->bound_addr(), msg).ok());
  Buffer first[2];
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    ASSERT_TRUE(await_data(seq, first[seq])) << "first send of " << seq;
    EXPECT_EQ(field(first[seq], 8), 0u);
  }
  // Incarnation 7's one-byte messages 0 to 2, acking none of b's.
  for (std::uint8_t seq = 0; seq < 3; ++seq) {
    Buffer packet = {0xC1, 0xF0, 1, 1, 0, 0, 0, seq, 0, 0, 0, 0,
                     0, 0, 0, 7, 0, 0, 0, 1, seq};
    ASSERT_TRUE(raw->SendTo(b->addr(), packet).ok());
    SharedBuffer delivered;
    transport::SockAddr from;
    ASSERT_TRUE(b.Next(delivered, from, Deadline::AfterMillis(5000)).ok());
  }
  for (std::uint32_t seq = 0; seq < 2; ++seq) {
    Buffer again;
    ASSERT_TRUE(await_data(seq, again)) << "retransmission of " << seq;
    EXPECT_EQ(field(again, 8), 3u) << seq;
    EXPECT_TRUE(std::equal(again.begin(), again.begin() + 8,
                           first[seq].begin()));
    EXPECT_TRUE(std::equal(again.begin() + 12, again.end(),
                           first[seq].begin() + 12, first[seq].end()));
  }
  EXPECT_GE(b.registry->GetCounter("clf.retransmissions").Value(), 2u);
}

// --- mutating datagrams ---------------------------------------------------
//
// HandleDatagram parses whatever reaches the endpoint's port. Start from
// a valid datagram of every type, mutate each with WireFuzzTest's recipe
// (every truncation, seeded bit flips, noise) and send it from a raw UDP
// socket to a live endpoint. The contract: no crash, every message the
// mutations assemble decodes through the owner-aware path to a value or
// a Status with no payload slice past the message, and a well-formed
// message from another endpoint still arrives intact afterwards.

class ClfDatagramFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClfDatagramFuzzTest, MutatedDatagramsLeaveTheEndpointServing) {
  std::mt19937_64 rng(GetParam());
  auto target = MakeEndpoint();
  auto raw = transport::UdpSocket::Bind(0);
  ASSERT_TRUE(raw.ok()) << raw.status();

  // The layout OverCapFirstFragmentIsDroppedAndStreamContinues builds:
  // magic C1F0, type, flags, seq, ack, epoch, then the payload. A first
  // fragment's payload opens with the u32 message length.
  auto datagram = [](std::uint8_t type, std::uint8_t flags, std::uint32_t seq,
                     std::uint32_t ack, const Buffer& payload) {
    Buffer packet = {0xC1, 0xF0, type, flags};
    for (std::uint32_t v : {seq, ack, /*epoch=*/7u}) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        packet.push_back(static_cast<std::uint8_t>(v >> shift));
      }
    }
    packet.insert(packet.end(), payload.begin(), payload.end());
    return packet;
  };
  Buffer first_payload = {0, 0, 0, 200};  // a 200-byte message
  first_payload.insert(first_payload.end(), 100, 0x5A);
  const std::vector<Buffer> corpus = {
      datagram(1, 1, 0, 0, first_payload),      // data, first fragment
      datagram(1, 0, 1, 0, Buffer(100, 0xA5)),  // data, middle fragment
      datagram(2, 0, 0, 1, {}),                 // ack
      datagram(3, 0, 0, 0, {}),                 // ping
      datagram(4, 0, 0, 0, {}),                 // pong
  };

  // Paced, so the endpoint's socket buffer never overflows and every
  // datagram reaches HandleDatagram.
  int sent = 0;
  auto send = [&](const Buffer& packet) {
    (void)raw->SendTo(target->addr(), packet);
    if (++sent % 32 == 0) std::this_thread::sleep_for(Millis(1));
  };
  for (const Buffer& valid : corpus) {
    // Every truncation length.
    for (std::size_t len = 0; len <= valid.size(); ++len) {
      send(Buffer(valid.begin(), valid.begin() + static_cast<long>(len)));
    }
    // Random bit flips.
    for (int round = 0; round < 200; ++round) {
      Buffer mutated = valid;
      const int flips = 1 + static_cast<int>(rng() % 8);
      for (int f = 0; f < flips; ++f) {
        mutated[rng() % mutated.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      }
      send(mutated);
    }
  }
  // Pure noise.
  for (int round = 0; round < 100; ++round) {
    Buffer noise(rng() % 256);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    send(noise);
  }

  // The mutations may have assembled messages of their own; each is
  // decoded as a put and as a get's item, the way an address space
  // decodes a delivered message, then skipped.
  auto decode_owned = [](const SharedBuffer& message) {
    auto inside = [&](const SharedBuffer& payload) {
      return payload.empty() ||
             (payload.data() >= message.data() &&
              payload.data() + payload.size() <=
                  message.data() + message.size());
    };
    marshal::XdrDecoder as_put(message);
    auto put = core::Decode<core::PutReq>(as_put);
    if (put.ok()) {
      EXPECT_TRUE(inside(put->payload));
    }
    marshal::XdrDecoder as_item(message);
    auto item = core::Decode<core::ItemView>(as_item);
    if (item.ok()) {
      EXPECT_TRUE(inside(item->payload));
    }
  };
  auto sender = MakeEndpoint();
  Buffer msg(150 * 1024);  // 3 fragments
  FillPattern(msg, 77);
  ASSERT_TRUE(sender->Send(target->addr(), msg).ok());
  const Deadline give_up = Deadline::AfterMillis(10000);
  SharedBuffer got;
  transport::SockAddr from;
  for (;;) {
    ASSERT_TRUE(target.Next(got, from, give_up).ok())
        << "the endpoint stopped delivering after the mutated datagrams";
    if (from == sender->addr()) break;
    EXPECT_NO_THROW(decode_owned(got));
  }
  ASSERT_EQ(got.size(), msg.size());
  EXPECT_TRUE(CheckPattern(got.span(), 77));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClfDatagramFuzzTest, ::testing::Range(0u, 5u));

TEST(ClfTest, SendRefusesOverCapMessage) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  const Buffer huge(transport::kMaxFrame + 1);
  EXPECT_EQ(a->Send(b->addr(), huge).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.registry->GetCounter("clf.data_packets_sent").Value(), 0u);
}

// --- fault-injection property suite -------------------------------------
//
// Exactly-once, in-order delivery must survive drops, duplicates and
// reordering. Each parameter is (drop, dup, reorder, seed).
struct FaultCase {
  double drop;
  double dup;
  double reorder;
  std::uint64_t seed;
};

class ClfFaultTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(ClfFaultTest, ExactlyOnceInOrderUnderFaults) {
  const FaultCase& fc = GetParam();
  Endpoint::Options lossy;
  lossy.faults.drop_probability = fc.drop;
  lossy.faults.duplicate_probability = fc.dup;
  lossy.faults.reorder_probability = fc.reorder;
  lossy.faults.seed = fc.seed;
  lossy.initial_rto = Millis(5);
  auto sender = MakeEndpoint(lossy);
  auto receiver = MakeEndpoint();  // clean return path for acks

  constexpr int kCount = 120;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      Buffer msg(100 + (i % 7) * 501);  // varied sizes
      FillPattern(msg, static_cast<std::uint64_t>(i) * 13 + 1);
      ASSERT_TRUE(sender->Send(receiver->addr(), msg).ok());
    }
  });
  for (int i = 0; i < kCount; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(receiver.Next(got, from, Deadline::AfterMillis(30000)).ok())
        << "lost message " << i << " under faults";
    EXPECT_EQ(got.size(), 100u + (i % 7) * 501u) << "order violated at " << i;
    EXPECT_TRUE(CheckPattern(got, static_cast<std::uint64_t>(i) * 13 + 1));
  }
  producer.join();
  // Nothing extra may be delivered (exactly-once).
  Buffer extra;
  transport::SockAddr from;
  EXPECT_EQ(receiver.Next(extra, from, Deadline::AfterMillis(200)).code(),
            StatusCode::kTimeout);
  if (fc.drop > 0) {
    EXPECT_GT(sender.registry->GetCounter("clf.retransmissions").Value(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, ClfFaultTest,
    ::testing::Values(FaultCase{0.05, 0.0, 0.0, 1},   // light loss
                      FaultCase{0.20, 0.0, 0.0, 2},   // heavy loss
                      FaultCase{0.0, 0.20, 0.0, 3},   // duplication
                      FaultCase{0.0, 0.0, 0.30, 4},   // reordering
                      FaultCase{0.10, 0.10, 0.10, 5}, // everything
                      FaultCase{0.10, 0.10, 0.10, 6},
                      FaultCase{0.15, 0.05, 0.20, 7}));

// Fragmented messages under loss: every fragment must arrive for the
// message to reassemble, so loss exercises retransmission harder.
TEST(ClfFaultTest, FragmentedMessagesSurviveLoss) {
  Endpoint::Options lossy;
  lossy.faults.drop_probability = 0.15;
  lossy.faults.seed = 11;
  lossy.initial_rto = Millis(5);
  auto sender = MakeEndpoint(lossy);
  auto receiver = MakeEndpoint();
  for (int i = 0; i < 5; ++i) {
    Buffer msg(200 * 1024);
    FillPattern(msg, static_cast<std::uint64_t>(i) + 500);
    ASSERT_TRUE(sender->Send(receiver->addr(), msg).ok());
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(receiver.Next(got, from, Deadline::AfterMillis(30000)).ok());
    ASSERT_EQ(got.size(), msg.size());
    EXPECT_TRUE(CheckPattern(got, static_cast<std::uint64_t>(i) + 500));
  }
}

}  // namespace
}  // namespace dstampede::clf
