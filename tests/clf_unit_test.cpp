// Unit tests for CLF's internals: the fault injector's deterministic
// behaviour, the shared-memory ring and registry, window-limited
// sending, and retransmission statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "clf_sink.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/clf/fault_injector.hpp"
#include "dstampede/clf/shm_ring.hpp"

namespace dstampede::clf {
namespace {

// --- fault injector -----------------------------------------------------

// The destination of every filtered datagram below.
const transport::SockAddr kPeer = transport::SockAddr::Loopback(7000);

TEST(FaultInjectorTest, InactiveByDefault) {
  FaultInjector injector;
  EXPECT_FALSE(injector.active());
  Buffer pkt = {1, 2, 3};
  auto out = injector.Filter(kPeer, pkt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].datagram, pkt);
}

TEST(FaultInjectorTest, DeterministicAcrossSeeds) {
  FaultInjector::Config config;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.2;
  config.seed = 42;
  auto run = [&] {
    FaultInjector injector(config);
    std::vector<std::size_t> counts;
    for (int i = 0; i < 100; ++i) {
      counts.push_back(
          injector.Filter(kPeer, Buffer{static_cast<std::uint8_t>(i)})
              .size());
    }
    return counts;
  };
  EXPECT_EQ(run(), run()) << "same seed, same fate sequence";
}

TEST(FaultInjectorTest, DropRateRoughlyHonored) {
  FaultInjector::Config config;
  config.drop_probability = 0.25;
  config.seed = 7;
  FaultInjector injector(config);
  for (int i = 0; i < 1000; ++i) {
    (void)injector.Filter(kPeer, Buffer{1});
  }
  EXPECT_GT(injector.dropped(), 180u);
  EXPECT_LT(injector.dropped(), 330u);
}

TEST(FaultInjectorTest, DuplicationEmitsTwoCopies) {
  FaultInjector::Config config;
  config.duplicate_probability = 1.0;
  FaultInjector injector(config);
  Buffer pkt = {9};
  auto out = injector.Filter(kPeer, pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].datagram, pkt);
  EXPECT_EQ(out[1].datagram, pkt);
  EXPECT_EQ(injector.duplicated(), 1u);
}

TEST(FaultInjectorTest, ReorderHoldsThenReleases) {
  FaultInjector::Config config;
  config.reorder_probability = 1.0;
  FaultInjector injector(config);
  // First packet is held back...
  auto first = injector.Filter(kPeer, Buffer{1});
  EXPECT_TRUE(first.empty());
  // ...the next call ships the newer packet first, then the held one:
  // the reorder (only one packet can be held at a time).
  auto second = injector.Filter(kPeer, Buffer{2});
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].datagram, (Buffer{2}));
  EXPECT_EQ(second[1].datagram, (Buffer{1}));
  // Flush drains any held packet.
  auto third = injector.Filter(kPeer, Buffer{3});
  EXPECT_TRUE(third.empty());
  auto flushed = injector.Flush();
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->datagram, (Buffer{3}));
  // The hold kept the peer it was bound for.
  EXPECT_EQ(flushed->to, kPeer);
  EXPECT_FALSE(injector.Flush().has_value());
}

// --- shm ring & registry ---------------------------------------------------

TEST(ShmRingTest, TransfersMessagesThroughChunks) {
  std::vector<std::pair<transport::SockAddr, SharedBuffer>> delivered;
  ShmRing ring([&](const transport::SockAddr& from, SharedBuffer message) {
    delivered.emplace_back(from, std::move(message));
  });
  Buffer big(3 * ShmRing::kChunk + 500);
  FillPattern(big, 4);
  const auto from = transport::SockAddr::Loopback(1234);
  ASSERT_TRUE(ring.Transfer(from, big).ok());
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, from);
  EXPECT_EQ(delivered[0].second.size(), big.size());
  EXPECT_TRUE(CheckPattern(delivered[0].second.span(), 4));
}

TEST(ShmRingTest, EmptyMessage) {
  std::size_t calls = 0;
  ShmRing ring([&](const transport::SockAddr&, SharedBuffer message) {
    ++calls;
    EXPECT_TRUE(message.empty());
  });
  ASSERT_TRUE(ring.Transfer(transport::SockAddr::Loopback(1), {}).ok());
  EXPECT_EQ(calls, 1u);
}

TEST(ShmRingTest, ClosedRingRefusesTransfers) {
  std::size_t calls = 0;
  ShmRing ring([&](const transport::SockAddr&, SharedBuffer) { ++calls; });
  ring.Close();
  EXPECT_EQ(ring.Transfer(transport::SockAddr::Loopback(1), Buffer{1}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(calls, 0u);
}

TEST(ShmRingTest, CloseWaitsForTransferInFlight) {
  std::atomic<bool> delivering{false};
  std::atomic<bool> release{false};
  std::atomic<bool> closed{false};
  ShmRing ring([&](const transport::SockAddr&, SharedBuffer) {
    delivering = true;
    while (!release.load()) std::this_thread::sleep_for(Millis(1));
  });
  std::thread sender([&] {
    EXPECT_TRUE(ring.Transfer(transport::SockAddr::Loopback(1), Buffer{1}).ok());
  });
  while (!delivering.load()) std::this_thread::sleep_for(Millis(1));
  std::thread closer([&] {
    ring.Close();
    closed = true;
  });
  std::this_thread::sleep_for(Millis(50));
  EXPECT_FALSE(closed.load()) << "Close returned while a delivery ran";
  release = true;
  closer.join();
  sender.join();
  EXPECT_TRUE(closed.load());
}

TEST(ShmRegistryTest, RegisterLookupUnregister) {
  auto& registry = ShmRegistry::Instance();
  const auto addr = transport::SockAddr::Loopback(54321);
  EXPECT_EQ(registry.Lookup(addr), nullptr);
  auto ring = std::make_shared<ShmRing>(
      [](const transport::SockAddr&, SharedBuffer) {});
  registry.Register(addr, ring);
  EXPECT_EQ(registry.Lookup(addr), ring);
  registry.Unregister(addr);
  EXPECT_EQ(registry.Lookup(addr), nullptr);
}

// --- window behaviour --------------------------------------------------------

TEST(ClfWindowTest, TinyWindowStillDeliversLargeMessage) {
  // window_packets=2 forces the sender to block repeatedly waiting for
  // acks mid-message; the message must still arrive intact.
  Endpoint::Options opts;
  opts.window_packets = 2;
  opts.initial_rto = Millis(5);
  auto a = CreateSinkEndpoint(opts);
  auto b = CreateSinkEndpoint({});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Buffer msg(500 * 1024);  // ~9 fragments through a 2-packet window
  FillPattern(msg, 77);
  ASSERT_TRUE((*a)->Send((*b)->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b->Next(got, from, Deadline::AfterMillis(30000)).ok());
  ASSERT_EQ(got.size(), msg.size());
  EXPECT_TRUE(CheckPattern(got, 77));
}

TEST(ClfWindowTest, TinyWindowUnderLoss) {
  Endpoint::Options opts;
  opts.window_packets = 2;
  opts.initial_rto = Millis(5);
  opts.faults.drop_probability = 0.2;
  opts.faults.seed = 3;
  auto a = CreateSinkEndpoint(opts);
  auto b = CreateSinkEndpoint({});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Buffer msg(200 * 1024);
  FillPattern(msg, 99);
  ASSERT_TRUE((*a)->Send((*b)->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b->Next(got, from, Deadline::AfterMillis(30000)).ok());
  EXPECT_TRUE(CheckPattern(got, 99));
  EXPECT_GT(a->registry->GetCounter("clf.retransmissions").Value(), 0u);
}

TEST(ClfStatsTest, CountersReflectTraffic) {
  auto a = CreateSinkEndpoint({});
  auto b = CreateSinkEndpoint({});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Buffer msg(150 * 1024);  // 3 fragments
  FillPattern(msg, 1);
  ASSERT_TRUE((*a)->Send((*b)->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b->Next(got, from, Deadline::AfterMillis(10000)).ok());
  EXPECT_GE(a->registry->GetCounter("clf.data_packets_sent").Value(), 3u);
  EXPECT_GE(b->registry->GetCounter("clf.data_packets_received").Value(), 3u);
  // The ack follows delivery: it leaves once b has read its socket empty.
  const TimePoint give_up = Now() + Millis(10000);
  while (b->registry->GetCounter("clf.acks_sent").Value() < 1 &&
         Now() < give_up) {
    std::this_thread::sleep_for(Millis(1));
  }
  EXPECT_GE(b->registry->GetCounter("clf.acks_sent").Value(), 1u);
  EXPECT_EQ(b->registry->GetCounter("clf.messages_delivered").Value(), 1u);
}

}  // namespace
}  // namespace dstampede::clf
