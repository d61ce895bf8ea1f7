// Concurrency stress: many threads hammering one channel, concurrent
// senders over one CLF endpoint, a wide runtime with crossing flows,
// and listener churn (devices joining/leaving rapidly).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "clf_sink.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede {
namespace {

TEST(StressTest, ManyProducersManyConsumersOneChannel) {
  core::LocalChannel ch{core::ChannelAttr{}};
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr Timestamp kPerProducer = 100;

  // Attach every consumer connection up front: items reclaim as soon as
  // all *attached* inputs consume them, so a late joiner would
  // (correctly) find early timestamps below the reclaim horizon.
  std::vector<std::uint32_t> conns;
  for (int c = 0; c < kConsumers; ++c) {
    conns.push_back(ch.Attach(core::ConnMode::kInput, "c"));
  }

  std::vector<std::thread> threads;
  // Producers own disjoint timestamp ranges.
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (Timestamp i = 0; i < kPerProducer; ++i) {
        const Timestamp ts = p * kPerProducer + i;
        Buffer b(32);
        FillPattern(b, static_cast<std::uint64_t>(ts));
        ASSERT_TRUE(
            ch.Put(ts, SharedBuffer(std::move(b)), Deadline::Infinite()).ok());
      }
    });
  }
  // Consumers each read and consume every timestamp.
  std::atomic<int> validated{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, conn = conns[c]] {
      for (Timestamp ts = 0; ts < kProducers * kPerProducer; ++ts) {
        auto item =
            ch.Get(conn, core::GetSpec::Exact(ts), Deadline::AfterMillis(30000));
        ASSERT_TRUE(item.ok()) << item.status();
        ASSERT_TRUE(CheckPattern(item->payload.span(),
                                 static_cast<std::uint64_t>(ts)));
        ASSERT_TRUE(ch.Consume(conn, ts).ok());
        validated.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(validated.load(), kProducers * kConsumers * kPerProducer);
  EXPECT_EQ(ch.live_items(), 0u);
}

TEST(StressTest, ConcurrentSendersOverOneClfEndpoint) {
  auto receiver = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(receiver.ok());
  constexpr int kSenders = 3;
  constexpr int kPerSender = 60;

  std::vector<clf::SinkEndpoint> senders;
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    auto ep = clf::CreateSinkEndpoint({});
    ASSERT_TRUE(ep.ok());
    senders.push_back(std::move(ep).value());
  }
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        Buffer msg(2048);
        FillPattern(msg, static_cast<std::uint64_t>(s) * 10000 + i);
        ASSERT_TRUE(senders[s]->Send((*receiver)->addr(), msg).ok());
      }
    });
  }
  // Per-sender streams must each arrive in order.
  std::map<transport::SockAddr, int> next_index;
  for (int got = 0; got < kSenders * kPerSender; ++got) {
    Buffer msg;
    transport::SockAddr from;
    ASSERT_TRUE(receiver->Next(msg, from, Deadline::AfterMillis(30000)).ok());
    int sender = -1;
    for (int s = 0; s < kSenders; ++s) {
      if (senders[s]->addr() == from) sender = s;
    }
    ASSERT_GE(sender, 0);
    const int index = next_index[from]++;
    EXPECT_TRUE(CheckPattern(
        msg, static_cast<std::uint64_t>(sender) * 10000 + index))
        << "sender " << sender << " message " << index << " out of order";
  }
  for (auto& t : threads) t.join();
}

TEST(StressTest, CrossingFlowsAcrossFourAddressSpaces) {
  core::Runtime::Options opts;
  opts.num_address_spaces = 4;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());

  // Each AS hosts a channel; each AS produces into the next AS's
  // channel and consumes its own — a ring of crossing remote flows.
  constexpr Timestamp kFrames = 40;
  std::vector<ChannelId> channels;
  for (std::size_t i = 0; i < 4; ++i) {
    auto ch = (*rt)->as(i).CreateChannel();
    ASSERT_TRUE(ch.ok());
    channels.push_back(*ch);
  }
  std::atomic<int> done{0};
  for (std::size_t i = 0; i < 4; ++i) {
    (*rt)->as(i).Spawn("producer", [&, i] {
      auto out = (*rt)->as(i).Connect(channels[(i + 1) % 4],
                                      core::ConnMode::kOutput);
      if (!out.ok()) return;
      for (Timestamp ts = 0; ts < kFrames; ++ts) {
        Buffer b(1024);
        FillPattern(b, static_cast<std::uint64_t>(i) * 1000 + ts);
        if (!(*rt)->as(i).Put(*out, ts, std::move(b)).ok()) return;
      }
    });
    (*rt)->as(i).Spawn("consumer", [&, i] {
      auto in = (*rt)->as(i).Connect(channels[i], core::ConnMode::kInput);
      if (!in.ok()) return;
      const std::size_t producer = (i + 3) % 4;
      for (Timestamp ts = 0; ts < kFrames; ++ts) {
        auto item = (*rt)->as(i).Get(*in, core::GetSpec::Exact(ts),
                                     Deadline::AfterMillis(30000));
        if (!item.ok()) return;
        if (!CheckPattern(item->payload.span(),
                          static_cast<std::uint64_t>(producer) * 1000 + ts)) {
          return;
        }
        if (!(*rt)->as(i).Consume(*in, ts).ok()) return;
      }
      done.fetch_add(1);
    });
  }
  for (std::size_t i = 0; i < 4; ++i) (*rt)->as(i).JoinThreads();
  EXPECT_EQ(done.load(), 4);
}

TEST(StressTest, DeviceChurnAgainstOneListener) {
  core::Runtime::Options opts;
  opts.num_address_spaces = 2;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto listener = client::Listener::Start(**rt);
  ASSERT_TRUE(listener.ok());

  constexpr int kWaves = 3;
  constexpr int kDevicesPerWave = 5;
  std::atomic<int> ok_count{0};
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> devices;
    for (int d = 0; d < kDevicesPerWave; ++d) {
      devices.emplace_back([&, wave, d] {
        client::CClient::Options copts;
        copts.server = (*listener)->addr();
        copts.name = "churn-" + std::to_string(wave) + "-" + std::to_string(d);
        auto device = client::CClient::Join(copts);
        if (!device.ok()) return;
        auto ch = (*device)->CreateChannel();
        if (!ch.ok()) return;
        auto out = (*device)->Connect(*ch, core::ConnMode::kOutput);
        auto in = (*device)->Connect(*ch, core::ConnMode::kInput);
        if (!out.ok() || !in.ok()) return;
        for (Timestamp ts = 0; ts < 5; ++ts) {
          if (!(*device)->Put(*out, ts, Buffer(256)).ok()) return;
          auto item = (*device)->Get(*in, core::GetSpec::Exact(ts),
                                     Deadline::AfterMillis(10000));
          if (!item.ok()) return;
          if (!(*device)->Consume(*in, ts).ok()) return;
        }
        if ((*device)->Leave().ok()) ok_count.fetch_add(1);
      });
    }
    for (auto& t : devices) t.join();
  }
  EXPECT_EQ(ok_count.load(), kWaves * kDevicesPerWave);
  // Every wave left cleanly; give surrogate threads a beat to retire.
  for (int i = 0; i < 100 && (*listener)->surrogates_in(
                                 client::Surrogate::State::kLeft) <
                                 static_cast<std::size_t>(kWaves * kDevicesPerWave);
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ((*listener)->surrogates_in(client::Surrogate::State::kLeft),
            static_cast<std::size_t>(kWaves * kDevicesPerWave));
  (*listener)->Shutdown();
}

TEST(StressTest, ReconnectChurnLosesAndDuplicatesNothing) {
  // Randomized connection kills on the device<->surrogate TCP edge
  // while a client streams into a queue: with probability 0.05 the
  // surrogate drops the link before executing a request, forcing a
  // transparent reconnect + replay. Every acked put must land exactly
  // once and in order; the client must finish without a surfaced error.
  core::Runtime::Options opts;
  opts.num_address_spaces = 2;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();

  clf::FaultInjector::Config cfg;
  cfg.connection_kill_probability = 0.05;
  cfg.seed = 0xC0FFEE;
  clf::FaultInjector edge_faults(cfg);

  client::Listener::Options lopts;
  lopts.edge_faults = &edge_faults;
  auto listener = client::Listener::Start(**rt, lopts);
  ASSERT_TRUE(listener.ok()) << listener.status();

  client::CClient::Options copts;
  copts.server = (*listener)->addr();
  auto joined = client::CClient::Join(copts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  auto& client = *joined;

  auto q = client->CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto out = client->Connect(*q, core::ConnMode::kOutput);
  auto in = client->Connect(*q, core::ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  constexpr int kOps = 300;
  for (int i = 0; i < kOps; ++i) {
    Status s = client->Put(*out, i, Buffer{static_cast<std::uint8_t>(i),
                                           static_cast<std::uint8_t>(i >> 8)});
    ASSERT_TRUE(s.ok()) << "put " << i << ": " << s;
  }
  for (int i = 0; i < kOps; ++i) {
    auto item = client->Get(*in, Deadline::AfterMillis(10000));
    ASSERT_TRUE(item.ok()) << "get " << i << ": " << item.status();
    const auto bytes = item->payload.ToVector();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(i)) << "at " << i;
    EXPECT_EQ(bytes[1], static_cast<std::uint8_t>(i >> 8)) << "at " << i;
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout)
      << "a duplicated put would leave an extra item behind";

  // With ~600+ consults at p=0.05, the odds of zero kills are nil — the
  // run above really did exercise the reconnect path.
  EXPECT_GT(edge_faults.connections_killed(), 0u);
  EXPECT_EQ(client->reconnects(), edge_faults.connections_killed());
  EXPECT_EQ((*listener)->sessions_resumed(), edge_faults.connections_killed());

  ASSERT_TRUE(client->Leave().ok());
  (*listener)->Shutdown();
}

}  // namespace
}  // namespace dstampede
