// Deterministic-simulation unit coverage: VirtualClock semantics, the
// clock seam in Deadline/CondVar/TimerWheel, the modeled network's
// delayed-delivery queue, fault-schedule generation + shrinking, the
// extracted reconnect-backoff schedule, and the fault-injector flush
// regression (a reorder-held packet must not be stranded).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "clf_sink.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/waiter.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/sim/scenario.hpp"
#include "dstampede/sim/sim.hpp"

namespace dstampede {
namespace {

// --- VirtualClock ----------------------------------------------------------

TEST(VirtualClockTest, NowIsFrozenUntilAdvanced) {
  VirtualClock clock;
  clock.Install();
  const TimePoint t0 = Now();
  std::this_thread::sleep_for(Millis(5));  // real time passes...
  EXPECT_EQ(Now(), t0);                    // ...virtual time does not
  clock.AdvanceBy(Millis(30));
  EXPECT_EQ(Now(), t0 + Millis(30));
  clock.Uninstall();
  EXPECT_EQ(InstalledVirtualClock(), nullptr);
}

TEST(VirtualClockTest, AdvanceIsMonotone) {
  VirtualClock clock;
  const TimePoint t0 = clock.Now();
  clock.AdvanceTo(t0 + Millis(10));
  clock.AdvanceTo(t0 + Millis(5));  // into the past: no-op
  EXPECT_EQ(clock.Now(), t0 + Millis(10));
}

TEST(VirtualClockTest, SleepForWakesOnAdvance) {
  VirtualClock clock;
  clock.Install();
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    dstampede::SleepFor(Millis(50));  // virtual: a frozen clock blocks
    woke = true;
  });
  // Give the sleeper real time to park; virtual time hasn't moved, so
  // it must still be asleep.
  std::this_thread::sleep_for(Millis(20));
  EXPECT_FALSE(woke.load());
  // Keep advancing on real time: a sleeper scheduled late parks its
  // target after the first advance and needs another.
  const TimePoint real_give_up =
      SteadyClock::now() + std::chrono::seconds(5);
  while (!woke.load() && SteadyClock::now() < real_give_up) {
    clock.AdvanceBy(Millis(50));
    std::this_thread::sleep_for(Millis(1));
  }
  sleeper.join();
  EXPECT_TRUE(woke.load());
  clock.Uninstall();
}

TEST(VirtualClockTest, UninstallWakesVirtualSleepers) {
  VirtualClock clock;
  clock.Install();
  std::thread sleeper([&] { dstampede::SleepFor(Millis(60'000)); });
  std::this_thread::sleep_for(Millis(10));
  clock.Uninstall();  // teardown must not strand the sleeper
  sleeper.join();
  SUCCEED();
}

TEST(VirtualClockTest, AdvanceUntilQuiescentRunsSleepChains) {
  VirtualClock clock;
  clock.Install();
  std::atomic<int> naps{0};
  std::thread sleeper([&] {
    for (int i = 0; i < 3; ++i) {
      dstampede::SleepFor(Millis(10));
      ++naps;
    }
  });
  // A simulated minute of horizon covers the 30ms chain; quiescence
  // (or `done`) stops the advance long before the horizon.
  clock.AdvanceUntilQuiescent(Millis(60'000), [&] { return naps == 3; });
  sleeper.join();
  EXPECT_EQ(naps.load(), 3);
  clock.Uninstall();
}

TEST(VirtualClockTest, NextEventTimeSeesPendingSleep) {
  VirtualClock clock;
  clock.Install();
  EXPECT_FALSE(clock.NextEventTime().has_value());
  const TimePoint target = clock.Now() + Millis(25);
  std::thread sleeper([&] { clock.SleepUntil(target); });
  // Wait (real time) until the sleeper registered.
  while (clock.pending_waits() == 0) std::this_thread::sleep_for(Millis(1));
  auto next = clock.NextEventTime();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, target);
  clock.AdvanceTo(target);
  sleeper.join();
  clock.Uninstall();
}

// --- Deadline under virtual time ------------------------------------------

TEST(DeadlineVirtualTest, PollAndInfiniteEdgeCases) {
  VirtualClock clock;
  clock.Install();
  EXPECT_TRUE(Deadline::Poll().expired());
  EXPECT_FALSE(Deadline::Poll().infinite());
  EXPECT_FALSE(Deadline::Infinite().expired());
  EXPECT_TRUE(Deadline::Infinite().infinite());
  EXPECT_EQ(Deadline::Infinite().remaining(), Duration::max());
  clock.AdvanceBy(Millis(100'000));
  EXPECT_TRUE(Deadline::Poll().expired());
  EXPECT_FALSE(Deadline::Infinite().expired());
  clock.Uninstall();
}

TEST(DeadlineVirtualTest, AfterMaturesOnAdvanceOnly) {
  VirtualClock clock;
  clock.Install();
  const Deadline d = Deadline::AfterMillis(50);
  std::this_thread::sleep_for(Millis(5));  // real time is irrelevant
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Millis(50));
  clock.AdvanceBy(Millis(49));
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Millis(1));
  clock.AdvanceBy(Millis(1));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), Duration::zero());
  clock.Uninstall();
}

// --- CondVar timed waits under virtual time -------------------------------

TEST(CondVarVirtualTest, WaitUntilTimesOutWhenClockAdvances) {
  VirtualClock clock;
  clock.Install();
  ds::Mutex mu;
  ds::CondVar cv;
  std::atomic<bool> timed_out{false};
  std::thread waiter([&] {
    ds::MutexLock lock(mu);
    timed_out = !cv.WaitUntil(mu, Deadline::AfterMillis(40));
  });
  std::this_thread::sleep_for(Millis(20));
  EXPECT_FALSE(timed_out.load()) << "deadline matured without an advance";
  // Keep advancing on real time: if the waiter thread was scheduled
  // late, its deadline anchors after the first advance and needs more.
  const TimePoint real_give_up =
      SteadyClock::now() + std::chrono::seconds(5);
  while (!timed_out.load() && SteadyClock::now() < real_give_up) {
    clock.AdvanceBy(Millis(50));
    std::this_thread::sleep_for(Millis(1));
  }
  waiter.join();
  EXPECT_TRUE(timed_out.load());
  clock.Uninstall();
}

TEST(CondVarVirtualTest, NotifyBeatsVirtualDeadline) {
  VirtualClock clock;
  clock.Install();
  ds::Mutex mu;
  ds::CondVar cv;
  std::atomic<bool> ready{false};
  std::atomic<bool> notified{false};
  std::thread waiter([&] {
    ds::MutexLock lock(mu);
    while (!ready.load()) {
      if (!cv.WaitUntil(mu, Deadline::AfterMillis(60'000))) break;
    }
    notified = ready.load();
  });
  std::this_thread::sleep_for(Millis(10));
  {
    ds::MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  }
  waiter.join();
  EXPECT_TRUE(notified.load()) << "notification lost under virtual time";
  clock.Uninstall();
}

// --- TimerWheel under virtual time (satellite: two-on-a-tick,
// cancel racing an advance, Poll/Infinite edges). The wheel has no
// thread: each test fires it through RunDue at the virtual now. ---------

TEST(TimerWheelVirtualTest, TwoDeadlinesOnTheSameTickBothFire) {
  VirtualClock clock;
  clock.Install();
  TimerWheel wheel;
  const TimePoint tick = Now() + Millis(20);
  int fired = 0;
  wheel.Schedule(Deadline::At(tick), [&] { fired += 1; });
  wheel.Schedule(Deadline::At(tick), [&] { fired += 10; });
  EXPECT_EQ(wheel.pending(), 2u);
  EXPECT_EQ(wheel.RunDue(Now()), tick);
  EXPECT_EQ(fired, 0) << "fired before the tick";
  clock.AdvanceTo(tick);
  EXPECT_EQ(wheel.RunDue(Now()), TimePoint::max());
  EXPECT_EQ(fired, 11) << "both same-tick timers must fire";
  EXPECT_EQ(wheel.pending(), 0u);
  clock.Uninstall();
}

TEST(TimerWheelVirtualTest, CancellationRacingAdvanceFiresExactlyOnceOrNot) {
  VirtualClock clock;
  clock.Install();
  TimerWheel wheel;
  for (int i = 0; i < 25; ++i) {
    std::atomic<int> fired{0};
    const TimerWheel::TimerId id =
        wheel.Schedule(Deadline::AfterMillis(5), [&] { ++fired; });
    // The wheel's owner steps time past the deadline and fires it while
    // this thread cancels.
    std::thread owner([&] {
      clock.AdvanceBy(Millis(10));
      wheel.RunDue(clock.Now());
    });
    const bool cancelled = wheel.Cancel(id);
    owner.join();
    if (cancelled) {
      EXPECT_EQ(fired.load(), 0) << "iteration " << i
                                 << ": cancelled timer fired";
    } else {
      EXPECT_EQ(fired.load(), 1) << "iteration " << i
                                 << ": uncancelled timer must fire once";
    }
    EXPECT_EQ(wheel.pending(), 0u);
  }
  clock.Uninstall();
}

TEST(TimerWheelVirtualTest, PollDeadlineFiresWithoutAnyAdvance) {
  VirtualClock clock;
  clock.Install();
  TimerWheel wheel;
  bool fired = false;
  const TimerWheel::TimerId id =
      wheel.Schedule(Deadline::Poll(), [&] { fired = true; });
  EXPECT_NE(id, 0u);
  // Already due: the first run fires it, no advance needed.
  const TimePoint before = Now();
  EXPECT_EQ(wheel.RunDue(Now()), TimePoint::max());
  EXPECT_TRUE(fired);
  EXPECT_EQ(Now(), before);
  clock.Uninstall();
}

TEST(TimerWheelVirtualTest, InfiniteDeadlineIsNeverScheduled) {
  VirtualClock clock;
  clock.Install();
  TimerWheel wheel;
  EXPECT_EQ(wheel.Schedule(Deadline::Infinite(), [] {}), 0u);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_FALSE(wheel.Cancel(0));
  EXPECT_EQ(wheel.RunDue(Now() + Millis(60'000)), TimePoint::max());
  clock.Uninstall();
}

TEST(TimerWheelVirtualTest, EndpointPassEndsOnItsNextEntrysDeadline) {
  VirtualClock clock;
  clock.Install();
  auto ep = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(ep.ok()) << ep.status();
  TimerWheel& timers = (*ep)->timers();
  // An entry the receiver schedules itself, 2 ms ahead, is due before
  // its next 5 ms slice ends: that pass polls only until the entry's
  // deadline and registers it, so the controller steps onto it.
  std::atomic<std::int64_t> late_us{-1};
  timers.Schedule(Deadline::Poll(), [&] {
    const TimePoint due = Now() + Millis(2);
    timers.Schedule(Deadline::At(due),
                    [&, due] { late_us = ToMicros(Now() - due); });
  });
  clock.AdvanceUntilQuiescent(Millis(1000), [&] { return late_us >= 0; });
  EXPECT_EQ(late_us.load(), 0) << "fired after its deadline";
  (*ep)->Shutdown();
  clock.Uninstall();
}

}  // namespace
}  // namespace dstampede

namespace dstampede::clf {
namespace {

// --- flush regression: a reorder-held packet is not stranded --------------

TEST(FaultInjectorFlushTest, HeldPacketRemembersDestination) {
  FaultInjector::Config config;
  config.reorder_probability = 1.0;
  FaultInjector injector(config);
  const auto peer = transport::SockAddr::Loopback(7777);
  EXPECT_TRUE(injector.Filter(peer, Buffer{1}).empty());
  auto held = injector.Flush();
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->to, peer);
  EXPECT_EQ(held->datagram, (Buffer{1}));
}

TEST(FaultInjectorFlushTest, ReleasedHoldKeepsItsOwnDestination) {
  FaultInjector::Config config;
  config.reorder_probability = 1.0;
  FaultInjector injector(config);
  const auto peer_a = transport::SockAddr::Loopback(7001);
  const auto peer_b = transport::SockAddr::Loopback(7002);
  // First packet (to A) is held; the second (to B) ships and releases
  // the hold — which must still be addressed to A, not B.
  EXPECT_TRUE(injector.Filter(peer_a, Buffer{1}).empty());
  auto out = injector.Filter(peer_b, Buffer{2});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].to, peer_b);
  EXPECT_EQ(out[0].datagram, (Buffer{2}));
  EXPECT_EQ(out[1].to, peer_a);
  EXPECT_EQ(out[1].datagram, (Buffer{1}));
}

TEST(FaultInjectorFlushTest, EndpointIdleScanDeliversHeldPacket) {
  // reorder=1.0 holds the only data packet ever sent; a huge RTO keeps
  // retransmission from covering for it. Only the endpoint's idle-scan
  // flush can deliver it — the regression this test pins down.
  Endpoint::Options sender_opts;
  sender_opts.faults.reorder_probability = 1.0;
  sender_opts.initial_rto = Millis(60'000);
  sender_opts.max_rto = Millis(60'000);
  auto sender = CreateSinkEndpoint(sender_opts);
  ASSERT_TRUE(sender.ok()) << sender.status();
  auto receiver = CreateSinkEndpoint({});
  ASSERT_TRUE(receiver.ok()) << receiver.status();

  ASSERT_TRUE((*sender)->Send((*receiver)->addr(), Buffer{42}).ok());
  Buffer got;
  transport::SockAddr from;
  Status s = receiver->Next(got, from, Deadline::AfterMillis(5000));
  ASSERT_TRUE(s.ok()) << s << " — held packet was stranded";
  EXPECT_EQ(got, (Buffer{42}));
  EXPECT_EQ(sender->registry->GetCounter("clf.retransmissions").Value(), 0u)
      << "delivery must come from the flush path, not retransmission";
}

// --- modeled network -------------------------------------------------------

TEST(ModeledNetworkTest, LatencyParksPacketUntilDue) {
  FaultInjector injector;
  const auto peer = transport::SockAddr::Loopback(8001);
  FaultInjector::LinkProfile profile;
  profile.latency = Millis(50);
  injector.SetLinkProfile(peer, profile);
  EXPECT_TRUE(injector.active());

  const TimePoint t0 = Now();
  EXPECT_TRUE(injector.Filter(peer, Buffer{1, 2}).empty());
  EXPECT_EQ(injector.delayed_pending(), 1u);
  auto due = injector.NextDeliveryTime();
  ASSERT_TRUE(due.has_value());
  EXPECT_GE(*due, t0 + Millis(50));

  EXPECT_TRUE(injector.TakeDue(t0).empty());
  auto released = injector.TakeDue(*due);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].to, peer);
  EXPECT_EQ(released[0].datagram, (Buffer{1, 2}));
  EXPECT_EQ(injector.delayed_pending(), 0u);

  const auto totals = injector.TotalCounters();
  EXPECT_EQ(totals.delayed, 1u);
  EXPECT_EQ(totals.delivered, 1u);
}

TEST(ModeledNetworkTest, LossDropsDeterministically) {
  FaultInjector injector;
  const auto peer = transport::SockAddr::Loopback(8002);
  FaultInjector::LinkProfile profile;
  profile.loss = 1.0;
  injector.SetLinkProfile(peer, profile);
  EXPECT_TRUE(injector.Filter(peer, Buffer{9}).empty());
  EXPECT_EQ(injector.delayed_pending(), 0u);
  EXPECT_EQ(injector.TotalCounters().link_dropped, 1u);
  const auto per_link = injector.PerLinkCounters();
  ASSERT_EQ(per_link.count(peer), 1u);
  EXPECT_EQ(per_link.at(peer).dropped, 1u);
}

TEST(ModeledNetworkTest, BandwidthSerializesBackToBack) {
  FaultInjector injector;
  const auto peer = transport::SockAddr::Loopback(8003);
  FaultInjector::LinkProfile profile;
  profile.bandwidth_bps = 8'000;  // 1 byte per millisecond
  injector.SetLinkProfile(peer, profile);

  const TimePoint t0 = Now();
  EXPECT_TRUE(injector.Filter(peer, Buffer(100, 0xAA)).empty());  // ~100ms
  EXPECT_TRUE(injector.Filter(peer, Buffer(100, 0xBB)).empty());  // queues
  EXPECT_EQ(injector.delayed_pending(), 2u);
  // At t0+150ms only the first packet has finished serializing.
  auto first = injector.TakeDue(t0 + Millis(150));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].datagram[0], 0xAA);
  auto second = injector.TakeDue(t0 + Millis(250));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].datagram[0], 0xBB);
}

TEST(ModeledNetworkTest, DefaultProfileAppliesToUnknownLinks) {
  FaultInjector injector;
  FaultInjector::LinkProfile slow;
  slow.latency = Millis(30);
  injector.SetDefaultLinkProfile(slow);
  EXPECT_TRUE(
      injector.Filter(transport::SockAddr::Loopback(8004), Buffer{1}).empty());
  EXPECT_EQ(injector.delayed_pending(), 1u);
  injector.ClearLinkProfiles();
  // Parked packets still deliver after profiles are cleared.
  EXPECT_EQ(injector.TakeDue(TimePoint::max()).size(), 1u);
  EXPECT_FALSE(injector.active());
  // New packets pass through untouched now.
  EXPECT_EQ(
      injector.Filter(transport::SockAddr::Loopback(8004), Buffer{2}).size(),
      1u);
}

TEST(ModeledNetworkTest, SummaryMentionsCounters) {
  FaultInjector injector;
  FaultInjector::LinkProfile profile;
  profile.latency = Millis(10);
  injector.SetLinkProfile(transport::SockAddr::Loopback(8005), profile);
  (void)injector.Filter(transport::SockAddr::Loopback(8005), Buffer{1});
  const std::string summary = injector.Summary();
  EXPECT_NE(summary.find("delayed=1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("links=1"), std::string::npos) << summary;
}

}  // namespace
}  // namespace dstampede::clf

namespace dstampede::sim {
namespace {

// --- SimController ---------------------------------------------------------

TEST(SimControllerTest, SeedFromEnvOverridesFallback) {
  ::unsetenv("DSTAMPEDE_SIM_SEED");
  EXPECT_EQ(SimController::SeedFromEnv(7), 7u);
  ::setenv("DSTAMPEDE_SIM_SEED", "12345", 1);
  EXPECT_EQ(SimController::SeedFromEnv(7), 12345u);
  ::setenv("DSTAMPEDE_SIM_SEED", "not-a-number", 1);
  EXPECT_EQ(SimController::SeedFromEnv(7), 7u);
  ::unsetenv("DSTAMPEDE_SIM_SEED");
}

TEST(SimControllerTest, SameSeedSameTraceHashDistinctSeedsDiffer) {
  auto run = [](std::uint64_t seed) {
    SimController sim(seed);
    ScheduleParams params;
    params.num_spaces = 8;
    params.num_events = 12;
    FaultSchedule schedule = GenerateSchedule(sim.rng(), params);
    for (const FaultEvent& ev : schedule) sim.Record(ev.ToString());
    sim.RunFor(Millis(200));
    sim.Record("devices=" + std::to_string(sim.UniformInt(1, 1000)));
    return sim.TraceHash();
  };
  const std::uint64_t a1 = run(42);
  const std::uint64_t a2 = run(42);
  const std::uint64_t b = run(43);
  EXPECT_EQ(a1, a2) << "same seed must replay the same trace";
  EXPECT_NE(a1, b) << "distinct seeds must produce distinct traces";
}

TEST(SimControllerTest, RunForAdvancesVirtualTimeFast) {
  SimController sim(1);
  const TimePoint t0 = sim.Now();
  const TimePoint wall0 = SteadyClock::now();
  sim.RunFor(Millis(60'000));  // one simulated minute
  EXPECT_EQ(sim.Now(), t0 + Millis(60'000));
  EXPECT_LT(SteadyClock::now() - wall0, Millis(5'000))
      << "a simulated minute must run in (milli)seconds of wall time";
}

TEST(SimControllerTest, PeersGetParkedAtTheOwnerTimesOutOnItsVirtualDeadline) {
  // No thread sleeps until a parked waiter's deadline: the owner's CLF
  // receiver registers it as its pass deadline and fires the waiter's
  // timer, so the controller must still step onto it.
  SimController sim(SimController::SeedFromEnv(25));
  core::Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.dispatcher_threads = 2;
  auto created = core::Runtime::Create(opts);
  ASSERT_TRUE(created.ok()) << created.status();
  // Shut down (joining the receivers) before the clock goes: a receiver
  // holds the clock it registered its pass with until the pass ends.
  std::unique_ptr<core::Runtime> rt = std::move(*created);
  auto ch = rt->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto in = rt->as(0).Connect(*ch, core::ConnMode::kInput);
  ASSERT_TRUE(in.ok()) << in.status();
  auto owned = rt->as(1).FindChannel(ch->bits());
  ASSERT_NE(owned, nullptr);

  // Time stands still until the controller moves it, so the owner
  // parks the get with the very deadline the peer set.
  const TimePoint deadline = sim.Now() + Millis(30);
  std::atomic<bool> returned{false};
  Status status;
  TimePoint returned_at{};
  std::thread getter([&] {
    auto item =
        rt->as(0).Get(*in, core::GetSpec::Exact(0), Deadline::At(deadline));
    status = item.status();
    returned_at = Now();
    returned = true;
  });
  const TimePoint give_up = SteadyClock::now() + std::chrono::seconds(10);
  while (owned->parked_get_waiters() == 0 && SteadyClock::now() < give_up) {
    std::this_thread::sleep_for(Millis(1));
  }
  EXPECT_EQ(owned->parked_get_waiters(), 1u) << "the get never parked";
  // Step from each registered deadline to the next, uncoalesced. The
  // horizon outlasts the peer's own 5 s of transport slack, so the
  // getter returns even if the owner's timer never fires.
  sim.clock().AdvanceUntilQuiescent(Millis(10'000),
                                    [&] { return returned.load(); });
  getter.join();
  EXPECT_EQ(status.code(), StatusCode::kTimeout) << status;
  EXPECT_GE(returned_at, deadline) << "returned before its deadline";
  EXPECT_LE(returned_at, deadline + Millis(5))
      << "returned " << ToMicros(returned_at - deadline)
      << " us after its deadline: more than one receiver pass";
  EXPECT_EQ(owned->parked_get_waiters(), 0u);
}

// --- schedule generation & shrinking --------------------------------------

TEST(ScheduleTest, GenerationIsDeterministicAndSorted) {
  ScheduleParams params;
  params.num_spaces = 10;
  params.num_events = 20;
  std::mt19937_64 rng1(99), rng2(99);
  const FaultSchedule s1 = GenerateSchedule(rng1, params);
  const FaultSchedule s2 = GenerateSchedule(rng2, params);
  EXPECT_EQ(ScheduleToString(s1), ScheduleToString(s2));
  ASSERT_FALSE(s1.empty());
  for (std::size_t i = 1; i < s1.size(); ++i) {
    EXPECT_LE(s1[i - 1].at, s1[i].at) << "schedule must be time-sorted";
  }
  std::size_t partitions = 0, heals = 0;
  for (const FaultEvent& ev : s1) {
    if (ev.kind == FaultEvent::Kind::kPartition) ++partitions;
    if (ev.kind == FaultEvent::Kind::kHeal) ++heals;
  }
  EXPECT_EQ(partitions, heals) << "every partition must pair with a heal";
}

TEST(ScheduleTest, ShrinkFindsTheSingleCulpritEvent) {
  std::mt19937_64 rng(7);
  ScheduleParams params;
  params.num_spaces = 6;
  params.num_events = 16;
  FaultSchedule schedule = GenerateSchedule(rng, params);
  ASSERT_GE(schedule.size(), 16u);
  // Plant a unique culprit: the only kKillConnection on space 5.
  FaultEvent culprit;
  culprit.kind = FaultEvent::Kind::kKillConnection;
  culprit.space_a = 5;
  culprit.at = Millis(500);
  schedule.push_back(culprit);

  int runs = 0;
  auto fails = [&](const FaultSchedule& candidate) {
    ++runs;
    for (const FaultEvent& ev : candidate) {
      if (ev.kind == FaultEvent::Kind::kKillConnection && ev.space_a == 5) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(fails(schedule));
  const FaultSchedule shrunk = ShrinkSchedule(schedule, fails);
  ASSERT_EQ(shrunk.size(), 1u) << ScheduleToString(shrunk);
  EXPECT_EQ(shrunk[0].kind, FaultEvent::Kind::kKillConnection);
  EXPECT_EQ(shrunk[0].space_a, 5u);
  EXPECT_TRUE(fails(shrunk)) << "shrunk schedule must still fail";
  EXPECT_GT(runs, 1);
}

TEST(ScheduleTest, ShrinkReturnsInputWhenNothingSmallerFails) {
  std::mt19937_64 rng(3);
  ScheduleParams params;
  params.num_events = 4;
  const FaultSchedule schedule = GenerateSchedule(rng, params);
  // Failure needs the *whole* schedule: nothing can be removed.
  const std::size_t full = schedule.size();
  const FaultSchedule shrunk = ShrinkSchedule(
      schedule,
      [&](const FaultSchedule& c) { return c.size() == full; });
  EXPECT_EQ(shrunk.size(), full);
}

}  // namespace
}  // namespace dstampede::sim

namespace dstampede::client {
namespace {

// --- the production backoff schedule, reused by the reconnect storm -------

TEST(ReconnectBackoffTest, DoublesToCapWithoutJitter) {
  ReconnectPolicy policy;
  policy.initial_backoff = Millis(10);
  policy.max_backoff = Millis(250);
  policy.jitter = 0.0;
  ReconnectBackoff backoff(policy, /*seed=*/1);
  std::vector<std::int64_t> naps;
  for (int i = 0; i < 8; ++i) {
    naps.push_back(ToMicros(backoff.NextNap()) / 1000);
  }
  EXPECT_EQ(naps, (std::vector<std::int64_t>{10, 20, 40, 80, 160, 250, 250,
                                             250}));
}

TEST(ReconnectBackoffTest, JitterBoundedAndSeedDeterministic) {
  ReconnectPolicy policy;  // jitter = 0.5
  ReconnectBackoff a(policy, 77), b(policy, 77), c(policy, 78);
  bool any_differs = false;
  Duration expected = policy.initial_backoff;
  for (int i = 0; i < 10; ++i) {
    const Duration na = a.NextNap();
    const Duration nb = b.NextNap();
    const Duration nc = c.NextNap();
    EXPECT_EQ(na, nb) << "same seed must reproduce the nap sequence";
    if (na != nc) any_differs = true;
    EXPECT_GE(na, expected);
    EXPECT_LT(na, expected + expected / 2 + Millis(1));
    expected = std::min(expected * 2, policy.max_backoff);
  }
  EXPECT_TRUE(any_differs) << "distinct seeds should jitter differently";
}

}  // namespace
}  // namespace dstampede::client
