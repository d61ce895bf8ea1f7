// The scenario swarm: whole-system simulations driven by SimController
// under virtual time. Each scenario is seed-parameterized via
// DSTAMPEDE_SIM_SEED (failures print the seed and, where a fault
// schedule is involved, the ddmin-shrunk schedule that still fails).
//
//   1. 50-space cluster bring-up with cross-cluster STM traffic;
//   2. partition cascade during surrogate failover (schedule-driven);
//   3. 1k-device reconnect storm over the production backoff schedule;
//   4. slow-link tail latency through the modeled network;
//   5. control-plane failover: the name-server leader and the session's
//      host die while a destructive queue read's reply is in flight.
//
// Scale contract (ISSUE acceptance): scenarios 1 and 3 each finish in
// under 10s of wall clock while covering minutes of simulated time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clf_sink.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/clf/fault_injector.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/metrics.hpp"
#include "dstampede/common/waiter.hpp"
#include "dstampede/core/replog.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/sim/scenario.hpp"
#include "dstampede/sim/sim.hpp"

namespace dstampede::sim {
namespace {

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0)
             ? static_cast<std::size_t>(parsed)
             : fallback;
}

std::string ReproHint(std::uint64_t seed) {
  return "reproduce with: DSTAMPEDE_SIM_SEED=" + std::to_string(seed) +
         " ctest -R ScenarioSwarm";
}

// Runs `fn` on a worker thread while the scenario thread advances
// virtual time. Anything that leans on virtual deadlines — CLF
// retransmit timers recovering a dropped datagram, internal RPC
// timeouts against an already-stopped space during Shutdown — only
// makes progress while time moves, so blocking work must never run on
// the thread that owns the clock. Returns false if `fn` outlived the
// real drive budget.
bool DriveToCompletion(SimController& sim, std::function<void()> fn) {
  // The worker owns copies of everything it touches: if it wedges past
  // the horizon it gets detached, and a detached thread must never
  // reach back into this (dead) stack frame. Callers pass lambdas that
  // capture shared_ptr state by value for the same reason.
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread worker([fn = std::move(fn), done] {
    fn();
    done->store(true);
  });
  // Virtual budget is effectively unlimited (slices keep coming), but
  // the *real* budget is capped: a wedged worker turns into a fast
  // test failure instead of grinding out a huge virtual horizon while
  // ctest's per-test timeout looms.
  const TimePoint real0 = SteadyClock::now();
  bool finished = false;
  while (!finished && SteadyClock::now() - real0 < Millis(20'000)) {
    finished = sim.RunUntil([&] { return done->load(); }, Millis(300'000));
  }
  if (finished) {
    worker.join();
  } else {
    worker.detach();  // leak rather than hang the whole suite
  }
  return finished;
}

// --- scenario 1: 50-space bring-up ----------------------------------------

TEST(ScenarioSwarmTest, FiftySpaceBringUpUnderTenSeconds) {
  const std::uint64_t seed = SimController::SeedFromEnv(1);
  SCOPED_TRACE(ReproHint(seed));
  const std::size_t spaces = EnvSize("DSTAMPEDE_SIM_SPACES", 50);
  const TimePoint wall0 = SteadyClock::now();

  // Worker-touched state lives on the heap, shared with the worker
  // lambdas: a worker that wedges past the horizon gets detached, and
  // its shared_ptr copy keeps the state alive. Declared before the
  // SimController so on teardown the clock uninstalls first and any
  // remaining destruction finishes under real time.
  struct BringUpState {
    std::string diag;
    std::unique_ptr<core::Runtime> rt;
  };
  auto st = std::make_shared<BringUpState>();
  SimController sim(seed);
  core::Runtime::Options opts;
  opts.num_address_spaces = spaces;
  opts.dispatcher_threads = 2;  // 50 spaces: bound the thread count

  // Bring-up and traffic run in a worker while the scenario thread
  // advances virtual time: the bring-up burst can drop real datagrams,
  // and CLF retransmit timers only mature as virtual time moves.
  const bool finished = DriveToCompletion(sim, [st, opts, spaces] {
    auto created = core::Runtime::Create(opts);
    if (!created.ok()) {
      st->diag = "create: " + created.status().ToString();
      return;
    }
    st->rt = std::move(*created);
    core::Runtime& rt = *st->rt;
    // Cross-cluster STM traffic: a channel on the last space, written
    // from the first, read back from a third.
    auto ch = rt.as(spaces - 1).CreateChannel();
    if (!ch.ok()) {
      st->diag = "channel: " + ch.status().ToString();
      return;
    }
    auto out = rt.as(0).Connect(*ch, core::ConnMode::kOutput);
    auto in = rt.as(spaces / 2).Connect(*ch, core::ConnMode::kInput);
    if (!out.ok() || !in.ok()) {
      st->diag = "connect failed";
      return;
    }
    for (Timestamp ts = 0; ts < 8; ++ts) {
      Status s = rt.as(0).Put(*out, ts, Buffer{static_cast<std::uint8_t>(ts)},
                              Deadline::AfterMillis(600'000));
      if (!s.ok()) {
        st->diag = "put: " + s.ToString();
        return;
      }
      auto item = rt.as(spaces / 2)
                      .Get(*in, core::GetSpec::Exact(ts),
                           Deadline::AfterMillis(600'000));
      if (!item.ok()) {
        st->diag = "get: " + item.status().ToString();
        return;
      }
    }
  });
  ASSERT_TRUE(finished) << "bring-up never completed inside the drive budget";
  ASSERT_TRUE(st->diag.empty()) << st->diag;
  ASSERT_EQ(st->rt->size(), spaces);
  sim.Record("bringup.spaces=" + std::to_string(spaces));
  sim.Record("bringup.traffic=ok");

  // A simulated minute of idle cluster passes in virtual time without
  // costing a minute of wall clock.
  sim.RunFor(Millis(60'000));
  if (!DriveToCompletion(sim, [st] { st->rt->Shutdown(); })) {
    // The detached worker's shared_ptr copy keeps the runtime alive.
    FAIL() << "shutdown wedged past the drive budget";
  }

  const Duration wall = SteadyClock::now() - wall0;
  EXPECT_LT(wall, Millis(10'000))
      << "bring-up burned " << ToMicros(wall) / 1000 << "ms of wall clock";
}

// --- scenario 2: partition cascade during surrogate failover --------------

struct CascadeOutcome {
  bool ok = false;
  std::string diag;
};

// One full run: a 4-space cluster, a client pinned to AS 1, a fault
// schedule applied at virtual offsets while AS 1 is shut down mid-run
// (forcing session migration), every partition healed by its paired
// heal event, and the client expected to finish all its Puts.
CascadeOutcome RunCascadeOnce(std::uint64_t seed,
                              const FaultSchedule& schedule) {
  CascadeOutcome outcome;
  // Worker-touched state lives on the heap, shared with the driven
  // worker lambdas: a worker that wedges past the horizon gets
  // detached, and its shared_ptr copy keeps the state alive instead of
  // reaching back into this (dead) stack frame. Declared before the
  // SimController so the clock uninstalls first on teardown and the
  // destructors finish under real time.
  struct CascadeState {
    std::unique_ptr<core::Runtime> rt;
    std::unique_ptr<client::Listener> listener;
    std::unique_ptr<client::CClient> client;
    Result<ChannelId> ch = InvalidArgumentError("unset");
    Result<core::Connection> conn = InvalidArgumentError("unset");
    std::string diag;
  };
  auto st = std::make_shared<CascadeState>();
  SimController sim(seed);

  // Setup performs real CLF/TCP round trips whose loss recovery needs
  // virtual time to move, so it runs driven like everything else.
  const bool setup_done = DriveToCompletion(sim, [st] {
    core::Runtime::Options ropts;
    ropts.num_address_spaces = 4;
    ropts.dispatcher_threads = 2;
    auto created = core::Runtime::Create(ropts);
    if (!created.ok()) {
      st->diag = "runtime: " + created.status().ToString();
      return;
    }
    st->rt = std::move(*created);
    auto l = client::Listener::Start(*st->rt, client::Listener::Options{});
    if (!l.ok()) {
      st->diag = "listener: " + l.status().ToString();
      return;
    }
    st->listener = std::move(*l);
    client::CClient::Options copts;
    copts.server = st->listener->addr();
    copts.name = "cascade-device";
    copts.preferred_as = 1;
    // Virtual time can outrun real reconnect progress by orders of
    // magnitude, so the virtual budget must be generous: ten simulated
    // minutes still costs well under a second of wall clock.
    copts.reconnect.give_up_after = Millis(600'000);
    auto joined = client::CClient::Join(copts);
    if (!joined.ok()) {
      st->diag = "join: " + joined.status().ToString();
      return;
    }
    st->client = std::move(*joined);
  });
  if (!setup_done) {
    outcome.diag = "setup never completed inside the drive budget";
    return outcome;
  }
  if (!st->diag.empty()) {
    outcome.diag = st->diag;
    return outcome;
  }

  if (!DriveToCompletion(sim, [st] {
        // The channel homes on AS 0 so it survives the scripted death
        // of the session's host (AS 1): failover migrates the session
        // and replays the connection, but no failover can resurrect a
        // container whose home space died with it.
        st->ch = st->rt->as(0).CreateChannel();
        if (st->ch.ok()) {
          st->conn = st->client->Connect(*st->ch, core::ConnMode::kOutput);
        }
      })) {
    outcome.diag = "channel/connect never completed inside the drive budget";
    return outcome;
  }
  if (!st->conn.ok()) {
    outcome.diag = "channel/connect: " + st->conn.status().ToString();
    return outcome;
  }

  // The device keeps publishing through the whole cascade. Its backoff
  // naps are virtual, so forward progress during reconnects depends on
  // the scenario thread advancing time below.
  constexpr Timestamp kFrames = 24;
  std::atomic<bool> done{false};
  Status worker_status = OkStatus();
  std::thread device([&] {
    for (Timestamp ts = 0; ts < kFrames; ++ts) {
      // Virtual pacing stretches the publishing across the schedule's
      // horizon, so the scripted faults land mid-stream no matter how
      // fast the real machine is. Without it a quick run finishes all
      // its frames before the first fault ever matures.
      SleepFor(Millis(25));
      Status s = st->client->Put(*st->conn, ts, Buffer{1, 2, 3},
                                 Deadline::AfterMillis(600'000));
      if (!s.ok()) {
        worker_status = s;
        break;
      }
    }
    done = true;
  });

  const TimePoint t0 = sim.Now();
  std::size_t applied = 0;
  bool killed_host = false;
  auto apply_due = [&] {
    while (applied < schedule.size() &&
           t0 + schedule[applied].at <= sim.Now()) {
      const FaultEvent& ev = schedule[applied++];
      sim.Record("apply " + ev.ToString());
      core::AddressSpace& a = st->rt->as(ev.space_a % 4);
      core::AddressSpace& b = st->rt->as(ev.space_b % 4);
      switch (ev.kind) {
        case FaultEvent::Kind::kPartition:
          if (&a != &b) {
            a.fault_injector().Partition(b.clf_addr());
            b.fault_injector().Partition(a.clf_addr());
          }
          break;
        case FaultEvent::Kind::kHeal:
          a.fault_injector().Heal(b.clf_addr());
          b.fault_injector().Heal(a.clf_addr());
          break;
        case FaultEvent::Kind::kDegradeLink: {
          clf::FaultInjector::LinkProfile profile;
          profile.latency = ev.latency;
          profile.loss = ev.loss;
          if (&a != &b) a.fault_injector().SetLinkProfile(b.clf_addr(), profile);
          break;
        }
        case FaultEvent::Kind::kRestoreLink:
          if (&a != &b) a.fault_injector().ClearLinkProfiles();
          break;
        case FaultEvent::Kind::kKillConnection:
          // Mid-schedule, once: take down the client's host space so
          // the session must migrate to a surviving one. Asynchronous:
          // the shutdown itself waits on virtual deadlines, and this
          // thread is the one that advances them.
          if (!killed_host) {
            killed_host = true;
            sim.Record("kill host as=1");
            std::thread([st] { st->rt->as(1).Shutdown(); }).detach();
          }
          break;
      }
    }
  };

  // Drive: advance virtual time in small quanta while the schedule has
  // events to land, then run the remainder out in one long stretch.
  bool finished = false;
  for (int round = 0; round < 200 && !finished; ++round) {
    apply_due();
    finished = sim.RunUntil([&] { return done.load(); }, Millis(50));
    if (applied == schedule.size()) break;
  }
  if (!finished) {
    apply_due();
    finished = sim.RunUntil([&] { return done.load(); }, Millis(1'200'000));
  }
  if (!finished) {
    // Unjam the worker so join() below can't hang: heal everything and
    // let more virtual time limp it home (or time it out).
    for (std::size_t i = 0; i < 4; ++i) {
      st->rt->as(i).fault_injector().HealAll();
      st->rt->as(i).fault_injector().ClearLinkProfiles();
    }
    (void)sim.RunUntil([&] { return done.load(); }, Millis(120'000));
  }
  device.join();

  if (!done.load()) {
    outcome.diag = "device never finished; " + sim.TraceDump();
  } else if (!worker_status.ok()) {
    outcome.diag = "device failed: " + worker_status.ToString() + "; " +
                   sim.TraceDump();
  } else if (killed_host && st->client->reconnects() == 0) {
    outcome.diag = "host was killed but the session never resumed";
  } else {
    outcome.ok = true;
  }
  // Driven teardown: on a wedge the detached worker's shared_ptr copy
  // keeps the holders alive, so nothing races their destructors.
  if (!DriveToCompletion(sim, [st] {
        (void)st->client->Leave();
        st->listener->Shutdown();
        st->rt->Shutdown();
      })) {
    outcome.diag = "teardown wedged past the drive budget";
    outcome.ok = false;
  }
  return outcome;
}

TEST(ScenarioSwarmTest, PartitionCascadeDuringFailover) {
  const std::uint64_t seed = SimController::SeedFromEnv(2);
  SCOPED_TRACE(ReproHint(seed));

  std::mt19937_64 rng(seed);
  ScheduleParams params;
  params.num_spaces = 4;
  params.num_events = 6;
  params.horizon = Millis(1'500);
  params.kill_weight = 2;  // make the failover kill likely
  FaultSchedule schedule = GenerateSchedule(rng, params);
  // Guarantee the scenario exercises failover even when the draw has
  // no kill event.
  bool has_kill = false;
  for (const FaultEvent& ev : schedule) {
    has_kill |= ev.kind == FaultEvent::Kind::kKillConnection;
  }
  if (!has_kill) {
    FaultEvent kill;
    kill.kind = FaultEvent::Kind::kKillConnection;
    kill.at = Millis(400);
    kill.space_a = 1;
    schedule.insert(schedule.begin(), kill);
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const FaultEvent& x, const FaultEvent& y) {
                       return x.at < y.at;
                     });
  }

  CascadeOutcome outcome = RunCascadeOnce(seed, schedule);
  if (!outcome.ok) {
    // Automatic failing-seed shrinking: ddmin the schedule down to the
    // events that still break the run, and print the minimal cascade.
    const FaultSchedule shrunk = ShrinkSchedule(
        schedule,
        [&](const FaultSchedule& c) { return !RunCascadeOnce(seed, c).ok; });
    FAIL() << "cascade failed under seed " << seed << ": " << outcome.diag
           << "\nminimal failing schedule (" << shrunk.size() << " of "
           << schedule.size() << " events):\n"
           << ScheduleToString(shrunk);
  }
}

// --- scenario 3: 1k-device reconnect storm --------------------------------

TEST(ScenarioSwarmTest, ThousandDeviceReconnectStormDisperses) {
  const std::uint64_t seed = SimController::SeedFromEnv(3);
  SCOPED_TRACE(ReproHint(seed));
  const std::size_t devices = EnvSize("DSTAMPEDE_SIM_DEVICES", 1000);
  const TimePoint wall0 = SteadyClock::now();

  SimController sim(seed);
  TimerWheel wheel;
  const TimePoint t0 = sim.Now();
  // The "server" comes back this far into the outage; attempts before
  // it fail, attempts after it succeed. Every device runs the real
  // client backoff schedule (client::ReconnectBackoff) under virtual
  // time, so the storm's shape is the production shape.
  const TimePoint recovery = t0 + Millis(777);

  client::ReconnectPolicy policy;  // production defaults
  struct Device {
    client::ReconnectBackoff backoff;
    int attempts = 0;
  };
  std::vector<Device> fleet;
  fleet.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    fleet.push_back(Device{client::ReconnectBackoff(policy, sim.NextU64()), 0});
  }

  std::size_t recovered = 0;
  std::map<std::int64_t, std::size_t> attempts_per_ms;  // virtual ms → count
  // Attempts are bucketed by their *scheduled* virtual time, a pure
  // function of the seed.
  std::function<void(std::size_t, TimePoint)> attempt =
      [&](std::size_t i, TimePoint when) {
        fleet[i].attempts += 1;
        attempts_per_ms[ToMicros(when - t0) / 1000] += 1;
        if (when >= recovery) {
          ++recovered;
          return;
        }
        const TimePoint next = when + fleet[i].backoff.NextNap();
        wheel.Schedule(Deadline::At(next),
                       [&attempt, i, next] { attempt(i, next); });
      };
  // The outage drops every device at once: the worst-case herd.
  for (std::size_t i = 0; i < devices; ++i) {
    const TimePoint when = t0 + Millis(1);
    wheel.Schedule(Deadline::At(when), [&attempt, i, when] { attempt(i, when); });
  }

  // The wheel has no thread: step virtual time onto each due attempt
  // and fire the wheel there, until no device is left retrying or the
  // horizon passes.
  const TimePoint horizon = t0 + Millis(30'000);
  for (TimePoint due = wheel.RunDue(sim.Now()); due <= horizon;
       due = wheel.RunDue(sim.Now())) {
    sim.clock().AdvanceTo(due);
  }
  ASSERT_EQ(recovered, devices) << "only " << recovered << "/" << devices
                                << " devices reconnected";

  // Thundering-herd dispersion: the first round lands in one burst,
  // but by the time the server recovers the jittered backoff must have
  // spread attempts out — no later millisecond bucket may contain a
  // burst anywhere near the whole fleet.
  std::size_t first_burst = 0, worst_late_burst = 0;
  std::uint64_t total_attempts = 0;
  for (const auto& [ms, count] : attempts_per_ms) {
    total_attempts += count;
    if (ms <= 1) {
      first_burst += count;
    } else if (ms >= 100) {
      worst_late_burst = std::max(worst_late_burst, count);
    }
  }
  EXPECT_EQ(first_burst, devices) << "round one is the synchronized herd";
  EXPECT_LT(worst_late_burst, devices / 2)
      << "jittered backoff failed to disperse the herd";
  EXPECT_GT(total_attempts, static_cast<std::uint64_t>(devices))
      << "an outage of 777ms must force retries past round one";
  sim.Record("storm.devices=" + std::to_string(devices));
  sim.Record("storm.attempts=" + std::to_string(total_attempts));

  const Duration wall = SteadyClock::now() - wall0;
  EXPECT_LT(wall, Millis(10'000))
      << "storm burned " << ToMicros(wall) / 1000 << "ms of wall clock";
}

// --- scenario 4: slow-link tail latency -----------------------------------

TEST(ScenarioSwarmTest, SlowLinkTailLatencyIsQueueingDelay) {
  const std::uint64_t seed = SimController::SeedFromEnv(4);
  SCOPED_TRACE(ReproHint(seed));
  SimController sim(seed);

  clf::Endpoint::Options sender_opts;
  // An RTO far past the modeled queueing delays keeps retransmissions
  // from polluting the FIFO assertions in the common case, while still
  // maturing inside the horizon so a real UDP drop can be recovered.
  sender_opts.initial_rto = Millis(300'000);
  sender_opts.max_rto = Millis(300'000);
  auto sender = clf::CreateSinkEndpoint(sender_opts);
  ASSERT_TRUE(sender.ok()) << sender.status();
  auto receiver = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(receiver.ok()) << receiver.status();

  // 8kbit/s with 100-byte messages: ~100ms of serialization each, so
  // back-to-back sends must queue behind one another on the wire.
  clf::FaultInjector::LinkProfile narrow;
  narrow.latency = Millis(20);
  narrow.jitter = Millis(5);
  narrow.bandwidth_bps = 8'000;
  (*sender)->fault_injector().SetLinkProfile((*receiver)->addr(), narrow);

  constexpr int kMessages = 6;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(
        (*sender)
            ->Send((*receiver)->addr(), Buffer(100, static_cast<std::uint8_t>(i)))
            .ok());
  }
  // Nothing crosses while virtual time is frozen.
  EXPECT_GE((*sender)->fault_injector().delayed_pending(), 1u);

  std::atomic<int> received{0};
  std::vector<Duration> delivery_offsets(kMessages);
  std::vector<std::uint8_t> order;
  const TimePoint t0 = sim.Now();
  std::thread drain([&] {
    // One absolute deadline for the whole drain, inside the RunUntil
    // horizon below: every sink wait matures before the horizon does.
    const Deadline give_up = Deadline::At(t0 + Millis(650'000));
    for (int i = 0; i < kMessages; ++i) {
      Buffer got;
      transport::SockAddr from;
      if (!receiver->Next(got, from, give_up).ok()) return;
      delivery_offsets[i] = Now() - t0;
      order.push_back(got.empty() ? 0xFF : got[0]);
      received.fetch_add(1);
    }
  });
  // The horizon outlives both the drain's absolute wait deadline and
  // the 300s RTO: whatever happens — normal delivery, a real UDP drop
  // recovered by retransmission, or the wait timing out — the drain
  // thread is guaranteed to exit before RunUntil returns, so join()
  // cannot wedge on a frozen clock.
  const bool all = sim.RunUntil(
      [&] { return received.load() == kMessages; }, Millis(700'000));
  drain.join();
  ASSERT_TRUE(all) << "slow link stranded " << kMessages - received.load()
                   << " messages; " << (*sender)->fault_injector().Summary();

  // FIFO: CLF sequencing holds even across the modeled link.
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(order[i], static_cast<std::uint8_t>(i)) << "reordered at " << i;
  }
  // The tail reflects queueing: the last message serializes behind five
  // predecessors (~500ms) plus its own ~100ms and the 20ms latency.
  EXPECT_GE(delivery_offsets[kMessages - 1], Millis(500))
      << "tail latency shows no queueing delay";
  sim.Record("slowlink.tail_ms=" +
             std::to_string(ToMicros(delivery_offsets[kMessages - 1]) / 1000));
}

// --- scenario 5: control-plane failover + exactly-once destructive read ---

TEST(ScenarioSwarmTest, NsFailoverExactlyOnceDestructiveRead) {
  const std::uint64_t seed = SimController::SeedFromEnv(6);
  SCOPED_TRACE(ReproHint(seed));

  // Worker-touched state lives on the heap, shared with the driven
  // worker lambdas (same discipline as the cascade scenario). The
  // edge-fault injector is borrowed, not owned, by the listener, so it
  // sits first in the struct and outlives everything that uses it.
  struct NsFailoverState {
    std::unique_ptr<clf::FaultInjector> edge =
        std::make_unique<clf::FaultInjector>();
    std::unique_ptr<core::Runtime> rt;
    std::unique_ptr<client::Listener> listener;
    std::unique_ptr<client::CClient> client;
    Result<QueueId> q = InvalidArgumentError("unset");
    Result<core::Connection> out = InvalidArgumentError("unset");
    Result<core::Connection> in = InvalidArgumentError("unset");
    Result<core::ItemView> first = InvalidArgumentError("unset");
    Result<core::ItemView> second = InvalidArgumentError("unset");
    Result<core::NsEntry> resolved = InvalidArgumentError("unset");
    std::string diag;
  };
  auto st = std::make_shared<NsFailoverState>();
  SimController sim(seed);

  // Every exit, an ASSERT's early return included, runs the driven
  // teardown and then joins the threads the test started, before `sim`
  // goes away: tearing the runtime down with nobody advancing virtual
  // time wedges, and the runtime's threads wait on sim's clock.
  auto got_first = std::make_shared<std::atomic<bool>>(false);
  auto hosts_down = std::make_shared<std::atomic<bool>>(false);
  std::thread getter;
  std::thread killer;
  struct Teardown {
    std::function<void()> run;
    ~Teardown() { run(); }
  } teardown{[&] {
    if (!DriveToCompletion(sim, [st] {
          if (st->client) (void)st->client->Leave();
          if (st->listener) st->listener->Shutdown();
          if (st->rt) st->rt->Shutdown();
        })) {
      ADD_FAILURE() << "teardown wedged past the drive budget";
    }
    if (!getter.joinable() && !killer.joinable()) return;
    // An early exit left them running: their calls return once the
    // runtime is down, which may still take virtual time.
    const bool finished = sim.RunUntil(
        [&] {
          return (!getter.joinable() || got_first->load()) &&
                 (!killer.joinable() || hosts_down->load());
        },
        Millis(1'200'000));
    for (std::thread* thread : {&getter, &killer}) {
      if (!thread->joinable()) continue;
      if (finished) {
        thread->join();
      } else {
        thread->detach();  // leak rather than hang the whole suite
      }
    }
  }};

  const bool setup_done = DriveToCompletion(sim, [st] {
    core::Runtime::Options ropts;
    ropts.num_address_spaces = 5;
    ropts.dispatcher_threads = 2;
    // Three-replica control plane with a lease short enough that the
    // failover matures inside the scenario, plus the failure-detection
    // knobs every resilience test runs with.
    ropts.ns_replicas = 3;
    ropts.ns_lease = Millis(300);
    ropts.ns_heartbeat = Millis(75);
    ropts.clf_max_retransmits = 5;
    ropts.peer_keepalive_interval = Millis(25);
    ropts.peer_timeout = Millis(150);
    auto created = core::Runtime::Create(ropts);
    if (!created.ok()) {
      st->diag = "runtime: " + created.status().ToString();
      return;
    }
    st->rt = std::move(*created);
    client::Listener::Options lopts;
    lopts.edge_faults = st->edge.get();
    auto l = client::Listener::Start(*st->rt, lopts);
    if (!l.ok()) {
      st->diag = "listener: " + l.status().ToString();
      return;
    }
    st->listener = std::move(*l);
    client::CClient::Options copts;
    copts.server = st->listener->addr();
    copts.name = "ns-failover-device";
    // Host the session on AS 3: not a name-server replica, so its death
    // exercises session migration without touching the replog quorum.
    copts.preferred_as = 3;
    copts.reconnect.give_up_after = Millis(600'000);
    auto joined = client::CClient::Join(copts);
    if (!joined.ok()) {
      st->diag = "join: " + joined.status().ToString();
      return;
    }
    st->client = std::move(*joined);
    // The queue homes on AS 4, which survives both scripted deaths.
    st->q = st->rt->as(4).CreateQueue();
    if (!st->q.ok()) {
      st->diag = "queue: " + st->q.status().ToString();
      return;
    }
    st->out = st->client->Connect(*st->q, core::ConnMode::kOutput);
    st->in = st->client->Connect(*st->q, core::ConnMode::kInput);
    if (!st->out.ok() || !st->in.ok()) {
      st->diag = "connect failed";
      return;
    }
    // Register from the queue's owner (AS 4) so the entry's owner_as
    // survives both deaths below — a client-side register would stamp
    // the device's host (AS 3) as owner and the entry would be purged
    // with it, by design.
    core::NsEntry entry{"swarm/sensor-q", core::NsEntry::Kind::kQueue,
                        st->q->bits(), "scenario 5"};
    if (Status s = st->rt->as(4).NsRegister(entry); !s.ok()) {
      st->diag = "register: " + s.ToString();
      return;
    }
    for (std::uint8_t i = 1; i <= 2; ++i) {
      Status s = st->client->Put(*st->out, i - 1, Buffer{i},
                                 Deadline::AfterMillis(600'000));
      if (!s.ok()) {
        st->diag = "put: " + s.ToString();
        return;
      }
    }
  });
  ASSERT_TRUE(setup_done) << "setup never completed inside the drive budget";
  ASSERT_TRUE(st->diag.empty()) << st->diag;

  // The destructive read executes (item 1 leaves the queue, the redo
  // record is journaled with the session) — then the link dies before
  // the reply crosses. The client must recover the reply, not rerun
  // the dequeue.
  st->edge->ArmConnectionKill(1, clf::FaultInjector::KillPoint::kAfterExecute);
  getter = std::thread([st, got_first] {
    st->first = st->client->Get(*st->in, Deadline::AfterMillis(600'000));
    got_first->store(true);
  });
  ASSERT_TRUE(sim.RunUntil(
      [&] {
        return got_first->load() ||
               st->listener->surrogates_in(client::Surrogate::State::kParked) >=
                   1;
      },
      Millis(600'000)))
      << "surrogate never parked after the connection kill";

  // While the resume is in flight, kill the session's host AND the
  // bootstrap name-server leader. The resume now depends on the
  // control plane it is recovering through: AS 1 must take the lease
  // and serve the session lookup, and the journaled reply must answer
  // the replayed Get exactly once.
  killer = std::thread([st, hosts_down] {
    st->rt->as(3).Shutdown();
    st->rt->as(0).Shutdown();
    hosts_down->store(true);
  });
  ASSERT_TRUE(sim.RunUntil(
      [&] { return got_first->load() && hosts_down->load(); },
      Millis(1'200'000)))
      << "first get never completed across the double death";
  getter.join();
  killer.join();
  EXPECT_TRUE(st->first.ok()) << st->first.status();
  if (st->first.ok()) {
    EXPECT_EQ(st->first->payload.ToString(), std::string(1, '\x01'));
  }

  // Deterministic election: AS 1 is the first live replica.
  core::RepLog* replog = st->rt->as(1).replication();
  EXPECT_NE(replog, nullptr) << "AS 1 is not a replica";
  if (replog != nullptr) {
    EXPECT_TRUE(
        sim.RunUntil([&] { return replog->IsLeader(); }, Millis(600'000)))
        << "AS 1 never took over the lease";
    EXPECT_GE(replog->leader_changes(), 1u);
  }

  // The second read and a post-failover lookup run against the new
  // leader; the session has migrated off the dead host by now.
  if (!DriveToCompletion(sim, [st] {
        st->second = st->client->Get(*st->in, Deadline::AfterMillis(600'000));
        st->resolved = st->client->NsLookup("swarm/sensor-q");
      })) {
    ADD_FAILURE() << "post-failover traffic wedged past the drive budget";
  }
  EXPECT_TRUE(st->second.ok()) << st->second.status();
  if (st->second.ok()) {
    EXPECT_EQ(st->second->payload.ToString(), std::string(1, '\x02'))
        << "destructive read re-ran instead of replaying its journaled reply";
  }
  EXPECT_TRUE(st->resolved.ok()) << st->resolved.status();
  if (st->resolved.ok()) {
    EXPECT_EQ(st->resolved->id_bits, st->q->bits());
  }
  if (replog != nullptr) {
    EXPECT_GT(replog->log_appends(), 0u)
        << "the migration never journaled through the new leader";
  }

  // The redo journal must have been written once and consulted once,
  // whichever resume path (park-adopt or migrate) the race picked.
  std::uint64_t journaled = 0;
  std::uint64_t replayed = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    metrics::Registry& reg = st->rt->as(i).metrics_registry();
    journaled += reg.GetCounter("surrogate.redo_journaled").Value();
    replayed += reg.GetCounter("surrogate.redo_replayed").Value();
  }
  EXPECT_GE(journaled, 1u) << "no surrogate journaled the destructive reply";
  EXPECT_GE(replayed, 1u) << "the journaled reply was never replayed";
  sim.Record("nsfailover.journaled=" + std::to_string(journaled));
  sim.Record("nsfailover.replayed=" + std::to_string(replayed));
}

// --- determinism proof across a full scenario -----------------------------

TEST(ScenarioSwarmTest, StormTraceIsSeedReproducible) {
  auto run = [](std::uint64_t seed) {
    SimController sim(seed);
    client::ReconnectPolicy policy;
    // A miniature storm, fully virtual: hash the attempt timeline.
    for (int device = 0; device < 50; ++device) {
      client::ReconnectBackoff backoff(policy, sim.NextU64());
      TimePoint at = sim.Now();
      for (int round = 0; round < 5; ++round) {
        at += backoff.NextNap();
        sim.Record("d" + std::to_string(device) + " attempt@" +
                   std::to_string(ToMicros(at - sim.Now())));
      }
    }
    sim.RunFor(Millis(100));
    return sim.TraceHash();
  };
  const std::uint64_t seed = SimController::SeedFromEnv(5);
  SCOPED_TRACE(ReproHint(seed));
  EXPECT_EQ(run(seed), run(seed))
      << "same seed must replay byte-for-byte";
  EXPECT_NE(run(seed), run(seed + 1))
      << "distinct seeds must diverge";
}

}  // namespace
}  // namespace dstampede::sim
