// Continuation-waiter model: the TimerWheel deadline table and the CLF
// receiver that fires it, the two-phase (try-else-register) container
// API, and every lifecycle path that must complete a parked waiter —
// deadline expiry via the wheel, peer death, container close, and
// clean shutdown — plus the liveness property the refactor exists
// for: a width-2 dispatcher serving far more concurrently blocked
// remote getters than it has workers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "clf_sink.hpp"
#include "dstampede/common/waiter.hpp"
#include "dstampede/core/channel.hpp"
#include "dstampede/core/queue.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede::core {
namespace {

SharedBuffer Payload(std::string_view s) { return SharedBuffer::FromString(s); }

// Polls until pred() holds or `timeout` passes.
template <typename Pred>
bool WaitFor(Pred pred, Duration timeout) {
  const TimePoint give_up = Now() + timeout;
  while (!pred()) {
    if (Now() >= give_up) return false;
    std::this_thread::sleep_for(Millis(2));
  }
  return true;
}

// --- TimerWheel -------------------------------------------------------

// A standalone wheel has no thread: each test fires it through RunDue
// at explicit times.

TEST(TimerWheelTest, FiresScheduledCallbackAtDeadline) {
  TimerWheel wheel;
  bool fired = false;
  const TimePoint due = Now() + Millis(30);
  ASSERT_NE(wheel.Schedule(Deadline::At(due), [&] { fired = true; }), 0u);
  EXPECT_EQ(wheel.RunDue(due - Micros(1)), due);
  EXPECT_FALSE(fired) << "fired before its deadline";
  EXPECT_EQ(wheel.RunDue(due), TimePoint::max());
  EXPECT_TRUE(fired);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelledEntryNeverFires) {
  TimerWheel wheel;
  bool fired = false;
  TimerWheel::TimerId id =
      wheel.Schedule(Deadline::AfterMillis(40), [&] { fired = true; });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // already gone
  EXPECT_EQ(wheel.RunDue(Now() + Millis(80)), TimePoint::max());
  EXPECT_FALSE(fired);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, InfiniteDeadlineIsNeverScheduled) {
  TimerWheel wheel;
  EXPECT_EQ(wheel.Schedule(Deadline::Infinite(), [] {}), 0u);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_FALSE(wheel.Cancel(0));
  EXPECT_EQ(wheel.RunDue(TimePoint::max()), TimePoint::max());
}

TEST(TimerWheelTest, FiresInDeadlineOrderNotInsertionOrder) {
  TimerWheel wheel;
  std::vector<int> order;
  const TimePoint start = Now();
  // Inserted late-first; must fire early-first.
  wheel.Schedule(Deadline::At(start + Millis(60)), [&] { order.push_back(2); });
  wheel.Schedule(Deadline::At(start + Millis(20)), [&] { order.push_back(1); });
  EXPECT_EQ(wheel.RunDue(start + Millis(100)), TimePoint::max());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheelTest, EntryACallbackSchedulesWaitsForTheNextRun) {
  TimerWheel wheel;
  const TimePoint now = Now();
  int fired = 0;
  wheel.Schedule(Deadline::At(now), [&] {
    ++fired;
    // Already due, but RunDue took its batch before this callback ran.
    wheel.Schedule(Deadline::Poll(), [&] { fired += 10; });
  });
  EXPECT_EQ(wheel.RunDue(now), TimePoint::min());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.RunDue(now), TimePoint::max());
  EXPECT_EQ(fired, 11);
}

// --- the CLF endpoint fires its wheel ---------------------------------

TEST(TimerWheelTest, EndpointReceiverFiresAnEntryScheduledFromAnotherThread) {
  auto ep = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(ep.ok()) << ep.status();
  std::atomic<bool> fired{false};
  std::atomic<bool> on_this_thread{false};
  const std::thread::id self = std::this_thread::get_id();
  const TimePoint due = Now() + Millis(30);
  TimePoint fired_at{};
  (*ep)->timers().Schedule(Deadline::At(due), [&] {
    fired_at = Now();
    on_this_thread = std::this_thread::get_id() == self;
    fired = true;
  });
  ASSERT_TRUE(WaitFor([&] { return fired.load(); }, Millis(5000)));
  EXPECT_GE(fired_at, due);
  EXPECT_FALSE(on_this_thread.load()) << "the receiver fires the wheel";
  EXPECT_EQ((*ep)->timers().pending(), 0u);
}

TEST(TimerWheelTest, EntryOnAShutDownEndpointsWheelNeverFires) {
  auto ep = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(ep.ok()) << ep.status();
  (*ep)->Shutdown();
  std::atomic<bool> fired{false};
  // One entry already due and one due within the wait: a live receiver
  // would fire both within a pass of their deadlines.
  (*ep)->timers().Schedule(Deadline::Poll(), [&] { fired = true; });
  (*ep)->timers().Schedule(Deadline::AfterMillis(10), [&] { fired = true; });
  std::this_thread::sleep_for(Millis(60));
  EXPECT_FALSE(fired.load());
  // They stay until the endpoint goes, and are destroyed unfired.
  EXPECT_EQ((*ep)->timers().pending(), 2u);
}

// --- the waiter engine, over both container kinds ---------------------

// Channels and queues share one waiter engine (LocalContainer), so
// every case here runs against both kinds. A queue ignores the
// GetSpec: its gets pop the head item.
template <typename Container>
class ContainerWaiterTest : public ::testing::Test {
 protected:
  using Attr = std::decay_t<decltype(std::declval<Container>().attr())>;

  static Attr Capacity(std::size_t items) {
    Attr attr;
    attr.capacity_items = items;
    return attr;
  }
};

using ContainerKinds = ::testing::Types<LocalChannel, LocalQueue>;
TYPED_TEST_SUITE(ContainerWaiterTest, ContainerKinds);

TYPED_TEST(ContainerWaiterTest, CompletesInlineWhenItemIsPresent) {
  TypeParam c{this->Capacity(0)};
  std::uint32_t conn = c.Attach(ConnMode::kInputOutput, "t");
  ASSERT_TRUE(c.Put(3, Payload("x"), Deadline::Poll()).ok());
  bool ran = false;
  std::uint64_t id = c.GetAsync(conn, GetSpec::Exact(3), Deadline::Infinite(),
                                [&](Result<ItemView> item) {
                                  ran = true;
                                  ASSERT_TRUE(item.ok());
                                  EXPECT_EQ(item->timestamp, 3);
                                });
  EXPECT_EQ(id, 0u);  // inline completion: no waiter registered
  EXPECT_TRUE(ran);
  EXPECT_EQ(c.parked_get_waiters(), 0u);
}

TYPED_TEST(ContainerWaiterTest, ParkedGetCompletesOnPutFromThePuttingThread) {
  TypeParam c{this->Capacity(0)};
  std::uint32_t conn = c.Attach(ConnMode::kInput, "t");
  std::atomic<bool> done{false};
  std::uint64_t id = c.GetAsync(conn, GetSpec::Exact(7), Deadline::Infinite(),
                                [&](Result<ItemView> item) {
                                  EXPECT_TRUE(item.ok());
                                  done = true;
                                });
  EXPECT_GT(id, 0u);
  EXPECT_EQ(c.parked_get_waiters(), 1u);
  EXPECT_FALSE(done.load());
  ASSERT_TRUE(c.Put(7, Payload("y"), Deadline::Poll()).ok());
  // The put itself ran the continuation; no other thread exists here.
  EXPECT_TRUE(done.load());
  EXPECT_EQ(c.parked_get_waiters(), 0u);
}

TYPED_TEST(ContainerWaiterTest, CancelWaiterLosesAgainstGenuineCompletion) {
  TypeParam c{this->Capacity(0)};
  std::uint32_t conn = c.Attach(ConnMode::kInput, "t");
  std::atomic<int> completions{0};
  std::uint64_t id = c.GetAsync(conn, GetSpec::Exact(1), Deadline::Infinite(),
                                [&](Result<ItemView>) { completions++; });
  ASSERT_TRUE(c.Put(1, Payload("x"), Deadline::Poll()).ok());
  // The put already completed the waiter; a late cancel must not run
  // the continuation a second time.
  EXPECT_FALSE(c.CancelWaiter(id, TimeoutError("late")));
  EXPECT_EQ(completions.load(), 1);
}

TYPED_TEST(ContainerWaiterTest, DeadlineExpiryWhileParkedCompletesWithTimeout) {
  TimerWheel wheel;
  TypeParam c{this->Capacity(0), &wheel};
  std::uint32_t conn = c.Attach(ConnMode::kInput, "t");
  bool done = false;
  StatusCode observed = StatusCode::kOk;
  const TimePoint due = Now() + Millis(10'000);
  std::uint64_t id = c.GetAsync(conn, GetSpec::Exact(9), Deadline::At(due),
                                [&](Result<ItemView> item) {
                                  observed = item.status().code();
                                  done = true;
                                });
  EXPECT_GT(id, 0u);
  // Nothing is ever put: only the wheel can resolve this waiter.
  EXPECT_EQ(wheel.RunDue(due - Micros(1)), due);
  EXPECT_FALSE(done) << "timed out before its deadline";
  EXPECT_EQ(c.parked_get_waiters(), 1u);
  wheel.RunDue(due);
  ASSERT_TRUE(done);
  EXPECT_EQ(observed, StatusCode::kTimeout);
  EXPECT_EQ(c.parked_get_waiters(), 0u);
  EXPECT_EQ(wheel.pending(), 0u);
}

TYPED_TEST(ContainerWaiterTest, CancelWaitersOfCompletesOnlyThatOrigin) {
  // Gets park on an empty container, puts on a full one; a queue
  // cannot hold both at once, so each runs on its own instance.
  TypeParam empty{this->Capacity(0)};
  std::uint32_t in = empty.Attach(ConnMode::kInput, "in");
  TypeParam full{this->Capacity(1)};
  (void)full.Attach(ConnMode::kOutput, "out");
  ASSERT_TRUE(full.Put(0, Payload("fills it"), Deadline::Poll()).ok());

  std::vector<StatusCode> gets, puts;
  for (Timestamp ts = 1; ts <= 3; ++ts) {
    const std::uint32_t origin = ts == 2 ? 2 : 1;
    empty.GetAsync(in, GetSpec::Exact(ts), Deadline::Infinite(),
                   [&](Result<ItemView> item) {
                     gets.push_back(item.status().code());
                   },
                   origin);
    full.PutAsync(ts, Payload("parked"), Deadline::Infinite(),
                  [&](Status st) { puts.push_back(st.code()); }, origin);
  }
  const Status gone = UnavailableError("peer declared dead");
  EXPECT_EQ(empty.CancelWaitersOf(1, gone), 2u);
  EXPECT_EQ(full.CancelWaitersOf(1, gone), 2u);
  const std::vector<StatusCode> two_gone(2, StatusCode::kUnavailable);
  EXPECT_EQ(gets, two_gone);
  EXPECT_EQ(puts, two_gone);
  // Origin 2's waiters are untouched, and origin 1 has none left.
  EXPECT_EQ(empty.parked_get_waiters(), 1u);
  EXPECT_EQ(full.parked_put_waiters(), 1u);
  EXPECT_EQ(empty.CancelWaitersOf(1, gone), 0u);
  EXPECT_EQ(full.CancelWaitersOf(1, gone), 0u);
}

TYPED_TEST(ContainerWaiterTest, CloseWakesEveryParkedWaiter) {
  // Getters park on an empty instance, putters on a full one (a queue
  // cannot hold both at once).
  TypeParam empty{this->Capacity(0)};
  std::uint32_t in = empty.Attach(ConnMode::kInput, "in");
  TypeParam full{this->Capacity(1)};
  (void)full.Attach(ConnMode::kOutput, "out");
  ASSERT_TRUE(full.Put(0, Payload("fills it"), Deadline::Poll()).ok());
  std::atomic<int> cancelled{0};
  for (int i = 0; i < 4; ++i) {
    empty.GetAsync(in, GetSpec::Exact(100 + i), Deadline::Infinite(),
                   [&](Result<ItemView> item) {
                     EXPECT_EQ(item.status().code(), StatusCode::kCancelled);
                     cancelled++;
                   });
    full.PutAsync(200 + i, Payload("parked"), Deadline::Infinite(),
                  [&](Status st) {
                    EXPECT_EQ(st.code(), StatusCode::kCancelled);
                    cancelled++;
                  });
  }
  EXPECT_EQ(empty.parked_get_waiters(), 4u);
  EXPECT_EQ(full.parked_put_waiters(), 4u);
  empty.Close();
  full.Close();
  EXPECT_EQ(cancelled.load(), 8);
  EXPECT_EQ(empty.parked_get_waiters(), 0u);
  EXPECT_EQ(full.parked_put_waiters(), 0u);
  // Later calls fail at once instead of parking.
  EXPECT_EQ(empty.Get(in, GetSpec::Exact(1), Deadline::Infinite())
                .status()
                .code(),
            StatusCode::kCancelled);
}

// --- two-phase container API: kind-specific cases ----------------------

TEST(ChannelAsyncTest, BackpressuredPutAdmittedWhenConsumeReclaims) {
  ChannelAttr attr;
  attr.capacity_items = 1;
  LocalChannel ch{attr};
  std::uint32_t conn = ch.Attach(ConnMode::kInputOutput, "t");
  ASSERT_TRUE(ch.Put(0, Payload("a"), Deadline::Poll()).ok());
  std::atomic<bool> admitted{false};
  std::uint64_t id = ch.PutAsync(1, Payload("b"), Deadline::Infinite(),
                                 [&](Status st) {
                                   EXPECT_TRUE(st.ok()) << st.ToString();
                                   admitted = true;
                                 });
  EXPECT_GT(id, 0u);
  EXPECT_EQ(ch.parked_put_waiters(), 1u);
  // Consuming item 0 reclaims it, which admits the parked put inline.
  ASSERT_TRUE(ch.Get(conn, GetSpec::Exact(0), Deadline::Poll()).ok());
  ASSERT_TRUE(ch.Consume(conn, 0).ok());
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(ch.parked_put_waiters(), 0u);
  EXPECT_TRUE(ch.Get(conn, GetSpec::Exact(1), Deadline::Poll()).ok());
}

TEST(QueueAsyncTest, BlockedGettersServedFifo) {
  LocalQueue q{QueueAttr{}};
  std::uint32_t a = q.Attach(ConnMode::kInput, "a");
  std::uint32_t b = q.Attach(ConnMode::kInput, "b");
  std::vector<int> served;
  q.GetAsync(a, Deadline::Infinite(),
             [&](Result<ItemView> item) {
               ASSERT_TRUE(item.ok());
               served.push_back(1);
             });
  q.GetAsync(b, Deadline::Infinite(),
             [&](Result<ItemView> item) {
               ASSERT_TRUE(item.ok());
               served.push_back(2);
             });
  EXPECT_EQ(q.parked_get_waiters(), 2u);
  ASSERT_TRUE(q.Put(0, Payload("first"), Deadline::Poll()).ok());
  ASSERT_TRUE(q.Put(0, Payload("second"), Deadline::Poll()).ok());
  // Registration order, not attach order or luck.
  EXPECT_EQ(served, (std::vector<int>{1, 2}));
}

// --- waiter cancellation: deadline expiry -----------------------------

TEST(WaiterCancellationTest, BackpressureDeadlineExpiryTimesOutThePut) {
  TimerWheel wheel;
  ChannelAttr attr;
  attr.capacity_items = 1;
  LocalChannel ch{attr, &wheel};
  (void)ch.Attach(ConnMode::kOutput, "t");
  ASSERT_TRUE(ch.Put(0, Payload("a"), Deadline::Poll()).ok());
  bool done = false;
  StatusCode observed = StatusCode::kOk;
  const TimePoint due = Now() + Millis(10'000);
  ch.PutAsync(1, Payload("b"), Deadline::At(due), [&](Status st) {
    observed = st.code();
    done = true;
  });
  EXPECT_EQ(wheel.RunDue(due - Micros(1)), due);
  EXPECT_FALSE(done) << "timed out before its deadline";
  EXPECT_EQ(ch.parked_put_waiters(), 1u);
  wheel.RunDue(due);
  ASSERT_TRUE(done);
  EXPECT_EQ(observed, StatusCode::kTimeout);
  EXPECT_EQ(ch.parked_put_waiters(), 0u);
}

TEST(WaiterCancellationTest, RemoteGetDeadlineExpiresWhileParkedAtOwner) {
  Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.dispatcher_threads = 2;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto ch = (*rt)->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = (*rt)->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());
  const TimePoint start = Now();
  auto item = (*rt)->as(0).Get(*in, GetSpec::Exact(0),
                               Deadline::AfterMillis(150));
  EXPECT_EQ(item.status().code(), StatusCode::kTimeout) << item.status();
  EXPECT_GE(Now() - start, Millis(100));
  // The owner-side waiter record is gone, not leaked.
  auto owned = (*rt)->as(1).FindChannel(ch->bits());
  ASSERT_NE(owned, nullptr);
  EXPECT_TRUE(WaitFor([&] { return owned->parked_get_waiters() == 0; },
                      Millis(5000)));
  (*rt)->Shutdown();
}

// --- waiter cancellation: peer death ----------------------------------

TEST(WaiterCancellationTest, PeerDownCompletesRemoteWaiterUnavailable) {
  Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.dispatcher_threads = 2;
  opts.clf_max_retransmits = 8;
  opts.peer_keepalive_interval = Millis(25);
  opts.peer_timeout = Millis(150);
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto ch = (*rt)->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = (*rt)->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());

  StatusCode observed = StatusCode::kOk;
  std::thread blocked([&] {
    auto item = (*rt)->as(0).Get(*in, GetSpec::Exact(0),
                                 Deadline::AfterMillis(60000));
    observed = item.status().code();
  });
  // Wait until the get is parked as a waiter at the owner.
  auto owned = (*rt)->as(1).FindChannel(ch->bits());
  ASSERT_NE(owned, nullptr);
  ASSERT_TRUE(WaitFor([&] { return owned->parked_get_waiters() == 1; },
                      Millis(10000)));

  // Cut the link both ways: the owner declares the caller dead and
  // must cancel its parked waiter; the caller fails its pending call.
  (*rt)->as(0).fault_injector().Partition((*rt)->as(1).clf_addr());
  (*rt)->as(1).fault_injector().Partition((*rt)->as(0).clf_addr());

  EXPECT_TRUE(WaitFor([&] { return owned->parked_get_waiters() == 0; },
                      Millis(10000)))
      << "owner kept the dead peer's waiter parked";
  blocked.join();
  EXPECT_EQ(observed, StatusCode::kUnavailable);
  (*rt)->Shutdown();
}

// --- waiter cancellation: clean shutdown ------------------------------

TEST(WaiterCancellationTest, ShutdownWithManyParkedWaitersOnWidth2Pool) {
  Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.dispatcher_threads = 2;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto ch = (*rt)->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());

  constexpr int kWaiters = 24;
  std::atomic<int> finished{0};
  std::atomic<int> satisfied{0};
  std::vector<std::thread> getters;
  getters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    getters.emplace_back([&, i] {
      auto in = (*rt)->as(0).Connect(*ch, ConnMode::kInput);
      if (in.ok()) {
        auto item = (*rt)->as(0).Get(*in, GetSpec::Exact(i),
                                     Deadline::AfterMillis(60000));
        if (item.ok()) satisfied++;
      }
      finished++;
    });
  }
  auto owned = (*rt)->as(1).FindChannel(ch->bits());
  ASSERT_NE(owned, nullptr);
  ASSERT_TRUE(WaitFor([&] { return owned->parked_get_waiters() == kWaiters; },
                      Millis(10000)));
  // 24 parked waiters, 2 workers: shutdown must still complete every
  // one of them (no item arrives, so all fail) within the test budget
  // instead of hanging on parked threads.
  const TimePoint start = Now();
  (*rt)->Shutdown();
  for (auto& t : getters) t.join();
  EXPECT_EQ(finished.load(), kWaiters);
  EXPECT_EQ(satisfied.load(), 0);
  EXPECT_LT(Now() - start, Millis(30000));
}

// --- liveness smoke ---------------------------------------------------

// The refactor's reason to exist: pool width no longer bounds the
// number of simultaneously blocked remote getters. A width-2
// dispatcher parks 4x its width, then a single putter satisfies them
// all, while the pool stays responsive to control-plane traffic.
TEST(LivenessSmokeTest, Width2DispatcherServes8ConcurrentlyBlockedGetters) {
  Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.dispatcher_threads = 2;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto ch = (*rt)->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());

  constexpr int kGetters = 8;
  std::atomic<int> satisfied{0};
  std::vector<std::thread> getters;
  getters.reserve(kGetters);
  for (int i = 0; i < kGetters; ++i) {
    getters.emplace_back([&, i] {
      auto in = (*rt)->as(0).Connect(*ch, ConnMode::kInput);
      ASSERT_TRUE(in.ok()) << in.status();
      auto item = (*rt)->as(0).Get(*in, GetSpec::Exact(i),
                                   Deadline::AfterMillis(60000));
      ASSERT_TRUE(item.ok()) << item.status();
      EXPECT_EQ(item->timestamp, i);
      ASSERT_TRUE((*rt)->as(0).Consume(*in, i).ok());
      satisfied++;
    });
  }
  // All 8 gets must park at the owner concurrently — impossible if
  // each occupied one of the two workers.
  auto owned = (*rt)->as(1).FindChannel(ch->bits());
  ASSERT_NE(owned, nullptr);
  ASSERT_TRUE(WaitFor([&] { return owned->parked_get_waiters() == kGetters; },
                      Millis(10000)))
      << "parked " << owned->parked_get_waiters() << " of " << kGetters;

  // The pool must not be starved while the waiters are parked.
  auto probe = (*rt)->as(0).Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(probe.ok()) << probe.status();
  for (int i = 0; i < kGetters; ++i) {
    ASSERT_TRUE((*rt)->as(0)
                    .Put(*probe, i, Buffer(64), Deadline::AfterMillis(10000))
                    .ok());
  }
  for (auto& t : getters) t.join();
  EXPECT_EQ(satisfied.load(), kGetters);
  (*rt)->Shutdown();
}

}  // namespace
}  // namespace dstampede::core
