// Tests for the concurrency-correctness layer (common/sync.hpp): the
// annotated mutex/condvar wrappers and the opt-in runtime lock-order /
// blocking-while-locked detector.
//
// The death tests run the offending sequence in a forked child (gtest
// death-test machinery), so enabling the detector inside EXPECT_DEATH
// never contaminates the parent process.
#include "dstampede/common/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace dstampede::sync {
namespace {

TEST(SyncTest, MutexLockProtectsSharedCounter) {
  ds::Mutex mu("test.counter_mu");
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        ds::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 4000);
}

TEST(SyncTest, EarlyUnlockReleasesTheMutex) {
  ds::Mutex mu("test.early_unlock_mu");
  ds::MutexLock lock(mu);
  lock.Unlock();
  // If Unlock did not release, this try_lock would fail (and a second
  // unlock at scope exit would be UB).
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncTest, CondVarWaitUntilTimesOut) {
  ds::Mutex mu("test.cv_mu");
  ds::CondVar cv;
  ds::MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitUntil(mu, Deadline::AfterMillis(5)));
}

TEST(SyncTest, CondVarWakesWaiter) {
  ds::Mutex mu("test.cv_wake_mu");
  ds::CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    ds::MutexLock lock(mu);
    ready = true;
    lock.Unlock();
    cv.NotifyOne();
  });
  {
    ds::MutexLock lock(mu);
    while (!ready) {
      ASSERT_TRUE(cv.WaitUntil(mu, Deadline::AfterMillis(5000)));
    }
  }
  waker.join();
}

TEST(SyncTest, DetectorOffRecordsNoEdges) {
  // Explicitly off (the suite may run under DSTAMPEDE_DEADLOCK_DETECT=1).
  SetDeadlockDetectionForTesting(false);
  const std::size_t before = LockOrderEdgeCountForTesting();
  ds::Mutex a("test.noedge_a");
  ds::Mutex b("test.noedge_b");
  {
    ds::MutexLock la(a);
    ds::MutexLock lb(b);
  }
  EXPECT_EQ(LockOrderEdgeCountForTesting(), before);
}

TEST(SyncTest, DetectorRecordsNestingEdges) {
  SetDeadlockDetectionForTesting(true);
  const std::size_t before = LockOrderEdgeCountForTesting();
  ds::Mutex a("test.edge_a");
  ds::Mutex b("test.edge_b");
  {
    ds::MutexLock la(a);
    ds::MutexLock lb(b);
  }
  // Same order again: the edge is already known, the count is stable.
  {
    ds::MutexLock la(a);
    ds::MutexLock lb(b);
  }
  SetDeadlockDetectionForTesting(false);
  EXPECT_EQ(LockOrderEdgeCountForTesting(), before + 1);
}

TEST(SyncTest, ConsistentOrderAcrossThreadsIsAccepted) {
  SetDeadlockDetectionForTesting(true);
  ds::Mutex outer("test.order_outer");
  ds::Mutex inner("test.order_inner");
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        ds::MutexLock lo(outer);
        ds::MutexLock li(inner);
        sum.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SetDeadlockDetectionForTesting(false);
  EXPECT_EQ(sum.load(), 800);
}

TEST(SyncTest, TryLockDoesNotRecordAnOrderEdge) {
  SetDeadlockDetectionForTesting(true);
  const std::size_t before = LockOrderEdgeCountForTesting();
  ds::Mutex a("test.trylock_a");
  ds::Mutex b("test.trylock_b");
  {
    ds::MutexLock la(a);
    ASSERT_TRUE(b.try_lock());
    b.unlock();
  }
  SetDeadlockDetectionForTesting(false);
  EXPECT_EQ(LockOrderEdgeCountForTesting(), before);
}

TEST(SyncLockOrderDeathTest, AbbaInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectionForTesting(true);
        ds::Mutex a("test.abba_a");
        ds::Mutex b("test.abba_b");
        {
          ds::MutexLock la(a);
          ds::MutexLock lb(b);
        }
        {
          ds::MutexLock lb(b);
          ds::MutexLock la(a);  // inverts the recorded a -> b order
        }
      },
      "lock-order cycle");
}

TEST(SyncLockOrderDeathTest, CrossInstanceSameClassNestingIsNotAnEdge) {
  // Two instances of the same lock class nested under a common parent
  // must not self-cycle (the class node would point at itself), but an
  // inversion through a *different* class must still abort.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectionForTesting(true);
        ds::Mutex parent("test.cross_parent");
        ds::Mutex child1("test.cross_child");
        ds::Mutex child2("test.cross_child");
        {
          ds::MutexLock lp(parent);
          ds::MutexLock lc(child1);
          ds::MutexLock lc2(child2);  // same-class nesting: no self-edge
        }
        {
          ds::MutexLock lc(child2);
          ds::MutexLock lp(parent);  // child -> parent inverts the order
        }
      },
      "lock-order cycle");
}

TEST(SyncLockOrderDeathTest, ThreeLockCycleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectionForTesting(true);
        ds::Mutex a("test.ring_a");
        ds::Mutex b("test.ring_b");
        ds::Mutex c("test.ring_c");
        {
          ds::MutexLock la(a);
          ds::MutexLock lb(b);
        }
        {
          ds::MutexLock lb(b);
          ds::MutexLock lc(c);
        }
        {
          ds::MutexLock lc(c);
          ds::MutexLock la(a);  // closes the a -> b -> c ring
        }
      },
      "lock-order cycle");
}

TEST(SyncLockOrderDeathTest, ReentrantAcquireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectionForTesting(true);
        ds::Mutex mu("test.reentrant");
        ds::MutexLock outer(mu);
        mu.lock();  // same instance, same thread: guaranteed deadlock
      },
      "re-entrant acquisition");
}

TEST(SyncBlockingDeathTest, BlockingWhileHoldingOrdinaryMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectionForTesting(true);
        ds::Mutex mu("test.nonblocking_mu");
        ds::MutexLock lock(mu);
        AssertBlockingAllowed("sync_test fake I/O");
      },
      "blocking operation");
}

TEST(SyncBlockingDeathTest, BlockingOnAMarkedDeliveryThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectionForTesting(true);
        DeliveryThreadScope delivery;
        AssertBlockingAllowed("sync_test fake I/O");
      },
      "on a delivery thread");
}

TEST(SyncBlockingTest, DeliveryMarkEndsWithItsScope) {
  SetDeadlockDetectionForTesting(true);
  {
    DeliveryThreadScope outer;
    DeliveryThreadScope inner;
    // A send from a delivery thread only checks the locks it holds.
    AssertNoLockHeld("sync_test fake send");
  }
  AssertBlockingAllowed("sync_test fake I/O");  // must not abort
  SetDeadlockDetectionForTesting(false);
}

TEST(SyncBlockingTest, BlockingAllowedMutexPassesTheAssert) {
  SetDeadlockDetectionForTesting(true);
  ds::Mutex mu("test.blocking_ok_mu", ds::Mutex::kBlockingAllowed);
  {
    ds::MutexLock lock(mu);
    AssertBlockingAllowed("sync_test fake I/O");  // must not abort
  }
  SetDeadlockDetectionForTesting(false);
}

TEST(SyncBlockingTest, AssertIsANoOpWithNoLocksHeld) {
  SetDeadlockDetectionForTesting(true);
  AssertBlockingAllowed("sync_test fake I/O");
  SetDeadlockDetectionForTesting(false);
}

TEST(SyncBlockingTest, CondVarWaitReleasesTheHeldSet) {
  // A CondVar wait is a sanctioned block: the detector must consider
  // the mutex released for the duration of the wait, so a notifier
  // thread taking the same mutex is not flagged.
  SetDeadlockDetectionForTesting(true);
  ds::Mutex mu("test.cv_heldset_mu");
  ds::CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    ds::MutexLock lock(mu);
    ready = true;
    lock.Unlock();
    cv.NotifyOne();
  });
  {
    ds::MutexLock lock(mu);
    while (!ready) {
      ASSERT_TRUE(cv.WaitUntil(mu, Deadline::AfterMillis(5000)));
    }
    // Back from the wait: the mutex is held again and the detector
    // must know it (an AssertBlockingAllowed here would abort — see
    // the death test above — so only check we can still nest).
  }
  notifier.join();
  SetDeadlockDetectionForTesting(false);
}

}  // namespace
}  // namespace dstampede::sync
