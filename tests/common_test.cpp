// Unit tests for the common substrate: Status/Result, byte buffers,
// deadlines, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/thread_pool.hpp"
#include "thread_count.hpp"

namespace dstampede {
namespace {

// --- Status / Result -----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = NotFoundError("channel 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "channel 7");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: channel 7");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kInternal); ++code) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(code)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = TimeoutError("slow");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status ReturnIfErrorHelper(bool fail) {
  DS_RETURN_IF_ERROR(fail ? InternalError("boom") : OkStatus());
  return OkStatus();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(ReturnIfErrorHelper(false).ok());
  EXPECT_EQ(ReturnIfErrorHelper(true).code(), StatusCode::kInternal);
}

Result<int> AssignOrReturnHelper(Result<int> in) {
  DS_ASSIGN_OR_RETURN(int v, std::move(in));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*AssignOrReturnHelper(1), 2);
  EXPECT_EQ(AssignOrReturnHelper(NotFoundError()).status().code(),
            StatusCode::kNotFound);
}

// --- bytes ---------------------------------------------------------------

TEST(BytesTest, WriterReaderRoundTrip) {
  Buffer buf;
  ByteWriter writer(buf);
  writer.U8(0xAB);
  writer.U16(0x1234);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFULL);
  writer.I64(-42);
  writer.F64(3.25);
  writer.Str("hello");

  ByteReader reader(buf);
  EXPECT_EQ(*reader.U8(), 0xAB);
  EXPECT_EQ(*reader.U16(), 0x1234);
  EXPECT_EQ(*reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*reader.I64(), -42);
  EXPECT_EQ(*reader.F64(), 3.25);
  EXPECT_EQ(*reader.Str(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, BigEndianLayout) {
  Buffer buf;
  ByteWriter writer(buf);
  writer.U32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(BytesTest, ReaderUnderrunIsError) {
  Buffer buf = {0x01, 0x02};
  ByteReader reader(buf);
  EXPECT_FALSE(reader.U32().ok());
}

TEST(BytesTest, BlobRoundTrip) {
  Buffer buf;
  ByteWriter writer(buf);
  Buffer payload = {1, 2, 3, 4, 5};
  writer.Blob(payload);
  ByteReader reader(buf);
  EXPECT_EQ(*reader.Blob(), payload);
}

TEST(BytesTest, TruncatedBlobIsError) {
  Buffer buf;
  ByteWriter writer(buf);
  writer.U32(100);  // claims 100 bytes, provides none
  ByteReader reader(buf);
  EXPECT_FALSE(reader.Blob().ok());
}

TEST(BytesTest, SharedBufferAliasesWithoutCopy) {
  SharedBuffer a = SharedBuffer::FromString("payload");
  SharedBuffer b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(b.ToString(), "payload");
}

TEST(BytesTest, EmptySharedBuffer) {
  SharedBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
}

TEST(BytesTest, PatternRoundTrip) {
  Buffer buf(1000);
  FillPattern(buf, 1234);
  EXPECT_TRUE(CheckPattern(buf, 1234));
  EXPECT_FALSE(CheckPattern(buf, 1235));
  buf[500] ^= 0xFF;
  EXPECT_FALSE(CheckPattern(buf, 1234));
}

TEST(BytesTest, PatternDiffersAcrossSeeds) {
  Buffer a(64), b(64);
  FillPattern(a, 1);
  FillPattern(b, 2);
  EXPECT_NE(a, b);
}

// --- ids -------------------------------------------------------------------

TEST(IdsTest, HandleEmbedsOwnerAndSlot) {
  ChannelId id(static_cast<AsId>(3), 17);
  EXPECT_EQ(AsIndex(id.owner()), 3u);
  EXPECT_EQ(id.slot(), 17u);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(ChannelId::FromBits(id.bits()), id);
}

TEST(IdsTest, DefaultHandleInvalid) {
  ChannelId id;
  EXPECT_FALSE(id.valid());
}

TEST(IdsTest, HandlesHashAndCompare) {
  ChannelId a(static_cast<AsId>(1), 2);
  ChannelId b(static_cast<AsId>(1), 3);
  EXPECT_TRUE(a < b);
  EXPECT_NE(std::hash<ChannelId>{}(a), std::hash<ChannelId>{}(b));
}

// --- clock / deadline ---------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, PollExpiresImmediately) {
  Deadline d = Deadline::Poll();
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), Duration::zero());
}

TEST(DeadlineTest, FutureDeadlineCountsDown) {
  Deadline d = Deadline::AfterMillis(50);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), Duration::zero());
  std::this_thread::sleep_for(Millis(70));
  EXPECT_TRUE(d.expired());
}

// --- thread pool ----------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesSubmittedWork) {
  ThreadPool pool(2);
  pool.Start();
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&] { count.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, DrainsQueueOnShutdown) {
  ThreadPool pool(1);
  pool.Start();
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&] {
      std::this_thread::sleep_for(Millis(1));
      count.fetch_add(1);
    });
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, WorkQueuedBeforeStartRunsOnceStarted) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&] { count.fetch_add(1); }));
  }
  EXPECT_EQ(pool.pending(), 10u);
  EXPECT_EQ(count.load(), 0);
  pool.Start();
  pool.Shutdown();
  EXPECT_EQ(count.load(), 10);
}

// Tasks that run until Release: how many have started, and a gate
// that holds them.
class HeldTasks {
 public:
  std::function<void()> Task() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      ++started_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    };
  }
  void AwaitStarted(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_ >= n; });
  }
  int started() {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int started_ = 0;
  bool released_ = false;
};

TEST(ThreadPoolTest, StartsNoWorkerBeforeTheFirstSubmit) {
  const int before = BaselineThreadCount();
  ThreadPool pool(4);
  pool.Start();
  EXPECT_EQ(ThreadCount(), before);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.Submit([&] { ran = true; }));
  EXPECT_EQ(ThreadCount(), before + 1);
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, HeldTasksStartWorkersUpToTheCap) {
  const int before = BaselineThreadCount();
  ThreadPool pool(4);
  pool.Start();
  HeldTasks held;
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(pool.Submit(held.Task()));
  held.AwaitStarted(4);
  EXPECT_EQ(ThreadCount(), before + 4);
  EXPECT_EQ(pool.pending(), 2u);
  EXPECT_EQ(held.started(), 4);
  held.Release();
  pool.Shutdown();
  EXPECT_EQ(held.started(), 6);
}

TEST(ThreadPoolTest, FinishedWorkersTakeLaterTasks) {
  const int before = BaselineThreadCount();
  ThreadPool pool(8);
  pool.Start();
  HeldTasks first;
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(pool.Submit(first.Task()));
  first.AwaitStarted(2);
  EXPECT_EQ(ThreadCount(), before + 2);
  first.Release();
  // Both workers are back for work before the next tasks arrive.
  while (pool.idle() != 2) std::this_thread::yield();
  HeldTasks later;
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(pool.Submit(later.Task()));
  later.AwaitStarted(2);
  EXPECT_EQ(ThreadCount(), before + 2);
  later.Release();
  pool.Shutdown();
}

TEST(ThreadPoolTest, ShutdownJoinsEveryStartedWorker) {
  const int before = BaselineThreadCount();
  ThreadPool pool(8);
  pool.Start();
  HeldTasks held;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pool.Submit(held.Task()));
  held.AwaitStarted(3);
  EXPECT_EQ(ThreadCount(), before + 3);
  held.Release();
  pool.Shutdown();
  EXPECT_EQ(ThreadCountOnceItReads(before), before);
}

TEST(ThreadPoolTest, WaitGroupWaitsForAll) {
  WaitGroup wg;
  std::atomic<int> done{0};
  wg.Add(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      std::this_thread::sleep_for(Millis(10));
      done.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(done.load(), 3);
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace dstampede
