// Failure-handling extension (§6 future work): surrogate session-state
// tracking, manual and automatic reaping of parked surrogates, and the
// end-to-end effect — a dead device's GC holds are released so live
// participants make progress.
#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <thread>

#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede::client {
namespace {

using core::ConnMode;
using core::GetSpec;

class ReaperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok());
    rt_ = std::move(rt).value();
  }

  void StartListener(Duration auto_reap = Duration::zero()) {
    Listener::Options opts;
    opts.reap_parked_after = auto_reap;
    auto listener = Listener::Start(*rt_, opts);
    ASSERT_TRUE(listener.ok());
    listener_ = std::move(listener).value();
  }

  void TearDown() override {
    if (listener_) listener_->Shutdown();
    rt_->Shutdown();
  }

  // Joins a device, attaches to `ch` as input, registers a name, then
  // vanishes without a clean leave (raw socket slam).
  void RunDoomedDevice(ChannelId ch) {
    auto conn = transport::TcpConnection::Connect(listener_->addr());
    ASSERT_TRUE(conn.ok());
    std::uint64_t req_id = 1;
    auto call = [&](Buffer frame) -> Buffer {
      EXPECT_TRUE(conn->SendFrame(frame).ok());
      Buffer reply;
      EXPECT_TRUE(conn->RecvFrame(reply, Deadline::AfterMillis(5000)).ok());
      return reply;
    };
    {
      marshal::XdrEncoder enc;
      core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kHello),
                                req_id++);
      HelloReq hello;
      hello.name = "doomed";
      core::Encode(enc, hello);
      call(enc.Take());
    }
    {
      marshal::XdrEncoder enc;
      core::EncodeRequestHeader(enc, core::Op::kAttach, req_id++);
      core::AttachReq req;
      req.container_bits = ch.bits();
      req.mode = ConnMode::kInput;
      req.label = "doomed-in";
      core::Encode(enc, req);
      call(enc.Take());
    }
    {
      marshal::XdrEncoder enc;
      core::EncodeRequestHeader(enc, core::Op::kNsRegister, req_id++);
      core::Encode(enc, core::NsEntry{"doomed/name",
                                      core::NsEntry::Kind::kChannel,
                                      ch.bits(), ""});
      call(enc.Take());
    }
    conn->Close();  // crash
  }

  void WaitForState(Surrogate::State state, std::size_t count = 1) {
    WaitForAnyState({state}, count);
  }

  // Polls until `count` surrogates are in one of `states`.
  void WaitForAnyState(std::initializer_list<Surrogate::State> states,
                       std::size_t count = 1) {
    auto in_states = [&] {
      std::size_t n = 0;
      for (Surrogate::State state : states) {
        n += listener_->surrogates_in(state);
      }
      return n;
    };
    for (int i = 0; i < 300 && in_states() < count; ++i) {
      std::this_thread::sleep_for(Millis(10));
    }
    ASSERT_EQ(in_states(), count);
  }

  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(ReaperTest, ManualReapReleasesGcHolds) {
  StartListener();
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = rt_->as(0).Connect(*ch, ConnMode::kOutput);
  auto live_in = rt_->as(1).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(live_in.ok());

  RunDoomedDevice(*ch);
  WaitForState(Surrogate::State::kParked);

  // Items consumed by the live consumer stay pinned by the dead one.
  auto channel = rt_->as(0).FindChannel(ch->bits());
  for (Timestamp ts = 0; ts < 5; ++ts) {
    ASSERT_TRUE(rt_->as(0).Put(*out, ts, Buffer(32)).ok());
    ASSERT_TRUE(rt_->as(1).Consume(*live_in, ts).ok());
  }
  EXPECT_EQ(channel->live_items(), 5u)
      << "dead device's connection still holds everything";

  EXPECT_EQ(listener_->ReapParked(), 1u);
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kReaped), 1u);
  EXPECT_EQ(channel->live_items(), 0u)
      << "reaping detached the dead connection; GC proceeded";
  // Its name registration was cleaned up too.
  EXPECT_EQ(rt_->as(1).NsLookup("doomed/name").status().code(),
            StatusCode::kNotFound);
  // Re-reaping finds nothing.
  EXPECT_EQ(listener_->ReapParked(), 0u);
}

TEST_F(ReaperTest, AutoReapAfterTimeout) {
  StartListener(/*auto_reap=*/Millis(50));
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  RunDoomedDevice(*ch);
  // The parked window is only 50 ms, which a 10 ms poll can miss under
  // load, so first wait for parked-or-reaped. Only the janitor's Reap
  // can set kReaped here, and Reap succeeds only from kParked, so
  // reaching kReaped still proves the surrogate parked first.
  WaitForAnyState({Surrogate::State::kParked, Surrogate::State::kReaped});
  // The janitor reaps without any manual call.
  WaitForState(Surrogate::State::kReaped);
  EXPECT_EQ(rt_->as(0).NsLookup("doomed/name").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ReaperTest, ReapNotifiesALiveDeviceOfWhatItReleased) {
  // A reap detaches the dead device's connection, which reclaims the
  // items it pinned and publishes their notices from the reaping side
  // into the sink of the live device's surrogate, while that device
  // keeps calling.
  StartListener();
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  client::CClient::Options opts;
  opts.server = listener_->addr();
  opts.name = "survivor";
  opts.preferred_as = 0;  // the owner, which publishes the notices
  auto live = CClient::Join(opts);
  ASSERT_TRUE(live.ok());
  std::atomic<int> notices{0};
  ASSERT_TRUE((*live)
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&](const core::GcNotice&) { ++notices; })
                  .ok());
  auto out = (*live)->Connect(*ch, ConnMode::kOutput);
  auto in = (*live)->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  RunDoomedDevice(*ch);
  WaitForState(Surrogate::State::kParked);
  for (Timestamp ts = 0; ts < 3; ++ts) {
    ASSERT_TRUE((*live)->Put(*out, ts, Buffer(32)).ok());
    ASSERT_TRUE((*live)->Consume(*in, ts).ok());
  }
  EXPECT_EQ(notices.load(), 0) << "the dead device still pins them";

  std::thread reaper([&] { EXPECT_EQ(listener_->ReapParked(), 1u); });
  for (int i = 0; i < 300 && notices.load() < 3; ++i) {
    (void)(*live)->NsList("");
    std::this_thread::sleep_for(Millis(1));
  }
  reaper.join();
  (void)(*live)->NsList("");
  EXPECT_EQ(notices.load(), 3);
}

TEST_F(ReaperTest, DefaultKeepsPaperBehaviour) {
  StartListener();  // no auto reap
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  RunDoomedDevice(*ch);
  WaitForState(Surrogate::State::kParked);
  std::this_thread::sleep_for(Millis(200));
  // Parked forever, exactly as §3.3 documents.
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kParked), 1u);
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kReaped), 0u);
}

TEST_F(ReaperTest, CleanDetachDropsTracking) {
  StartListener();
  client::CClient::Options opts;
  opts.server = listener_->addr();
  opts.name = "tidy";
  auto device = CClient::Join(opts);
  ASSERT_TRUE(device.ok());
  auto ch = (*device)->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto conn = (*device)->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*device)->Disconnect(*conn).ok());
  (void)(*device)->Leave();
  WaitForState(Surrogate::State::kLeft);
  // Left surrogates are not reapable (and have nothing tracked anyway).
  EXPECT_EQ(listener_->ReapParked(), 0u);
}

TEST_F(ReaperTest, ActiveSurrogateCannotBeReaped) {
  StartListener();
  client::CClient::Options opts;
  opts.server = listener_->addr();
  opts.name = "alive";
  auto device = CClient::Join(opts);
  ASSERT_TRUE(device.ok());
  EXPECT_EQ(listener_->ReapParked(), 0u);
  // The device keeps working after the no-op reap.
  EXPECT_TRUE((*device)->CreateChannel().ok());
}

}  // namespace
}  // namespace dstampede::client
