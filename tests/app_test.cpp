// Application-level integration: the video conference end to end with
// full content validation (both mixer variants and the socket
// baseline), and the Fig 3 split/track/join pipeline.
#include <gtest/gtest.h>

#include "dstampede/app/image.hpp"
#include "dstampede/app/socket_videoconf.hpp"
#include "dstampede/app/tracker.hpp"
#include "dstampede/app/videoconf.hpp"
#include "dstampede/client/listener.hpp"

namespace dstampede::app {
namespace {

// --- image/frame primitives --------------------------------------------------

TEST(ImageTest, CameraFramesValidate) {
  VirtualCamera camera(3, 4096);
  Buffer frame = camera.Grab(17);
  EXPECT_EQ(frame.size(), 4096u);
  auto info = InspectFrame(frame);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->client_id, 3u);
  EXPECT_EQ(info->frame_no, 17);
}

TEST(ImageTest, CorruptionDetected) {
  VirtualCamera camera(1, 1024);
  Buffer frame = camera.Grab(0);
  frame[600] ^= 0x1;
  EXPECT_FALSE(InspectFrame(frame).ok());
}

TEST(ImageTest, TinyFrameClampsToHeader) {
  VirtualCamera camera(1, 4);
  EXPECT_EQ(camera.Grab(0).size(), kFrameHeaderBytes);
}

TEST(ImageTest, CompositorTilesAndValidates) {
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kBytes = 2048;
  Compositor comp(kClients, kBytes);
  Buffer composite = comp.MakeComposite();
  EXPECT_EQ(composite.size(), kClients * kBytes);
  for (std::size_t j = 0; j < kClients; ++j) {
    VirtualCamera camera(static_cast<std::uint32_t>(j), kBytes);
    ASSERT_TRUE(comp.Blend(composite, j, camera.Grab(9)).ok());
  }
  for (std::size_t j = 0; j < kClients; ++j) {
    EXPECT_TRUE(
        comp.ValidateTile(composite, j, static_cast<std::uint32_t>(j), 9).ok());
  }
  // Wrong frame number must be caught.
  EXPECT_FALSE(comp.ValidateTile(composite, 0, 0, 10).ok());
}

TEST(ImageTest, CompositorRejectsBadInput) {
  Compositor comp(2, 1024);
  Buffer composite = comp.MakeComposite();
  EXPECT_FALSE(comp.Blend(composite, 5, Buffer(1024)).ok());
  EXPECT_FALSE(comp.Blend(composite, 0, Buffer(99)).ok());
  Buffer wrong_size(10);
  EXPECT_FALSE(comp.Blend(wrong_size, 0, Buffer(1024)).ok());
}

// --- video conference on D-Stampede ----------------------------------------

class VideoConfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Runtime::Options opts;
    opts.num_address_spaces = 3;
    opts.dispatcher_threads = 12;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
    auto listener = client::Listener::Start(*rt_);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
  }
  void TearDown() override {
    listener_->Shutdown();
    rt_->Shutdown();
  }

  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<client::Listener> listener_;
};

TEST_F(VideoConfTest, SingleThreadedMixerDeliversValidatedFrames) {
  VideoConfConfig config;
  config.num_clients = 2;
  config.image_bytes = 8 * 1024;
  config.num_frames = 40;
  config.warmup_frames = 5;
  config.multithreaded_mixer = false;
  config.validate_frames = true;
  auto report = VideoConfApp::Run(*rt_, *listener_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->frames_completed, 40);
  EXPECT_EQ(report->display_fps.size(), 2u);
  EXPECT_GT(report->min_display_fps, 0.0);
}

TEST_F(VideoConfTest, MultiThreadedMixerDeliversValidatedFrames) {
  VideoConfConfig config;
  config.num_clients = 3;
  config.image_bytes = 8 * 1024;
  config.num_frames = 40;
  config.warmup_frames = 5;
  config.multithreaded_mixer = true;
  config.validate_frames = true;
  config.mixer_as = 2;
  auto report = VideoConfApp::Run(*rt_, *listener_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->min_display_fps, 0.0);
}

TEST_F(VideoConfTest, PacedProducersRespectTargetRate) {
  VideoConfConfig config;
  config.num_clients = 2;
  config.image_bytes = 4 * 1024;
  config.num_frames = 30;
  config.warmup_frames = 5;
  config.producer_fps = 60.0;  // pace via real-time synchrony
  config.validate_frames = true;
  auto report = VideoConfApp::Run(*rt_, *listener_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  // Display rate cannot exceed the paced camera rate (some slack for
  // timer coarseness).
  EXPECT_LE(report->min_display_fps, 75.0);
}

TEST_F(VideoConfTest, BackToBackRunsOnOneCluster) {
  // Dynamic start/stop: a second conference on the same cluster works
  // (fresh names, fresh channels) after the first finished.
  VideoConfConfig config;
  config.num_clients = 2;
  config.image_bytes = 4 * 1024;
  config.num_frames = 20;
  config.warmup_frames = 3;
  config.validate_frames = true;
  ASSERT_TRUE(VideoConfApp::Run(*rt_, *listener_, config).ok());
  ASSERT_TRUE(VideoConfApp::Run(*rt_, *listener_, config).ok());
}

TEST_F(VideoConfTest, RejectsBadConfig) {
  VideoConfConfig config;
  config.num_clients = 0;
  EXPECT_EQ(VideoConfApp::Run(*rt_, *listener_, config).status().code(),
            StatusCode::kInvalidArgument);
}

// --- the socket baseline ------------------------------------------------------

TEST(SocketVideoConfTest, DeliversValidatedFrames) {
  SocketVideoConfConfig config;
  config.num_clients = 2;
  config.image_bytes = 8 * 1024;
  config.num_frames = 40;
  config.warmup_frames = 5;
  config.validate_frames = true;
  auto report = SocketVideoConfApp::Run(config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->min_display_fps, 0.0);
  EXPECT_EQ(report->display_fps.size(), 2u);
}

TEST(SocketVideoConfTest, ScalesToMoreClients) {
  SocketVideoConfConfig config;
  config.num_clients = 4;
  config.image_bytes = 4 * 1024;
  config.num_frames = 30;
  config.warmup_frames = 5;
  config.validate_frames = true;
  auto report = SocketVideoConfApp::Run(config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->min_display_fps, 0.0);
}

TEST(SocketVideoConfTest, RejectsBadConfig) {
  SocketVideoConfConfig config;
  config.num_frames = 5;
  config.warmup_frames = 10;
  EXPECT_EQ(SocketVideoConfApp::Run(config).status().code(),
            StatusCode::kInvalidArgument);
}

// --- split/track/join (Fig 3) ---------------------------------------------------

class TrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
  }
  void TearDown() override { rt_->Shutdown(); }
  std::unique_ptr<core::Runtime> rt_;
};

TEST_F(TrackerTest, AllFramesJoinWithVerifiedChecksums) {
  TrackerConfig config;
  config.fragments_per_frame = 4;
  config.num_workers = 3;
  config.num_frames = 12;
  config.frame_bytes = 32 * 1024;
  auto report = SplitJoinPipeline::Run(*rt_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->frames_joined, 12);
  EXPECT_EQ(report->fragments_processed, 48u);
}

TEST_F(TrackerTest, WorkIsSharedAcrossTrackers) {
  TrackerConfig config;
  config.fragments_per_frame = 8;
  config.num_workers = 4;
  config.num_frames = 16;
  config.frame_bytes = 16 * 1024;
  auto report = SplitJoinPipeline::Run(*rt_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  std::uint64_t total = 0;
  for (auto count : report->per_worker_fragments) total += count;
  EXPECT_EQ(total, 128u);
  // With 128 fragments and a shared FIFO, it is overwhelmingly likely
  // more than one tracker did work (exactly-once sharing, not
  // broadcast).
  std::size_t active = 0;
  for (auto count : report->per_worker_fragments) {
    if (count > 0) ++active;
  }
  EXPECT_GE(active, 2u);
}

TEST_F(TrackerTest, QueuesOnDifferentAddressSpaces) {
  TrackerConfig config;
  config.fragments_per_frame = 4;
  config.num_workers = 2;
  config.num_frames = 8;
  config.frame_bytes = 8 * 1024;
  config.work_queue_as = 0;
  config.result_queue_as = 1;
  auto report = SplitJoinPipeline::Run(*rt_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->frames_joined, 8);
}

TEST_F(TrackerTest, SingleWorkerStillCompletes) {
  TrackerConfig config;
  config.fragments_per_frame = 4;
  config.num_workers = 1;
  config.num_frames = 6;
  config.frame_bytes = 8 * 1024;
  auto report = SplitJoinPipeline::Run(*rt_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->frames_joined, 6);
  EXPECT_EQ(report->per_worker_fragments[0], 24u);
}

TEST_F(TrackerTest, RejectsBadConfig) {
  TrackerConfig config;
  config.num_workers = 0;
  EXPECT_EQ(SplitJoinPipeline::Run(*rt_, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AnalyzeFragmentTest, ChecksumIsDeterministicAndSensitive) {
  Buffer data(1024);
  FillPattern(data, 5);
  const std::uint64_t a = AnalyzeFragment(data);
  EXPECT_EQ(AnalyzeFragment(data), a);
  data[100] ^= 1;
  EXPECT_NE(AnalyzeFragment(data), a);
}

}  // namespace
}  // namespace dstampede::app
