// Parameterized application sweep: the full video-conference pipeline,
// content-validated end to end, across a grid of participant counts,
// image sizes and both mixer variants — the paper's Fig 14/15 space at
// test scale. Also sweeps the split/track/join pipeline across
// fragment/worker shapes.
#include <gtest/gtest.h>

#include "dstampede/app/tracker.hpp"
#include "dstampede/app/videoconf.hpp"
#include "dstampede/client/listener.hpp"

namespace dstampede::app {
namespace {

struct ConferenceCase {
  std::size_t clients;
  std::size_t image_kb;
  bool multithreaded;
};

void PrintTo(const ConferenceCase& c, std::ostream* os) {
  *os << c.clients << "clients_" << c.image_kb << "kb_"
      << (c.multithreaded ? "mt" : "st");
}

class ConferenceSweep : public ::testing::TestWithParam<ConferenceCase> {
 protected:
  static void SetUpTestSuite() {
    core::Runtime::Options opts;
    opts.num_address_spaces = 3;
    opts.dispatcher_threads = 16;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok());
    rt_ = std::move(rt).value().release();
    auto listener = client::Listener::Start(*rt_);
    ASSERT_TRUE(listener.ok());
    listener_ = std::move(listener).value().release();
  }
  static void TearDownTestSuite() {
    listener_->Shutdown();
    rt_->Shutdown();
    delete listener_;
    delete rt_;
    listener_ = nullptr;
    rt_ = nullptr;
  }

  static core::Runtime* rt_;
  static client::Listener* listener_;
};

core::Runtime* ConferenceSweep::rt_ = nullptr;
client::Listener* ConferenceSweep::listener_ = nullptr;

TEST_P(ConferenceSweep, EveryFrameValidatedEndToEnd) {
  const ConferenceCase& c = GetParam();
  VideoConfConfig config;
  config.num_clients = c.clients;
  config.image_bytes = c.image_kb * 1024;
  config.num_frames = 24;
  config.warmup_frames = 4;
  config.multithreaded_mixer = c.multithreaded;
  config.mixer_as = 2;
  config.validate_frames = true;
  auto report = VideoConfApp::Run(*rt_, *listener_, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->frames_completed, 24);
  EXPECT_EQ(report->display_fps.size(), c.clients);
  EXPECT_GT(report->min_display_fps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConferenceSweep,
    ::testing::Values(ConferenceCase{2, 2, false}, ConferenceCase{2, 2, true},
                      ConferenceCase{3, 4, false}, ConferenceCase{3, 4, true},
                      ConferenceCase{4, 2, false}, ConferenceCase{4, 2, true},
                      ConferenceCase{5, 1, true}, ConferenceCase{2, 16, true},
                      ConferenceCase{2, 16, false}),
    [](const ::testing::TestParamInfo<ConferenceCase>& info) {
      return std::to_string(info.param.clients) + "clients" +
             std::to_string(info.param.image_kb) + "kb" +
             (info.param.multithreaded ? "mt" : "st");
    });

struct TrackerCase {
  std::size_t fragments;
  std::size_t workers;
};

class TrackerSweep : public ::testing::TestWithParam<TrackerCase> {};

TEST_P(TrackerSweep, AllJoinsVerified) {
  core::Runtime::Options opts;
  opts.num_address_spaces = 2;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  TrackerConfig config;
  config.fragments_per_frame = GetParam().fragments;
  config.num_workers = GetParam().workers;
  config.num_frames = 8;
  config.frame_bytes = 8 * 1024;
  config.work_queue_as = 0;
  config.result_queue_as = 1;
  auto report = SplitJoinPipeline::Run(**rt, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->frames_joined, 8);
  EXPECT_EQ(report->fragments_processed, 8u * GetParam().fragments);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrackerSweep,
    ::testing::Values(TrackerCase{1, 1}, TrackerCase{2, 5}, TrackerCase{8, 2},
                      TrackerCase{5, 5}, TrackerCase{16, 3}),
    [](const ::testing::TestParamInfo<TrackerCase>& info) {
      return std::to_string(info.param.fragments) + "frags" +
             std::to_string(info.param.workers) + "workers";
    });

}  // namespace
}  // namespace dstampede::app
