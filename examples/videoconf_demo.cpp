// Video-conference demo (§4, Fig 5): a cluster of three address
// spaces, a TCP listener for end devices, and N participants each with
// a camera end device and a display end device. Frames flow camera ->
// C_j -> mixer (N_M) -> C_0 -> displays; every frame is content-
// validated end to end. Run with:
//
//   videoconf_demo [participants=3] [image_kb=32] [frames=60] [mt=1]
//                  [linger_sec=0]
//
// With linger_sec > 0 the cluster stays up after the conference so
// dsctl can be pointed at the printed DSCTL_PORT to inspect the
// per-channel space-time state the run left behind.
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "dstampede/app/videoconf.hpp"

using namespace dstampede;

int main(int argc, char** argv) {
  const std::size_t participants =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 3;
  const std::size_t image_kb =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 32;
  const Timestamp frames = argc > 3 ? std::atoll(argv[3]) : 60;
  const bool multithreaded = argc > 4 ? std::atoi(argv[4]) != 0 : true;
  const long linger_sec = argc > 5 ? std::atol(argv[5]) : 0;

  core::Runtime::Options rt_opts;
  rt_opts.num_address_spaces = 3;
  rt_opts.dispatcher_threads = 16;
  auto runtime = core::Runtime::Create(rt_opts);
  if (!runtime.ok()) {
    std::fprintf(stderr, "runtime: %s\n", runtime.status().ToString().c_str());
    return 1;
  }
  auto listener = client::Listener::Start(**runtime);
  if (!listener.ok()) {
    std::fprintf(stderr, "listener: %s\n",
                 listener.status().ToString().c_str());
    return 1;
  }

  std::printf("DSCTL_PORT=%u\n", (*listener)->addr().port);
  std::fflush(stdout);

  app::VideoConfConfig config;
  config.num_clients = participants;
  config.image_bytes = image_kb * 1024;
  config.num_frames = frames;
  config.warmup_frames = frames / 6;
  config.multithreaded_mixer = multithreaded;
  config.mixer_as = 2;
  config.validate_frames = true;

  std::printf(
      "video conference: %zu participants, %zu KB images, %lld frames, "
      "%s mixer\n",
      participants, image_kb, static_cast<long long>(frames),
      multithreaded ? "multi-threaded" : "single-threaded");

  auto report = app::VideoConfApp::Run(**runtime, **listener, config);
  if (!report.ok()) {
    std::fprintf(stderr, "conference failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (std::size_t j = 0; j < report->display_fps.size(); ++j) {
    std::printf("  participant %zu display: %.1f frames/sec "
                "(composite %zu KB/frame)\n",
                j, report->display_fps[j],
                participants * image_kb);
  }
  std::printf("sustained (slowest display): %.1f frames/sec; "
              "all %lld frames validated\n",
              report->min_display_fps,
              static_cast<long long>(report->frames_completed));

  if (linger_sec > 0) {
    std::printf("lingering %ld s for dsctl (port %u)\n", linger_sec,
                (*listener)->addr().port);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger_sec));
  }

  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  return 0;
}
