// Figure 15: video conference with the multi-threaded mixer.
//
// Sustained frames/sec at the slowest display as a function of the
// number of participants (2..7), one series per client image size
// {74, 89, 125, 145, 190} KB — the paper's exact grid. Each
// participant's display receives a composite K times the client image
// size. The paper reports readings only above 10 frames/sec; rows
// below that threshold are printed but flagged, so the cutoff the
// paper applies is visible rather than silent.
//
// Output rows: image_kb clients fps [below-threshold flag]
#include "bench_util.hpp"
#include "dstampede/app/videoconf.hpp"
#include "dstampede/client/listener.hpp"

using namespace dstampede;

int main() {
  const Timestamp frames = bench::EnvLong("DS_BENCH_FRAMES", 60);
  const Timestamp warmup = frames / 6;
  const std::size_t image_kbs[] = {74, 89, 125, 145, 190};
  const std::size_t max_clients =
      static_cast<std::size_t>(bench::EnvLong("DS_BENCH_MAX_CLIENTS", 7));

  core::Runtime::Options rt_opts;
  rt_opts.num_address_spaces = 3;
  rt_opts.dispatcher_threads = 24;
  auto runtime = core::Runtime::Create(rt_opts);
  if (!runtime.ok()) bench::Die(runtime.status(), "runtime");
  auto listener = client::Listener::Start(**runtime);
  if (!listener.ok()) bench::Die(listener.status(), "listener");

  std::printf("# Figure 15: multi-threaded mixer, frames/sec vs clients\n");
  std::printf("# %lld frames per point; paper threshold: 10 fps\n",
              static_cast<long long>(frames));
  std::printf("%9s %8s %8s\n", "image_kb", "clients", "fps");

  for (std::size_t kb : image_kbs) {
    for (std::size_t clients = 2; clients <= max_clients; ++clients) {
      app::VideoConfConfig config;
      config.num_clients = clients;
      config.image_bytes = kb * 1024;
      config.num_frames = frames;
      config.warmup_frames = warmup;
      config.multithreaded_mixer = true;
      config.mixer_as = 2;
      auto report = app::VideoConfApp::Run(**runtime, **listener, config);
      if (!report.ok()) bench::Die(report.status(), "conference");
      std::printf("%9zu %8zu %8.1f%s\n", kb, clients,
                  report->min_display_fps,
                  report->min_display_fps < 10.0 ? "   (below paper threshold)"
                                                 : "");
    }
    std::printf("\n");
  }

  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  return 0;
}
