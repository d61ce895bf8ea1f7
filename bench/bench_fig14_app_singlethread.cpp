// Figure 14: video conference with a single-threaded mixer, 2 clients.
//
// Two application versions are compared across per-client image sizes
// from 74 KB to 190 KB: the hand-written TCP socket version and the
// D-Stampede channel version (both single-threaded mixers, §5.2).
// Sustained frames/sec at the slowest display is reported; the paper's
// claim is that the two are comparable, i.e. D-Stampede's abstractions
// cost little at the application level.
//
// Output rows: image_kb socket_fps dstampede_fps
#include "bench_util.hpp"
#include "dstampede/app/socket_videoconf.hpp"
#include "dstampede/app/videoconf.hpp"
#include "dstampede/client/listener.hpp"

using namespace dstampede;

int main() {
  // 2-client runs are cheap; a longer window steadies the socket
  // baseline, whose threads convoy on kernel buffers on small runs.
  const Timestamp frames = bench::EnvLong("DS_BENCH_FRAMES", 150);
  const Timestamp warmup = frames / 6;
  const std::size_t image_kbs[] = {74, 89, 106, 110, 125, 145, 160, 175, 190};

  core::Runtime::Options rt_opts;
  rt_opts.num_address_spaces = 3;
  rt_opts.dispatcher_threads = 16;
  auto runtime = core::Runtime::Create(rt_opts);
  if (!runtime.ok()) bench::Die(runtime.status(), "runtime");
  auto listener = client::Listener::Start(**runtime);
  if (!listener.ok()) bench::Die(listener.status(), "listener");

  std::printf("# Figure 14: single-threaded mixer, 2 clients, "
              "%lld frames per point\n",
              static_cast<long long>(frames));
  std::printf("%9s %12s %15s\n", "image_kb", "socket_fps", "dstampede_fps");

  for (std::size_t kb : image_kbs) {
    app::SocketVideoConfConfig socket_config;
    socket_config.num_clients = 2;
    socket_config.image_bytes = kb * 1024;
    socket_config.num_frames = frames;
    socket_config.warmup_frames = warmup;
    auto socket_report = app::SocketVideoConfApp::Run(socket_config);
    if (!socket_report.ok()) bench::Die(socket_report.status(), "socket app");

    app::VideoConfConfig ds_config;
    ds_config.num_clients = 2;
    ds_config.image_bytes = kb * 1024;
    ds_config.num_frames = frames;
    ds_config.warmup_frames = warmup;
    ds_config.multithreaded_mixer = false;
    ds_config.mixer_as = 2;
    auto ds_report = app::VideoConfApp::Run(**runtime, **listener, ds_config);
    if (!ds_report.ok()) bench::Die(ds_report.status(), "dstampede app");

    std::printf("%9zu %12.1f %15.1f\n", kb, socket_report->min_display_fps,
                ds_report->min_display_fps);
  }

  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  return 0;
}
