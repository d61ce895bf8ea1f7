// Table 1: delivered bandwidth at the mixer's cluster node as a
// function of per-client image size and number of clients.
//
// The paper derives this table from the Figure 15 measurements: with K
// clients, per-client image size S and sustained frame rate F, the
// node must deliver K^2 * S * F bytes/sec (each of the K displays
// receives a composite of size K*S every frame). The table makes the
// scalability ceiling visible: the frame rate collapses once the
// required bandwidth hits the node's limit — an application-structure
// bottleneck, not a D-Stampede one.
//
// Output: the same matrix the paper prints, delivered MBps per
// (image size, client count), plus the measured fps in parentheses.
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

  std::printf("# Table 1: delivered bandwidth K^2*S*F (MBps) by image size "
              "and client count\n");
  std::printf("%14s", "data size (KB)");
  for (std::size_t clients = 2; clients <= max_clients; ++clients) {
    std::printf(" %14zu", clients);
  }
  std::printf("\n");

  for (std::size_t kb : image_kbs) {
    std::printf("%14zu", kb);
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
      const double fps = report->min_display_fps;
      const double mbps = static_cast<double>(clients) * clients *
                          (static_cast<double>(kb) / 1024.0) * fps;
      std::printf(" %6.0f(%4.1ffps)", mbps, fps);
    }
    std::printf("\n");
  }

  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  return 0;
}
