// Cluster observability: runs a short mixed workload (a conference and
// a split/track/join pipeline) and then prints the operational state of
// every address space from its metrics registry — STM op counters,
// transport counters — plus GC activity and the listener's surrogate
// census. This is the view an operator of a D-Stampede deployment
// would watch. Run with:
//
//   cluster_monitor [participants=3] [frames=40]
#include <cstdio>
#include <cstdlib>

#include "dstampede/app/tracker.hpp"
#include "dstampede/app/videoconf.hpp"
#include "dstampede/client/listener.hpp"

using namespace dstampede;

namespace {

// One space's counters, read from its metrics registry: the calls its
// threads issued (api.*), the work it did as an owner (stm.*,
// dispatch.*) and its CLF traffic (clf.*).
void PrintAsStats(core::AddressSpace& as) {
  metrics::Registry& registry = as.metrics_registry();
  auto n = [&registry](const char* name) {
    return static_cast<unsigned long long>(registry.GetCounter(name).Value());
  };
  auto mb = [&n](const char* name) {
    return static_cast<double>(n(name)) / (1024.0 * 1024.0);
  };
  std::printf(
      "AS%-3u puts=%-6llu gets=%-6llu consumes=%-6llu attach=%-4llu "
      "detach=%-4llu ns=%-4llu\n"
      "      rpc_out=%-6llu served=%-6llu put_MB=%-7.1f got_MB=%-7.1f\n"
      "      stm: puts=%llu gets=%llu reclaimed=%llu\n"
      "      clf: data_tx=%llu data_rx=%llu retx=%llu acks=%llu "
      "acks_on_data=%llu dups=%llu msgs=%llu shm=%llu\n"
      "      gc : notices=%llu\n",
      AsIndex(as.id()), n("api.puts"), n("api.gets"), n("api.consumes"),
      n("api.attaches"), n("api.detaches"), n("api.ns_ops"),
      n("api.remote_calls"), n("dispatch.requests"), mb("api.bytes_put"),
      mb("api.bytes_got"), n("stm.puts"), n("stm.gets"),
      n("stm.reclaimed_items"), n("clf.data_packets_sent"),
      n("clf.data_packets_received"), n("clf.retransmissions"),
      n("clf.acks_sent"), n("clf.acks_piggybacked"),
      n("clf.duplicates_discarded"),
      n("clf.messages_delivered"), n("clf.shm_messages"),
      static_cast<unsigned long long>(as.gc().notices_total()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t participants =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 3;
  const Timestamp frames = argc > 2 ? std::atoll(argv[2]) : 40;

  core::Runtime::Options rt_opts;
  rt_opts.num_address_spaces = 3;
  rt_opts.dispatcher_threads = 16;
  auto runtime = core::Runtime::Create(rt_opts);
  if (!runtime.ok()) return 1;
  auto listener = client::Listener::Start(**runtime);
  if (!listener.ok()) return 1;

  // Workload 1: a conference.
  app::VideoConfConfig conf;
  conf.num_clients = participants;
  conf.image_bytes = 16 * 1024;
  conf.num_frames = frames;
  conf.warmup_frames = frames / 6;
  conf.multithreaded_mixer = true;
  conf.mixer_as = 2;
  auto report = app::VideoConfApp::Run(**runtime, **listener, conf);
  if (!report.ok()) {
    std::fprintf(stderr, "conference: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  // Workload 2: a tracking pipeline.
  app::TrackerConfig tracker;
  tracker.num_frames = frames / 2;
  tracker.fragments_per_frame = 4;
  tracker.num_workers = 3;
  tracker.frame_bytes = 32 * 1024;
  tracker.work_queue_as = 0;
  tracker.result_queue_as = 1;
  auto tracked = app::SplitJoinPipeline::Run(**runtime, tracker);
  if (!tracked.ok()) {
    std::fprintf(stderr, "tracker: %s\n", tracked.status().ToString().c_str());
    return 1;
  }

  std::printf("workloads done: conference %.0f fps (slowest display), "
              "%lld frames tracked\n\n",
              report->min_display_fps,
              static_cast<long long>(tracked->frames_joined));
  std::printf("--- cluster state ---\n");
  for (std::size_t i = 0; i < (*runtime)->size(); ++i) {
    PrintAsStats((*runtime)->as(i));
  }
  std::printf("--- end devices ---\n");
  std::printf("surrogates: %zu total, %zu active, %zu left, %zu parked, "
              "%zu reaped\n",
              (*listener)->surrogates_total(),
              (*listener)->surrogates_in(client::Surrogate::State::kActive),
              (*listener)->surrogates_in(client::Surrogate::State::kLeft),
              (*listener)->surrogates_in(client::Surrogate::State::kParked),
              (*listener)->surrogates_in(client::Surrogate::State::kReaped));

  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  return 0;
}
