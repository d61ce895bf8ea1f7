// Multi-cluster federation (§6 future work, implemented): one
// D-Stampede application spanning two heterogeneous clusters. A camera
// end device joins cluster A through A's listener and publishes its
// channel; an analyzer thread in cluster B finds it through the
// federation-wide name server and consumes the stream — the same calls,
// across cluster boundaries. Run with:
//
//   federated_clusters [frames=30] [image_kb=8]
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "dstampede/app/image.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/core/federation.hpp"

using namespace dstampede;

int main(int argc, char** argv) {
  const Timestamp frames = argc > 1 ? std::atoll(argv[1]) : 30;
  const std::size_t image_kb =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;

  // Two heterogeneous clusters: A is a small edge cluster, B a larger
  // compute cluster with a wider dispatcher pool.
  core::Federation::Options fed_opts;
  fed_opts.clusters = {
      core::Federation::ClusterSpec{.num_address_spaces = 1,
                                    .dispatcher_threads = 4},
      core::Federation::ClusterSpec{.num_address_spaces = 2,
                                    .dispatcher_threads = 8},
  };
  auto federation = core::Federation::Create(fed_opts);
  if (!federation.ok()) {
    std::fprintf(stderr, "federation: %s\n",
                 federation.status().ToString().c_str());
    return 1;
  }
  auto listener_a = client::Listener::Start((*federation)->cluster(0));
  if (!listener_a.ok()) return 1;

  std::printf("federation: cluster A (%zu AS) + cluster B (%zu AS)\n",
              (*federation)->cluster(0).size(),
              (*federation)->cluster(1).size());

  // Each thread returns whether every call it made and every frame it
  // checked succeeded; one failure fails the run.
  std::atomic<bool> failed{false};
  auto spawn = [&failed](auto body) {
    return std::thread([&failed, body] {
      if (!body()) failed.store(true);
    });
  };

  // Camera joins cluster A.
  std::thread camera = spawn([&] {
    client::CClient::Options opts;
    opts.server = (*listener_a)->addr();
    opts.name = "edge-camera";
    auto cam = client::CClient::Join(opts);
    if (!cam.ok()) return false;
    auto ch = (*cam)->CreateChannel();
    if (!ch.ok()) return false;
    if (!(*cam)
             ->NsRegister(core::NsEntry{"federated/video",
                                        core::NsEntry::Kind::kChannel,
                                        ch->bits(), "camera on cluster A"})
             .ok()) {
      return false;
    }
    app::VirtualCamera sensor(0, image_kb * 1024);
    auto out = (*cam)->Connect(*ch, core::ConnMode::kOutput);
    if (!out.ok()) return false;
    for (Timestamp ts = 0; ts < frames; ++ts) {
      if (!(*cam)->Put(*out, ts, sensor.Grab(ts)).ok()) return false;
    }
    std::printf("  [camera@clusterA] streamed %lld frames\n",
                static_cast<long long>(frames));
    (void)(*cam)->Leave();
    return true;
  });

  // Analyzer runs in cluster B and reads across the cluster boundary.
  core::AddressSpace& analyzer_as = (*federation)->cluster(1).as(1);
  std::thread analyzer = spawn([&] {
    auto entry = analyzer_as.NsLookup("federated/video",
                                      Deadline::AfterMillis(10000));
    if (!entry.ok()) {
      std::fprintf(stderr, "lookup: %s\n",
                   entry.status().ToString().c_str());
      return false;
    }
    auto in = analyzer_as.Connect(ChannelId::FromBits(entry->id_bits),
                                  core::ConnMode::kInput, "analyzer@B");
    if (!in.ok()) return false;
    Timestamp validated = 0;
    for (Timestamp ts = 0; ts < frames; ++ts) {
      auto item = analyzer_as.Get(*in, core::GetSpec::Exact(ts),
                                  Deadline::AfterMillis(10000));
      if (!item.ok()) return false;
      auto info = app::InspectFrame(item->payload.span());
      if (!info.ok() || info->frame_no != ts) return false;
      if (!analyzer_as.ConsumeUntil(*in, ts).ok()) return false;
      ++validated;
    }
    std::printf("  [analyzer@clusterB] validated %lld frames across the "
                "cluster boundary\n",
                static_cast<long long>(validated));
    return true;
  });

  camera.join();
  analyzer.join();
  (*listener_a)->Shutdown();
  (*federation)->Shutdown();
  if (failed.load()) {
    std::fprintf(stderr, "a thread failed a call or rejected a frame\n");
    return 1;
  }
  return 0;
}
