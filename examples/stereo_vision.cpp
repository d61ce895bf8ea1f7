// Stereo vision by temporal correlation (§2, requirement 2): two
// camera end devices stream frames into their own channels; a fusion
// thread on the cluster correlates the two streams by timestamp and
// "fuses" each aligned pair. The right camera drops frames (as real
// sensors do), so the correlator has to skip uncorrelatable
// timestamps — the skip count is reported, and consume-until keeps the
// dropped frames from accumulating in the channels. Run with:
//
//   stereo_vision [frames=60] [image_kb=16] [drop_every=7]
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "dstampede/app/correlator.hpp"
#include "dstampede/app/image.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/core/runtime.hpp"

using namespace dstampede;

int main(int argc, char** argv) {
  const Timestamp frames = argc > 1 ? std::atoll(argv[1]) : 60;
  const std::size_t image_kb =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 16;
  const Timestamp drop_every = argc > 3 ? std::atoll(argv[3]) : 7;

  core::Runtime::Options rt_opts;
  rt_opts.num_address_spaces = 2;
  auto runtime = core::Runtime::Create(rt_opts);
  if (!runtime.ok()) return 1;
  auto listener = client::Listener::Start(**runtime);
  if (!listener.ok()) return 1;

  // Each thread returns whether every call it made and every frame it
  // checked succeeded; one failure fails the run.
  std::atomic<bool> failed{false};
  auto spawn = [&failed](auto body) {
    return std::thread([&failed, body] {
      if (!body()) failed.store(true);
    });
  };

  auto camera_thread = [&](const char* name, std::uint32_t id,
                           bool drops_frames) {
    return spawn([&, name, id, drops_frames] {
      client::CClient::Options opts;
      opts.server = (*listener)->addr();
      opts.name = name;
      auto cam = client::CClient::Join(opts);
      if (!cam.ok()) return false;
      auto ch = (*cam)->CreateChannel();
      if (!ch.ok()) return false;
      if (!(*cam)
               ->NsRegister(core::NsEntry{std::string("stereo/") + name,
                                          core::NsEntry::Kind::kChannel,
                                          ch->bits(), "camera stream"})
               .ok()) {
        return false;
      }
      auto out = (*cam)->Connect(*ch, core::ConnMode::kOutput);
      if (!out.ok()) return false;
      app::VirtualCamera sensor(id, image_kb * 1024);
      for (Timestamp ts = 0; ts < frames; ++ts) {
        if (drops_frames && drop_every > 0 && ts % drop_every == drop_every - 1) {
          continue;  // sensor hiccup: this frame never happened
        }
        if (!(*cam)->Put(*out, ts, sensor.Grab(ts)).ok()) return false;
      }
      (void)(*cam)->Leave();
      return true;
    });
  };

  std::thread left = camera_thread("left", 0, /*drops_frames=*/false);
  std::thread right = camera_thread("right", 1, /*drops_frames=*/true);

  // Fusion thread on the cluster.
  core::AddressSpace& as = (*runtime)->as(1);
  std::thread fusion = spawn([&] {
    std::vector<core::Connection> inputs;
    for (const char* name : {"stereo/left", "stereo/right"}) {
      auto entry = as.NsLookup(name, Deadline::AfterMillis(10000));
      if (!entry.ok()) return false;
      auto conn = as.Connect(ChannelId::FromBits(entry->id_bits),
                             core::ConnMode::kInput, "fusion");
      if (!conn.ok()) return false;
      inputs.push_back(*conn);
    }
    app::TemporalCorrelator correlator(as, std::move(inputs));
    std::uint64_t fused = 0;
    for (;;) {
      auto tuple = correlator.NextTuple(Deadline::AfterMillis(2000));
      if (!tuple.ok()) break;  // streams ended
      auto l = app::InspectFrame(tuple->items[0].payload.span());
      auto r = app::InspectFrame(tuple->items[1].payload.span());
      if (!l.ok() || !r.ok() || l->frame_no != r->frame_no) {
        std::fprintf(stderr, "correlation violated at ts=%lld\n",
                     static_cast<long long>(tuple->timestamp));
        return false;
      }
      ++fused;
    }
    std::printf("fused %llu stereo pairs; skipped %llu timestamps "
                "(right camera drops 1 in %lld)\n",
                static_cast<unsigned long long>(fused),
                static_cast<unsigned long long>(correlator.skipped_timestamps()),
                static_cast<long long>(drop_every));
    return true;
  });

  left.join();
  right.join();
  fusion.join();
  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  if (failed.load()) {
    std::fprintf(stderr, "a thread failed a call or rejected a frame\n");
    return 1;
  }
  return 0;
}
