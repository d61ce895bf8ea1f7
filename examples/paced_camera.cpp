// Real-time synchrony + end devices (§3.1): a camera end device joins
// the cluster through the client library, publishes its channel on the
// name server, and paces itself with D-Stampede's loose temporal
// synchrony — "a camera ... can pace itself to grab images and put
// them into its output channel at 30 frames per second, using absolute
// frame numbers as timestamps". A display end device consumes the
// stream and reports the achieved rate, while a slippage handler
// counts missed ticks. Run with:
//
//   paced_camera [fps=30] [seconds=2] [image_kb=16]
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "dstampede/app/image.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/core/rt_sync.hpp"
#include "dstampede/core/runtime.hpp"

using namespace dstampede;

int main(int argc, char** argv) {
  const double fps = argc > 1 ? std::atof(argv[1]) : 30.0;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 2.0;
  const std::size_t image_kb =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 16;
  const Timestamp frames = static_cast<Timestamp>(fps * seconds);

  core::Runtime::Options rt_opts;
  rt_opts.num_address_spaces = 1;
  auto runtime = core::Runtime::Create(rt_opts);
  if (!runtime.ok()) return 1;
  auto listener = client::Listener::Start(**runtime);
  if (!listener.ok()) return 1;

  std::printf("camera pacing at %.0f fps for %.1fs (%lld frames)\n", fps,
              seconds, static_cast<long long>(frames));

  // Each thread returns whether every call it made and every frame it
  // checked succeeded; one failure fails the run.
  std::atomic<bool> failed{false};
  auto spawn = [&failed](auto body) {
    return std::thread([&failed, body] {
      if (!body()) failed.store(true);
    });
  };

  // Camera end device.
  std::thread camera_thread = spawn([&] {
    client::CClient::Options opts;
    opts.server = (*listener)->addr();
    opts.name = "camera";
    auto camera = client::CClient::Join(opts);
    if (!camera.ok()) return false;
    auto ch = (*camera)->CreateChannel();
    if (!ch.ok()) return false;
    if (!(*camera)
             ->NsRegister(core::NsEntry{"paced/video",
                                        core::NsEntry::Kind::kChannel,
                                        ch->bits(), "paced camera stream"})
             .ok()) {
      return false;
    }
    auto out = (*camera)->Connect(*ch, core::ConnMode::kOutput);
    if (!out.ok()) return false;

    app::VirtualCamera sensor(0, image_kb * 1024);
    std::uint64_t slips = 0;
    core::RtSync pace(
        std::chrono::duration_cast<Duration>(
            std::chrono::duration<double>(1.0 / fps)),
        Millis(5), [&](std::int64_t slip_us) {
          ++slips;
          std::printf("  [camera] slipped %lldus past tolerance\n",
                      static_cast<long long>(slip_us));
        });
    pace.Start();
    for (Timestamp frame = 0; frame < frames; ++frame) {
      if (!(*camera)->Put(*out, frame, sensor.Grab(frame)).ok()) return false;
      (void)pace.Synchronize();
    }
    std::printf("  [camera] %lld frames put, %llu slips\n",
                static_cast<long long>(frames),
                static_cast<unsigned long long>(slips));
    (void)(*camera)->Leave();
    return true;
  });

  // Display end device.
  std::thread display_thread = spawn([&] {
    client::CClient::Options opts;
    opts.server = (*listener)->addr();
    opts.name = "display";
    auto display = client::CClient::Join(opts);
    if (!display.ok()) return false;
    auto entry = (*display)->NsLookup("paced/video", Deadline::AfterMillis(5000));
    if (!entry.ok()) return false;
    auto in = (*display)->Connect(ChannelId::FromBits(entry->id_bits),
                                  core::ConnMode::kInput);
    if (!in.ok()) return false;

    const TimePoint start = Now();
    for (Timestamp frame = 0; frame < frames; ++frame) {
      auto item = (*display)->Get(*in, core::GetSpec::Exact(frame),
                                  Deadline::AfterMillis(10000));
      if (!item.ok()) return false;
      auto info = app::InspectFrame(item->payload.span());
      if (!info.ok() || info->frame_no != frame) {
        std::fprintf(stderr, "frame %lld failed validation\n",
                     static_cast<long long>(frame));
        return false;
      }
      if (!(*display)->Consume(*in, frame).ok()) return false;
    }
    const double secs = std::chrono::duration<double>(Now() - start).count();
    std::printf("  [display] received %lld validated frames at %.1f fps "
                "(target %.0f)\n",
                static_cast<long long>(frames),
                secs > 0 ? static_cast<double>(frames) / secs : 0, fps);
    (void)(*display)->Leave();
    return true;
  });

  camera_thread.join();
  display_thread.join();
  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  if (failed.load()) {
    std::fprintf(stderr, "a thread failed a call or rejected a frame\n");
    return 1;
  }
  return 0;
}
