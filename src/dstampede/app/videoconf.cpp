#include "dstampede/app/videoconf.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>

#include "dstampede/app/image.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/common/logging.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/core/rt_sync.hpp"

namespace dstampede::app {
namespace {

// Unique name-server prefix per run so repeated runs on one cluster
// don't collide.
std::string FreshPrefix() {
  static std::atomic<std::uint64_t> counter{0};
  return "videoconf/" + std::to_string(counter.fetch_add(1));
}

// Collects the first failure from any participant thread.
class FailBox {
 public:
  void Set(const Status& status) {
    if (status.ok()) return;
    ds::MutexLock lock(mu_);
    if (first_.ok()) first_ = status;
    failed_.store(true);
  }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  Status first() const {
    ds::MutexLock lock(mu_);
    return first_;
  }

 private:
  mutable ds::Mutex mu_{"app.failbox.mu"};
  Status first_ DS_GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
};

Deadline OpDeadline() { return Deadline::AfterMillis(60000); }

}  // namespace

Result<VideoConfReport> VideoConfApp::Run(core::Runtime& runtime,
                                          client::Listener& listener,
                                          const VideoConfConfig& config) {
  if (config.num_clients == 0 || config.num_frames <= config.warmup_frames) {
    return InvalidArgumentError("bad videoconf config");
  }
  const std::size_t k = config.num_clients;
  const std::string prefix = FreshPrefix();
  core::AddressSpace& mixer_as = runtime.as(config.mixer_as);

  // Server-side setup (§4): composite output channel C0 in N_M.
  core::ChannelAttr c0_attr;
  c0_attr.capacity_items = config.channel_capacity;
  c0_attr.debug_name = prefix + "/out";
  DS_ASSIGN_OR_RETURN(ChannelId c0, mixer_as.CreateChannel(c0_attr));
  DS_RETURN_IF_ERROR(mixer_as.NsRegister(core::NsEntry{
      prefix + "/out", core::NsEntry::Kind::kChannel, c0.bits(),
      "composite video stream"}));

  FailBox fail;
  VideoConfReport report;
  report.display_fps.assign(k, 0.0);
  std::atomic<std::uint64_t> producer_slips{0};
  std::vector<Thread> threads;

  // --- producers: one camera end device per participant -------------------
  for (std::size_t j = 0; j < k; ++j) {
    threads.emplace_back([&, j] {
      client::CClient::Options opts;
      opts.server = listener.addr();
      opts.name = prefix + "/camera/" + std::to_string(j);
      // Spread camera channels over the cluster's address spaces, as
      // §4 has channels C_j created in N_1..N_k.
      opts.preferred_as =
          static_cast<std::int32_t>(j % runtime.size());
      auto client = client::CClient::Join(opts);
      if (!client.ok()) return fail.Set(client.status());

      core::ChannelAttr attr;
      attr.capacity_items = config.channel_capacity;
      attr.debug_name = prefix + "/in/" + std::to_string(j);
      auto cj = (*client)->CreateChannel(attr);
      if (!cj.ok()) return fail.Set(cj.status());
      Status reg = (*client)->NsRegister(core::NsEntry{
          attr.debug_name, core::NsEntry::Kind::kChannel, cj->bits(),
          "camera stream"});
      if (!reg.ok()) return fail.Set(reg);

      auto conn = (*client)->Connect(*cj, core::ConnMode::kOutput);
      if (!conn.ok()) return fail.Set(conn.status());

      VirtualCamera camera(static_cast<std::uint32_t>(j), config.image_bytes);
      std::unique_ptr<core::RtSync> pace;
      if (config.producer_fps > 0) {
        pace = std::make_unique<core::RtSync>(
            std::chrono::duration_cast<Duration>(
                std::chrono::duration<double>(1.0 / config.producer_fps)),
            Millis(5), [&](std::int64_t) {
              producer_slips.fetch_add(1, std::memory_order_relaxed);
            });
      }
      for (Timestamp ts = 0; ts < config.num_frames && !fail.failed(); ++ts) {
        Status s = (*client)->Put(*conn, ts, camera.Grab(ts), OpDeadline());
        if (!s.ok()) return fail.Set(s);
        if (pace) (void)pace->Synchronize();
      }
      (void)(*client)->Disconnect(*conn);
      (void)(*client)->Leave();
    });
  }

  // --- displays: one display end device per participant ---------------------
  for (std::size_t j = 0; j < k; ++j) {
    threads.emplace_back([&, j] {
      client::CClient::Options opts;
      opts.server = listener.addr();
      opts.name = prefix + "/display/" + std::to_string(j);
      auto client = client::CClient::Join(opts);
      if (!client.ok()) return fail.Set(client.status());

      auto entry = (*client)->NsLookup(prefix + "/out", OpDeadline());
      if (!entry.ok()) return fail.Set(entry.status());
      auto conn = (*client)->Connect(ChannelId::FromBits(entry->id_bits),
                                     core::ConnMode::kInput);
      if (!conn.ok()) return fail.Set(conn.status());

      Compositor comp(k, config.image_bytes);
      TimePoint start = Now();
      std::uint64_t shown = 0;  // frames displayed since the warm-up
      for (Timestamp ts = 0; ts < config.num_frames && !fail.failed(); ++ts) {
        if (ts == config.warmup_frames) start = Now();
        auto item =
            (*client)->Get(*conn, core::GetSpec::Exact(ts), OpDeadline());
        if (!item.ok()) return fail.Set(item.status());
        if (config.validate_frames) {
          for (std::size_t tile = 0; tile < k; ++tile) {
            Status v = comp.ValidateTile(item->payload.span(), tile,
                                         static_cast<std::uint32_t>(tile), ts);
            if (!v.ok()) return fail.Set(v);
          }
        }
        Status c = (*client)->Consume(*conn, ts);
        if (!c.ok()) return fail.Set(c);
        if (ts >= config.warmup_frames) ++shown;
      }
      const double secs = std::chrono::duration<double>(Now() - start).count();
      report.display_fps[j] = secs > 0 ? static_cast<double>(shown) / secs : 0;
      (void)(*client)->Disconnect(*conn);
      (void)(*client)->Leave();
    });
  }

  // --- the mixer in N_M ------------------------------------------------------
  auto connect_inputs =
      [&]() -> Result<std::vector<core::Connection>> {
    std::vector<core::Connection> conns;
    for (std::size_t j = 0; j < k; ++j) {
      DS_ASSIGN_OR_RETURN(
          core::NsEntry entry,
          mixer_as.NsLookup(prefix + "/in/" + std::to_string(j), OpDeadline()));
      DS_ASSIGN_OR_RETURN(core::Connection conn,
                          mixer_as.Connect(ChannelId::FromBits(entry.id_bits),
                                           core::ConnMode::kInput, "mixer"));
      conns.push_back(conn);
    }
    return conns;
  };

  // Composites reclaim as soon as every *attached* display consumed
  // them, so the mixer must not start publishing until all K displays
  // are connected to C0 — else a fast display races a slow joiner past
  // the reclaim horizon.
  auto wait_for_displays = [&]() -> Status {
    auto c0_local = mixer_as.FindChannel(c0.bits());
    if (!c0_local) return InternalError("C0 vanished");
    const Deadline deadline = OpDeadline();
    while (c0_local->input_connections() < k) {
      if (fail.failed()) return CancelledError("run failed");
      if (deadline.expired()) return TimeoutError("displays never connected");
      dstampede::SleepFor(Millis(1));
    }
    return OkStatus();
  };

  if (!config.multithreaded_mixer) {
    threads.emplace_back([&] {
      auto conns = connect_inputs();
      if (!conns.ok()) return fail.Set(conns.status());
      auto out = mixer_as.Connect(c0, core::ConnMode::kOutput, "mixer-out");
      if (!out.ok()) return fail.Set(out.status());
      Status ready = wait_for_displays();
      if (!ready.ok()) return fail.Set(ready);
      Compositor comp(k, config.image_bytes);
      for (Timestamp ts = 0; ts < config.num_frames && !fail.failed(); ++ts) {
        Buffer composite = comp.MakeComposite();
        for (std::size_t j = 0; j < k; ++j) {
          auto item = mixer_as.Get((*conns)[j], core::GetSpec::Exact(ts),
                                   OpDeadline());
          if (!item.ok()) return fail.Set(item.status());
          Status b = comp.Blend(composite, j, item->payload.span());
          if (!b.ok()) return fail.Set(b);
          Status c = mixer_as.Consume((*conns)[j], ts);
          if (!c.ok()) return fail.Set(c);
        }
        Status p = mixer_as.Put(*out, ts, std::move(composite), OpDeadline());
        if (!p.ok()) return fail.Set(p);
      }
      for (auto& conn : *conns) (void)mixer_as.Disconnect(conn);
      (void)mixer_as.Disconnect(*out);
    });
  } else {
    // Multi-threaded mixer: one thread per participant; a barrier's
    // completion step publishes each finished composite.
    threads.emplace_back([&] {
      auto conns = connect_inputs();
      if (!conns.ok()) return fail.Set(conns.status());
      auto out = mixer_as.Connect(c0, core::ConnMode::kOutput, "mixer-out");
      if (!out.ok()) return fail.Set(out.status());
      Status ready = wait_for_displays();
      if (!ready.ok()) return fail.Set(ready);
      Compositor comp(k, config.image_bytes);

      Buffer composite = comp.MakeComposite();
      Timestamp publish_ts = 0;
      auto publish = [&]() noexcept {
        Status p =
            mixer_as.Put(*out, publish_ts, std::move(composite), OpDeadline());
        if (!p.ok()) fail.Set(p);
        ++publish_ts;
        composite = comp.MakeComposite();
      };
      std::barrier bar(static_cast<std::ptrdiff_t>(k), publish);

      std::vector<Thread> blenders;
      for (std::size_t j = 0; j < k; ++j) {
        blenders.emplace_back([&, j] {
          for (Timestamp ts = 0; ts < config.num_frames; ++ts) {
            if (fail.failed()) {
              bar.arrive_and_drop();
              return;
            }
            auto item = mixer_as.Get((*conns)[j], core::GetSpec::Exact(ts),
                                     OpDeadline());
            if (!item.ok()) {
              fail.Set(item.status());
              bar.arrive_and_drop();
              return;
            }
            Status b = comp.Blend(composite, j, item->payload.span());
            if (!b.ok()) {
              fail.Set(b);
              bar.arrive_and_drop();
              return;
            }
            Status c = mixer_as.Consume((*conns)[j], ts);
            if (!c.ok()) {
              fail.Set(c);
              bar.arrive_and_drop();
              return;
            }
            bar.arrive_and_wait();
          }
        });
      }
      for (auto& blender : blenders) blender.join();
      for (auto& conn : *conns) (void)mixer_as.Disconnect(conn);
      (void)mixer_as.Disconnect(*out);
    });
  }

  for (auto& thread : threads) thread.join();

  if (fail.failed()) return fail.first();
  report.min_display_fps = report.display_fps.empty() ? 0.0
                                                      : *std::min_element(
                                                            report.display_fps
                                                                .begin(),
                                                            report.display_fps
                                                                .end());
  report.frames_completed = config.num_frames;
  report.producer_slips = producer_slips.load();
  return report;
}

}  // namespace dstampede::app
