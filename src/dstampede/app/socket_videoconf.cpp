#include "dstampede/app/socket_videoconf.hpp"

#include <algorithm>
#include <atomic>

#include "dstampede/app/image.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/transport/tcp.hpp"

namespace dstampede::app {
namespace {

constexpr std::uint8_t kRoleProducer = 1;
constexpr std::uint8_t kRoleDisplay = 2;

struct Registration {
  std::uint8_t role = 0;
  std::uint32_t index = 0;
};

// The hand-rolled session setup the paper's socket version needed:
// every connection announces its role and participant index so the
// mixer can wire its own plumbing.
Status SendRegistration(transport::TcpConnection& conn, std::uint8_t role,
                        std::uint32_t index) {
  Buffer reg;
  ByteWriter writer(reg);
  writer.U8(role);
  writer.U32(index);
  return conn.SendFrame(reg);
}

Result<Registration> RecvRegistration(transport::TcpConnection& conn) {
  Buffer reg;
  DS_RETURN_IF_ERROR(conn.RecvFrame(reg, Deadline::AfterMillis(10000)));
  ByteReader reader(reg);
  Registration out;
  DS_ASSIGN_OR_RETURN(out.role, reader.U8());
  DS_ASSIGN_OR_RETURN(out.index, reader.U32());
  return out;
}

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

}  // namespace

Result<SocketVideoConfReport> SocketVideoConfApp::Run(
    const SocketVideoConfConfig& config) {
  if (config.num_clients == 0 || config.num_frames <= config.warmup_frames) {
    return InvalidArgumentError("bad socket videoconf config");
  }
  const std::size_t k = config.num_clients;
  DS_ASSIGN_OR_RETURN(auto listener, transport::TcpListener::Bind(0));
  const transport::SockAddr server_addr = listener.bound_addr();

  FailBox fail;
  SocketVideoConfReport report;
  report.display_fps.assign(k, 0.0);
  std::vector<Thread> threads;

  // --- the single-threaded socket mixer -----------------------------------
  threads.emplace_back([&] {
    std::vector<transport::TcpConnection> producers(k);
    std::vector<transport::TcpConnection> displays(k);
    std::size_t registered = 0;
    while (registered < 2 * k) {
      auto conn = listener.Accept(Deadline::AfterMillis(10000));
      if (!conn.ok()) return fail.Set(conn.status());
      auto reg = RecvRegistration(*conn);
      if (!reg.ok()) return fail.Set(reg.status());
      if (reg->index >= k) return fail.Set(InternalError("bad index"));
      if (reg->role == kRoleProducer) {
        producers[reg->index] = std::move(conn).value();
      } else if (reg->role == kRoleDisplay) {
        displays[reg->index] = std::move(conn).value();
      } else {
        return fail.Set(InternalError("bad role"));
      }
      ++registered;
    }

    Compositor comp(k, config.image_bytes);
    Buffer frame;
    for (Timestamp ts = 0; ts < config.num_frames && !fail.failed(); ++ts) {
      Buffer composite = comp.MakeComposite();
      // Obtain images from each client one after the other (§5.2).
      for (std::size_t j = 0; j < k; ++j) {
        Status s = producers[j].RecvFrame(frame, Deadline::AfterMillis(60000));
        if (!s.ok()) return fail.Set(s);
        Status b = comp.Blend(composite, j, frame);
        if (!b.ok()) return fail.Set(b);
      }
      // Send the composite to each client one after the other.
      for (std::size_t j = 0; j < k; ++j) {
        Status s = displays[j].SendFrame(composite);
        if (!s.ok()) return fail.Set(s);
      }
    }
  });

  // --- producers -------------------------------------------------------------
  for (std::size_t j = 0; j < k; ++j) {
    threads.emplace_back([&, j] {
      auto conn = transport::TcpConnection::Connect(server_addr);
      if (!conn.ok()) return fail.Set(conn.status());
      Status r = SendRegistration(*conn, kRoleProducer,
                                  static_cast<std::uint32_t>(j));
      if (!r.ok()) return fail.Set(r);
      VirtualCamera camera(static_cast<std::uint32_t>(j), config.image_bytes);
      for (Timestamp ts = 0; ts < config.num_frames && !fail.failed(); ++ts) {
        Status s = conn->SendFrame(camera.Grab(ts));
        if (!s.ok()) return fail.Set(s);
      }
    });
  }

  // --- displays ----------------------------------------------------------------
  for (std::size_t j = 0; j < k; ++j) {
    threads.emplace_back([&, j] {
      auto conn = transport::TcpConnection::Connect(server_addr);
      if (!conn.ok()) return fail.Set(conn.status());
      Status r =
          SendRegistration(*conn, kRoleDisplay, static_cast<std::uint32_t>(j));
      if (!r.ok()) return fail.Set(r);
      Compositor comp(k, config.image_bytes);
      TimePoint start = Now();
      std::uint64_t shown = 0;  // frames displayed since the warm-up
      Buffer composite;
      for (Timestamp ts = 0; ts < config.num_frames && !fail.failed(); ++ts) {
        if (ts == config.warmup_frames) start = Now();
        Status s = conn->RecvFrame(composite, Deadline::AfterMillis(60000));
        if (!s.ok()) return fail.Set(s);
        if (config.validate_frames) {
          for (std::size_t tile = 0; tile < k; ++tile) {
            Status v = comp.ValidateTile(composite, tile,
                                         static_cast<std::uint32_t>(tile), ts);
            if (!v.ok()) return fail.Set(v);
          }
        }
        if (ts >= config.warmup_frames) ++shown;
      }
      const double secs = std::chrono::duration<double>(Now() - start).count();
      report.display_fps[j] = secs > 0 ? static_cast<double>(shown) / secs : 0;
    });
  }

  for (auto& thread : threads) thread.join();
  if (fail.failed()) return fail.first();
  report.min_display_fps =
      *std::min_element(report.display_fps.begin(), report.display_fps.end());
  report.frames_completed = config.num_frames;
  return report;
}

}  // namespace dstampede::app
