// mini_cluster: a three-address-space cluster with a TCP listener,
// used by the CI observability smoke test (scripts/metrics_smoke.sh).
//
// Starts the cluster, creates one channel and one queue, runs a short
// put/get/consume exchange so every layer's instruments move off zero,
// prints `DSCTL_PORT=<listener port>` on stdout, then stays up for the
// requested number of seconds (default 30) so dsctl can be run against
// it.
//
// Usage: mini_cluster [linger_seconds]
#include <cstdio>
#include <cstdlib>

#include "dstampede/client/listener.hpp"
#include "dstampede/core/runtime.hpp"

using namespace dstampede;

namespace {
int Die(const Status& status, const char* what) {
  std::fprintf(stderr, "mini_cluster: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}
}  // namespace

int main(int argc, char** argv) {
  const long linger = argc > 1 ? std::atol(argv[1]) : 30;

  core::Runtime::Options opts;
  opts.num_address_spaces = 3;
  auto runtime = core::Runtime::Create(opts);
  if (!runtime.ok()) return Die(runtime.status(), "runtime");
  auto listener = client::Listener::Start(**runtime);
  if (!listener.ok()) return Die(listener.status(), "listener");

  // Cross-space traffic: a channel on AS1 and a queue on AS2, driven
  // from AS0, so the smoke check sees non-trivial counters, a
  // timestamp frontier and GC reclaims on more than one space.
  core::ChannelAttr ch_attr;
  ch_attr.debug_name = "smoke-frames";
  auto ch = (*runtime)->as(1).CreateChannel(ch_attr);
  if (!ch.ok()) return Die(ch.status(), "channel");
  core::QueueAttr q_attr;
  q_attr.debug_name = "smoke-work";
  auto q = (*runtime)->as(2).CreateQueue(q_attr);
  if (!q.ok()) return Die(q.status(), "queue");

  auto out = (*runtime)->as(0).Connect(*ch, core::ConnMode::kOutput);
  auto in = (*runtime)->as(0).Connect(*ch, core::ConnMode::kInput);
  auto q_out = (*runtime)->as(0).Connect(*q, core::ConnMode::kOutput);
  auto q_in = (*runtime)->as(0).Connect(*q, core::ConnMode::kInput);
  if (!out.ok() || !in.ok() || !q_out.ok() || !q_in.ok()) {
    return Die(out.ok() ? q_out.status() : out.status(), "connect");
  }
  for (Timestamp ts = 0; ts < 8; ++ts) {
    Status s = (*runtime)->as(0).Put(*out, ts, Buffer(512));
    if (!s.ok()) return Die(s, "channel put");
    s = (*runtime)->as(0).Put(*q_out, ts, Buffer(256));
    if (!s.ok()) return Die(s, "queue put");
  }
  // Consume the first half of each so reclaim counters move while the
  // frontier and occupancy stay visible.
  for (Timestamp ts = 0; ts < 4; ++ts) {
    auto item = (*runtime)->as(0).Get(*in, core::GetSpec::Exact(ts),
                                      Deadline::AfterMillis(10000));
    if (!item.ok()) return Die(item.status(), "channel get");
    Status s = (*runtime)->as(0).Consume(*in, ts);
    if (!s.ok()) return Die(s, "channel consume");
    auto work = (*runtime)->as(0).Get(*q_in, Deadline::AfterMillis(10000));
    if (!work.ok()) return Die(work.status(), "queue get");
    s = (*runtime)->as(0).Consume(*q_in, work->timestamp);
    if (!s.ok()) return Die(s, "queue consume");
  }
  std::printf("DSCTL_PORT=%u\n", (*listener)->addr().port);
  std::fflush(stdout);

  dstampede::SleepFor(std::chrono::seconds(linger));

  (*listener)->Shutdown();
  (*runtime)->Shutdown();
  return 0;
}
