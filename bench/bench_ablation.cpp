// Ablation benches for the design choices DESIGN.md calls out:
//
//   A. channel back-pressure depth (ChannelAttr::capacity_items) — the
//      bound that keeps producers from flooding a pipeline; too small
//      serializes the stages, unbounded hides overload;
//   B. dispatcher pool width (AddressSpace::Options::dispatcher_threads)
//      vs parked remote getters — historically a blocking remote get
//      occupied a worker each, so width bounded the number of
//      simultaneously parked waiters (the liveness cliff). Blocking ops
//      now suspend into continuation waiters, so the sweep drives the
//      waiter count far past the pool width and expects every cell to
//      flow;
//   C. the CLF shared-memory fast path vs the UDP path, measured at the
//      application level (the micro-level comparison lives in
//      bench_micro_ops);
//   D. failure-detection bound — how long after a network partition a
//      blocked remote call fails with kUnavailable, as a function of
//      peer_timeout (the knob trades detection latency against false
//      positives on a loaded machine).
//
// Each table reports sustained relay throughput: producer in AS0 puts
// S-byte items into a channel owned by AS1, a consumer thread gets and
// consumes them in timestamp order.
//
// Besides the printed tables, every row is appended to
// BENCH_ablation.json so sweeps can be diffed across revisions.
#include <thread>

#include "bench_util.hpp"
#include "dstampede/core/runtime.hpp"

using namespace dstampede;

namespace {

struct RelayResult {
  double items_per_sec = 0;
  double mbytes_per_sec = 0;
};

// One machine-readable result row, mirrored into BENCH_ablation.json.
// gc_lag_p50_us and retransmits come from the runtime's metrics
// registry / CLF stats, sampled just before the runtime shuts down.
struct JsonRow {
  std::string ablation;
  std::string parameter;
  std::string outcome;
  double elapsed_ms = 0;
  double gc_lag_p50_us = 0;
  std::uint64_t retransmits = 0;
};

std::vector<JsonRow> g_rows;

void Record(std::string ablation, std::string parameter, std::string outcome,
            double elapsed_ms, double gc_lag_p50_us = 0,
            std::uint64_t retransmits = 0) {
  g_rows.push_back(JsonRow{std::move(ablation), std::move(parameter),
                           std::move(outcome), elapsed_ms, gc_lag_p50_us,
                           retransmits});
}

// Median put-to-reclaim lag of items on the container owner (AS1 in
// every sweep here).
double GcLagP50(core::Runtime& rt) {
  return static_cast<double>(rt.as(1)
                                 .metrics_registry()
                                 .GetHistogram("stm.reclaim_lag_us")
                                 .Percentile(50));
}

std::uint64_t Retransmits(core::Runtime& rt) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rt.size(); ++i) {
    total +=
        rt.as(i).metrics_registry().GetCounter("clf.retransmissions").Value();
  }
  return total;
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const JsonRow& row = g_rows[i];
    std::fprintf(f,
                 "  {\"ablation\": \"%s\", \"parameter\": \"%s\", "
                 "\"outcome\": \"%s\", \"elapsed_ms\": %.1f, "
                 "\"gc_lag_p50_us\": %.0f, \"retransmits\": %llu}%s\n",
                 row.ablation.c_str(), row.parameter.c_str(),
                 row.outcome.c_str(), row.elapsed_ms, row.gc_lag_p50_us,
                 static_cast<unsigned long long>(row.retransmits),
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

// Runs one producer->channel->consumer relay and reports throughput.
RelayResult RunRelay(core::Runtime& rt, std::size_t payload_bytes,
                     Timestamp items, std::size_t capacity) {
  core::ChannelAttr attr;
  attr.capacity_items = capacity;
  auto ch = rt.as(1).CreateChannel(attr);
  if (!ch.ok()) bench::Die(ch.status(), "channel");
  auto out = rt.as(0).Connect(*ch, core::ConnMode::kOutput);
  auto in = rt.as(0).Connect(*ch, core::ConnMode::kInput);
  if (!out.ok() || !in.ok()) bench::Die(out.status(), "connect");

  Buffer payload(payload_bytes);
  FillPattern(payload, 1);
  const TimePoint start = Now();
  std::thread producer([&] {
    for (Timestamp ts = 0; ts < items; ++ts) {
      DS_BENCH_CHECK(rt.as(0).Put(*out, ts, payload), "put");
    }
  });
  for (Timestamp ts = 0; ts < items; ++ts) {
    auto item = rt.as(0).Get(*in, core::GetSpec::Exact(ts),
                             Deadline::AfterMillis(60000));
    if (!item.ok()) bench::Die(item.status(), "get");
    DS_BENCH_CHECK(rt.as(0).Consume(*in, ts), "consume");
  }
  producer.join();
  const double secs =
      static_cast<double>(ToMicros(Now() - start)) / 1e6;
  RelayResult result;
  result.items_per_sec = static_cast<double>(items) / secs;
  result.mbytes_per_sec = result.items_per_sec *
                          static_cast<double>(payload_bytes) / (1024.0 * 1024.0);
  return result;
}

std::unique_ptr<core::Runtime> MakeRuntime(std::size_t dispatchers,
                                           bool shm_fastpath) {
  core::Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.dispatcher_threads = dispatchers;
  opts.shm_fastpath = shm_fastpath;
  auto rt = core::Runtime::Create(opts);
  if (!rt.ok()) bench::Die(rt.status(), "runtime");
  return std::move(rt).value();
}

}  // namespace

int main() {
  const Timestamp items = bench::EnvLong("DS_BENCH_FRAMES", 60) * 3;

  std::printf("# Ablation A: channel back-pressure depth (64 KB items)\n");
  std::printf("%10s %14s %10s\n", "capacity", "items_per_sec", "MB_per_sec");
  for (std::size_t capacity : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                               std::size_t{16}, std::size_t{64},
                               std::size_t{0} /* unbounded */}) {
    auto rt = MakeRuntime(8, /*shm_fastpath=*/false);
    const TimePoint start = Now();
    RelayResult r = RunRelay(*rt, 64 * 1024, items, capacity);
    const double ms = static_cast<double>(ToMicros(Now() - start)) / 1e3;
    const std::string label =
        capacity == 0 ? "unbounded" : ("capacity=" + std::to_string(capacity));
    if (capacity == 0) {
      std::printf("%10s %14.0f %10.1f\n", "unbounded", r.items_per_sec,
                  r.mbytes_per_sec);
    } else {
      std::printf("%10zu %14.0f %10.1f\n", capacity, r.items_per_sec,
                  r.mbytes_per_sec);
    }
    char outcome[64];
    std::snprintf(outcome, sizeof(outcome), "%.0f items/s", r.items_per_sec);
    Record("A:backpressure_depth", label, outcome, ms, GcLagP50(*rt),
           Retransmits(*rt));
    rt->Shutdown();
  }

  // Historically every blocking remote get parked one dispatcher worker
  // at the owner until its item arrived, so parked waiters past the pool
  // width deadlocked the pipeline until the get deadlines expired (the
  // liveness cliff). Blocking ops now suspend into continuation waiters
  // and free the worker, so the sweep drives the waiter count far past
  // the width — including 256 waiters against a width-2 pool — and every
  // cell must flow. While the waiters are parked a fresh Attach is timed
  // as a starvation probe: it must complete promptly even though
  // hundreds of gets are outstanding.
  std::printf("\n# Ablation B: parked remote getters vs dispatcher width "
              "(liveness cliff, now removed)\n");
  std::printf("%10s %10s %12s %12s %12s\n", "width", "waiters", "outcome",
              "elapsed_ms", "attach_ms");
  for (std::size_t width : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (int waiters_n : {4, 64, 256}) {
      auto rt = MakeRuntime(width, /*shm_fastpath=*/false);
      // All getters share one channel, each waiting on its own
      // timestamp, so the sweep scales without hundreds of containers.
      auto ch = rt->as(1).CreateChannel();
      if (!ch.ok()) bench::Die(ch.status(), "channel");
      std::atomic<int> satisfied{0};
      std::vector<std::thread> waiters;
      waiters.reserve(static_cast<std::size_t>(waiters_n));
      const TimePoint start = Now();
      for (int p = 0; p < waiters_n; ++p) {
        waiters.emplace_back([&, p] {
          auto in = rt->as(0).Connect(*ch, core::ConnMode::kInput);
          if (!in.ok()) bench::Die(in.status(), "connect");
          auto item = rt->as(0).Get(*in, core::GetSpec::Exact(p),
                                    Deadline::AfterMillis(30000));
          if (item.ok()) {
            DS_BENCH_CHECK(rt->as(0).Consume(*in, p), "consume");
            satisfied.fetch_add(1);
          }
        });
      }
      // Wait until every get is parked at the owner (not just sent).
      auto owned = rt->as(1).FindChannel(ch->bits());
      while (owned->parked_get_waiters() <
             static_cast<std::size_t>(waiters_n)) {
        SleepFor(Millis(5));
      }
      // Starvation probe: a control-plane op through the same pool.
      const TimePoint attach_start = Now();
      auto probe = rt->as(0).Connect(*ch, core::ConnMode::kInputOutput);
      if (!probe.ok()) bench::Die(probe.status(), "probe attach");
      const double attach_ms =
          static_cast<double>(ToMicros(Now() - attach_start)) / 1e3;
      auto out = rt->as(0).Connect(*ch, core::ConnMode::kOutput);
      if (!out.ok()) bench::Die(out.status(), "connect out");
      for (int p = 0; p < waiters_n; ++p) {
        DS_BENCH_CHECK(
            rt->as(0).Put(*out, p, Buffer(1024), Deadline::AfterMillis(30000)),
            "put");
      }
      for (auto& t : waiters) t.join();
      const double ms = static_cast<double>(ToMicros(Now() - start)) / 1e3;
      const bool flows = satisfied.load() == waiters_n;
      std::printf("%10zu %10d %12s %12.0f %12.1f\n", width, waiters_n,
                  flows ? "flows" : "STALLS", ms, attach_ms);
      char param[64];
      std::snprintf(param, sizeof(param), "width=%zu waiters=%d", width,
                    waiters_n);
      Record("B:dispatcher_width", param, flows ? "flows" : "STALLS", ms,
             GcLagP50(*rt), Retransmits(*rt));
      rt->Shutdown();
    }
  }

  std::printf("\n# Ablation C: CLF transport path, 256 KB items "
              "(fragmented over UDP vs shared-memory fast path)\n");
  std::printf("%10s %14s %10s\n", "path", "items_per_sec", "MB_per_sec");
  for (bool shm : {false, true}) {
    auto rt = MakeRuntime(8, shm);
    const TimePoint start = Now();
    RelayResult r = RunRelay(*rt, 256 * 1024, items / 2, /*capacity=*/16);
    const double ms = static_cast<double>(ToMicros(Now() - start)) / 1e3;
    std::printf("%10s %14.0f %10.1f\n", shm ? "shm" : "udp", r.items_per_sec,
                r.mbytes_per_sec);
    char outcome[64];
    std::snprintf(outcome, sizeof(outcome), "%.0f items/s", r.items_per_sec);
    Record("C:clf_path", shm ? "shm" : "udp", outcome, ms, GcLagP50(*rt),
           Retransmits(*rt));
    rt->Shutdown();
  }

  // A consumer blocks in a remote Get while the link to the owner is
  // cut in both directions; we time partition -> kUnavailable. The
  // detection bound should track peer_timeout, not the call deadline.
  std::printf("\n# Ablation D: failure-detection bound vs peer_timeout "
              "(partition -> kUnavailable)\n");
  std::printf("%15s %12s %14s\n", "peer_timeout_ms", "status", "detect_ms");
  for (long timeout_ms : {50L, 100L, 250L, 500L, 1000L}) {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    opts.clf_max_retransmits = 8;
    opts.peer_keepalive_interval = Millis(timeout_ms / 4 + 1);
    opts.peer_timeout = Millis(timeout_ms);
    auto rt = core::Runtime::Create(opts);
    if (!rt.ok()) bench::Die(rt.status(), "runtime");
    auto ch = (*rt)->as(1).CreateChannel();
    if (!ch.ok()) bench::Die(ch.status(), "channel");
    auto in = (*rt)->as(0).Connect(*ch, core::ConnMode::kInput);
    if (!in.ok()) bench::Die(in.status(), "connect");

    StatusCode observed = StatusCode::kOk;
    double detect_ms = 0;
    TimePoint cut{};
    std::thread blocked([&] {
      auto item = (*rt)->as(0).Get(*in, core::GetSpec::Exact(0),
                                   Deadline::AfterMillis(60000));
      detect_ms = static_cast<double>(ToMicros(Now() - cut)) / 1e3;
      observed = item.status().code();
    });
    SleepFor(Millis(100));  // let the request park
    cut = Now();
    (*rt)->as(0).fault_injector().Partition((*rt)->as(1).clf_addr());
    (*rt)->as(1).fault_injector().Partition((*rt)->as(0).clf_addr());
    blocked.join();
    std::printf("%15ld %12s %14.0f\n", timeout_ms,
                observed == StatusCode::kUnavailable ? "unavailable"
                                                     : "UNEXPECTED",
                detect_ms);
    char param[64];
    std::snprintf(param, sizeof(param), "peer_timeout_ms=%ld", timeout_ms);
    Record("D:failure_detection", param,
           observed == StatusCode::kUnavailable ? "unavailable" : "UNEXPECTED",
           detect_ms, GcLagP50(**rt), Retransmits(**rt));
    (*rt)->Shutdown();
  }

  WriteJson("BENCH_ablation.json");
  return 0;
}
