// The D-Stampede benchmark: one run of one workload, in a fresh process
// confined to one CPU. WORKLOADS.md names the workloads and metrics.
//
//   dsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --cpu <id>
//
// Prints a readable report, then one JSON line as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 the per-layer ones, from
// an untraced window (counts per item) plus a traced phase whose calls
// are joined with the runtime's spans by trace id, and a traced side
// probe of the other shape for the layers the workload's calls do not
// pass through. Exits non-zero only when the arguments are bad or set-up
// fails; failed operations are counted instead.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/common/json.hpp"
#include "dstampede/common/trace.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/marshal/xdr.hpp"
#include "dstampede/transport/tcp.hpp"
#include "dstampede/transport/udp.hpp"
#include "harness.hpp"

namespace dsbench {
namespace {

using namespace dstampede;

// Set-up runs this many times per process; setup_s is the median. The
// first round also pays the process's cold start.
constexpr int kSetupRounds = 25;
const Duration kWarmup = Millis(500);
// The end-to-end figures are medians over slices of the window this
// long (see SlicedWindow).
const Duration kSlice = Millis(500);
// Every STM call gets a finite deadline, so a lost item is counted as
// a failure instead of hanging the run.
const Duration kOpDeadline = Millis(2000);
// The traced phase: batches small enough that no span of a batch can be
// evicted from a 2048-span sink before the batch is read (device_edge
// records ~8 spans per item in one space).
constexpr int kTraceBatches = 8;
constexpr std::size_t kTraceBatchItems = 128;
constexpr double kWaterfallTolerancePct = 10.0;
constexpr int kProbeRounds = 1000;
// Largest UDP datagram the raw floor sends (the CLF fragment size).
constexpr std::size_t kMaxDatagram = 60000;

Deadline OpDeadline() { return Deadline::After(kOpDeadline); }

double Seconds(Duration d) { return std::chrono::duration<double>(d).count(); }

std::optional<double> Median(const std::vector<double>& v) {
  if (v.empty()) return std::nullopt;
  return Percentile(v, 50);
}

// --- operation accounting -------------------------------------------------

// Counts the Status of every STM call, by code; payload mismatches count
// as failures too. Shared by the load threads.
class Tally {
 public:
  bool Count(const Status& status) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    by_code_[static_cast<std::size_t>(status.code())].fetch_add(
        1, std::memory_order_relaxed);
    if (status.ok()) return true;
    failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  void Mismatch() {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    failed_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

  void Print() const {
    std::printf("stm calls: %" PRIu64 " attempted, %" PRIu64
                " failed (payload mismatches %" PRIu64 ")\n",
                attempted(), failed(), mismatches_.load());
    for (std::size_t code = 0; code < by_code_.size(); ++code) {
      const std::uint64_t n = by_code_[code].load();
      if (n == 0) continue;
      std::printf("  status %-20s %" PRIu64 "\n",
                  std::string(StatusCodeName(static_cast<StatusCode>(code)))
                      .c_str(),
                  n);
    }
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> mismatches_{0};
  // One slot per value a StatusCode can hold.
  std::array<std::atomic<std::uint64_t>, 256> by_code_{};
};

// --- process and registry probes ------------------------------------------

struct Usage {
  double cpu_us = 0;
  double ctx_switches = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return Usage{us(ru.ru_utime) + us(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

// A numeric field of /proc/self/status ("VmHWM", "Threads"); -1 when
// absent.
double ProcStatus(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return -1;
}

// Every instrument of a space's registry by name: counters, gauges and
// providers as values, histogram summaries as "<name>.<stat>". Read
// through the JSON export so an instrument that no longer exists is
// absent rather than created.
using Flat = std::map<std::string, double>;

Flat ReadRegistry(core::AddressSpace& as) {
  std::string text;
  as.metrics_registry().WriteJson(text);
  Flat out;
  auto doc = json::Parse(text);
  if (!doc.ok()) return out;
  for (const char* section : {"counters", "gauges", "providers"}) {
    if (const json::Value* values = doc->Find(section)) {
      for (const auto& [name, v] : values->AsObject()) out[name] = v.AsDouble();
    }
  }
  if (const json::Value* hists = doc->Find("histograms")) {
    for (const auto& [name, h] : hists->AsObject()) {
      for (const auto& [stat, v] : h.AsObject()) {
        out[name + "." + stat] = v.AsDouble();
      }
    }
  }
  return out;
}

// after - before of `name` summed over spaces; absent when no space has
// the instrument.
std::optional<double> SumDelta(const std::vector<Flat>& before,
                               const std::vector<Flat>& after,
                               const std::string& name) {
  std::optional<double> sum;
  for (std::size_t i = 0; i < after.size(); ++i) {
    auto a = after[i].find(name);
    if (a == after[i].end()) continue;
    auto b = before[i].find(name);
    sum = sum.value_or(0) + a->second - (b == before[i].end() ? 0 : b->second);
  }
  return sum;
}

std::optional<double> Lookup(const Flat& flat, const std::string& name) {
  auto it = flat.find(name);
  if (it == flat.end()) return std::nullopt;
  return it->second;
}

// Mean of the observations a registry histogram took between two reads,
// from its sum and count. Its exported percentiles cover everything since
// the space started and are rounded to whole microseconds.
std::optional<double> WindowMean(const Flat& before, const Flat& after,
                                 const std::string& histogram) {
  const auto sum = SumDelta({before}, {after}, histogram + ".sum");
  const auto count = SumDelta({before}, {after}, histogram + ".count");
  if (!sum || !count || *count <= 0) return std::nullopt;
  return *sum / *count;
}

// --- timed calls ----------------------------------------------------------

// Calls of one batch of the traced phase, by operation (logged only when
// the batch is traced), plus the batch's item latencies.
struct TracedCalls {
  std::vector<TimedCall> put, get, consume;
  std::vector<double> latency_us;
};

// Runs `fn` under a fresh sampled trace root when `log` is set (the
// runtime propagates it to the owner), and records the call.
template <typename Fn>
auto ClusterCall(std::vector<TimedCall>* log, Fn&& fn) {
  if (log == nullptr) return fn();
  const trace::TraceContext ctx{trace::NewId(), trace::NewId(),
                                trace::TraceContext::kSampled};
  trace::ScopedContext scope(ctx);
  const TimePoint start = Now();
  auto result = fn();
  log->push_back(TimedCall{ctx.trace_id, start, Now()});
  return result;
}

// A client session with trace_calls set stamps each call with its own
// root; the id is read back after the call.
template <typename Fn>
auto ClientCall(const client::CClient& session, std::vector<TimedCall>* log,
                Fn&& fn) {
  const TimePoint start = Now();
  auto result = fn();
  if (log != nullptr) {
    log->push_back(TimedCall{session.last_trace_id(), start, Now()});
  }
  return result;
}

// --- workloads ------------------------------------------------------------

class Bench {
 public:
  Bench(const Inputs& inputs, Tally& tally) : inputs_(inputs), tally_(tally) {}
  virtual ~Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Runtime::Create through listener, joins, containers and connections.
  virtual Status Setup() = 0;
  virtual void Teardown() = 0;
  // Closed loop until `window` ends; adds the items finished in it.
  virtual void Run(SlicedWindow& window) = 0;
  // `items` items; with `traced` each call runs traced and is logged.
  virtual void RunBatch(std::size_t items, bool traced,
                        TracedCalls& calls) = 0;
  virtual std::vector<core::AddressSpace*> spaces() = 0;
  // The space owning the measured channel.
  virtual core::AddressSpace& owner() = 0;
  // Session-resilience retries of the workload's end devices.
  virtual std::uint64_t client_retries() const { return 0; }

 protected:
  Buffer Payload(std::uint64_t item) const {
    auto bytes = inputs_.payload(item);
    return Buffer(bytes.begin(), bytes.end());
  }
  // Counts the get and checks the delivered bytes against the input.
  bool CheckDelivered(std::uint64_t item, const Result<core::ItemView>& got) {
    if (!tally_.Count(got.status())) return false;
    auto want = inputs_.payload(item);
    const core::ItemView& view = *got;
    if (view.timestamp == static_cast<Timestamp>(item + 1) &&
        view.payload.size() == want.size() &&
        std::memcmp(view.payload.data(), want.data(), want.size()) == 0) {
      return true;
    }
    tally_.Mismatch();
    return false;
  }

  const Inputs& inputs_;
  Tally& tally_;
  std::uint64_t next_item_ = 0;
};

// Single-threaded put -> get -> consume per item; the subclass supplies
// one item.
class SerialBench : public Bench {
 public:
  using Bench::Bench;

  void Run(SlicedWindow& window) override {
    for (TimePoint now = Now(); now < window.end();) {
      const std::optional<double> us = Item(nullptr);
      now = Now();
      if (us) window.Add(now, *us);
    }
  }

  void RunBatch(std::size_t items, bool traced, TracedCalls& calls) override {
    for (std::size_t i = 0; i < items; ++i) {
      if (auto us = Item(traced ? &calls : nullptr)) {
        calls.latency_us.push_back(*us);
      }
    }
  }

 protected:
  // One item, its calls logged when `calls` is set; its put->get latency
  // when put, get, payload check and consume all passed.
  virtual std::optional<double> Item(TracedCalls* calls) = 0;
};

core::Runtime::Options ClusterOptions(std::size_t spaces) {
  core::Runtime::Options options;
  options.num_address_spaces = spaces;
  // The spaces stand in for separate cluster nodes: all traffic crosses
  // loopback UDP.
  options.shm_fastpath = false;
  return options;
}

// E1 at 1 KB: AS0 puts into a channel owned by AS1, then the same
// thread gets (exact timestamp) and consumes on AS1; no overlap.
class ClusterSmall : public SerialBench {
 public:
  using SerialBench::SerialBench;

  Status Setup() override {
    DS_ASSIGN_OR_RETURN(runtime_, core::Runtime::Create(ClusterOptions(2)));
    DS_ASSIGN_OR_RETURN(auto channel, runtime_->as(1).CreateChannel());
    DS_ASSIGN_OR_RETURN(out_,
                        runtime_->as(0).Connect(channel, core::ConnMode::kOutput));
    DS_ASSIGN_OR_RETURN(in_,
                        runtime_->as(1).Connect(channel, core::ConnMode::kInput));
    return OkStatus();
  }
  void Teardown() override { runtime_.reset(); }
  std::vector<core::AddressSpace*> spaces() override {
    return {&runtime_->as(0), &runtime_->as(1)};
  }
  core::AddressSpace& owner() override { return runtime_->as(1); }

 protected:
  std::optional<double> Item(TracedCalls* calls) override {
    const std::uint64_t item = next_item_++;
    const auto ts = static_cast<Timestamp>(item + 1);
    core::AddressSpace& producer = runtime_->as(0);
    core::AddressSpace& consumer = runtime_->as(1);
    Buffer payload = Payload(item);
    const TimePoint start = Now();
    const Status put = ClusterCall(calls ? &calls->put : nullptr, [&] {
      return producer.Put(out_, ts, std::move(payload), OpDeadline());
    });
    if (!tally_.Count(put)) return std::nullopt;
    const auto got = ClusterCall(calls ? &calls->get : nullptr, [&] {
      return consumer.Get(in_, core::GetSpec::Exact(ts), OpDeadline());
    });
    const TimePoint delivered = Now();
    if (!CheckDelivered(item, got)) return std::nullopt;
    const Status consumed = ClusterCall(calls ? &calls->consume : nullptr,
                                        [&] { return consumer.Consume(in_, ts); });
    if (!tally_.Count(consumed)) return std::nullopt;
    return Micros(delivered - start);
  }

 private:
  std::unique_ptr<core::Runtime> runtime_;
  core::Connection out_;
  core::Connection in_;
};

// Frame relay across three spaces: a producer thread on AS0 puts Fig
// 15-sized frames into a channel owned by AS1; a consumer thread on AS2
// gets each frame remotely and consumes it. The threads relay one frame
// at a time: the producer puts a frame once the previous one was
// consumed, and the consumer's get is usually parked on the owner by
// then.
//
// Why one at a time: both sides run at nearly the same speed, and each
// side's parked call is completed on the other side's path. So a
// free-running relay through a capacity-16 channel drifts between full
// (puts park for capacity; latency ~16 frame times) and empty (latency
// ~1 frame time). Median latency then swung 4x between runs of the same
// code.
class ClusterBulk : public Bench {
 public:
  using Bench::Bench;

  Status Setup() override {
    DS_ASSIGN_OR_RETURN(runtime_, core::Runtime::Create(ClusterOptions(3)));
    DS_ASSIGN_OR_RETURN(auto channel, runtime_->as(1).CreateChannel());
    DS_ASSIGN_OR_RETURN(out_,
                        runtime_->as(0).Connect(channel, core::ConnMode::kOutput));
    DS_ASSIGN_OR_RETURN(in_,
                        runtime_->as(2).Connect(channel, core::ConnMode::kInput));
    return OkStatus();
  }
  void Teardown() override { runtime_.reset(); }
  std::vector<core::AddressSpace*> spaces() override {
    return {&runtime_->as(0), &runtime_->as(1), &runtime_->as(2)};
  }
  core::AddressSpace& owner() override { return runtime_->as(1); }

  void Run(SlicedWindow& window) override {
    Relay([&](std::uint64_t) { return Now() < window.end(); }, nullptr,
          [&](double us) { window.Add(Now(), us); });
  }

  void RunBatch(std::size_t items, bool traced, TracedCalls& calls) override {
    const std::uint64_t end = next_item_ + items;
    Relay([&](std::uint64_t item) { return item + 1 < end; },
          traced ? &calls : nullptr,
          [&](double us) { calls.latency_us.push_back(us); });
  }

 private:
  // Relays frames from next_item_ on; `delivered` gets each checked
  // frame's put->get latency. The producer puts until more(item) is
  // false, and publishes the index of that last frame before putting it,
  // so the consumer never waits for a frame that will not come.
  template <typename More, typename Delivered>
  void Relay(More more, TracedCalls* calls, Delivered delivered) {
    const std::uint64_t first = next_item_;
    std::atomic<std::uint64_t> last{UINT64_MAX};
    std::binary_semaphore producer_turn(1);
    std::thread producer([&] {
      for (std::uint64_t item = first;; ++item) {
        producer_turn.acquire();
        const bool final = !more(item);
        if (final) last.store(item);
        Produce(item, calls ? &calls->put : nullptr);
        if (final) break;
      }
    });
    for (std::uint64_t item = first;; ++item) {
      if (auto us = ConsumeItem(item, calls ? &calls->get : nullptr,
                                calls ? &calls->consume : nullptr)) {
        delivered(*us);
      }
      producer_turn.release();
      if (item >= last.load()) break;
    }
    producer.join();
    next_item_ = last.load() + 1;
  }

  void Produce(std::uint64_t item, std::vector<TimedCall>* log) {
    Buffer payload = Payload(item);
    put_start_.store(Now().time_since_epoch().count());
    tally_.Count(ClusterCall(log, [&] {
      return runtime_->as(0).Put(out_, static_cast<Timestamp>(item + 1),
                                 std::move(payload), OpDeadline());
    }));
  }

  // Gets, checks and consumes one frame; its put->get latency when all
  // passed.
  std::optional<double> ConsumeItem(std::uint64_t item,
                                    std::vector<TimedCall>* get_log,
                                    std::vector<TimedCall>* consume_log) {
    core::AddressSpace& consumer = runtime_->as(2);
    const auto ts = static_cast<Timestamp>(item + 1);
    const auto got = ClusterCall(get_log, [&] {
      return consumer.Get(in_, core::GetSpec::Exact(ts), OpDeadline());
    });
    const TimePoint delivered = Now();
    if (!CheckDelivered(item, got)) return std::nullopt;
    const TimePoint put_start(Duration(put_start_.load()));
    if (!tally_.Count(ClusterCall(
            consume_log, [&] { return consumer.Consume(in_, ts); }))) {
      return std::nullopt;
    }
    return Micros(delivered - put_start);
  }

  std::unique_ptr<core::Runtime> runtime_;
  core::Connection out_;
  core::Connection in_;
  // Start of the put of the one frame in flight.
  std::atomic<Duration::rep> put_start_{0};
};

// End devices through the listener: a camera and a display session,
// both hosted on AS0, which owns the channel. One thread puts from the
// camera, then gets and consumes from the display. No CLF.
class DeviceEdge : public SerialBench {
 public:
  using SerialBench::SerialBench;

  Status Setup() override {
    DS_ASSIGN_OR_RETURN(runtime_, core::Runtime::Create(ClusterOptions(1)));
    DS_ASSIGN_OR_RETURN(listener_, client::Listener::Start(*runtime_));
    return Pair(/*trace_calls=*/false, plain_);
  }

  void Teardown() override {
    for (Sessions* s : {&plain_, &traced_}) {
      if (s->camera) (void)s->camera->Leave();
      if (s->display) (void)s->display->Leave();
      *s = Sessions{};
    }
    if (listener_) listener_->Shutdown();
    listener_.reset();
    runtime_.reset();
  }
  std::vector<core::AddressSpace*> spaces() override {
    return {&runtime_->as(0)};
  }
  core::AddressSpace& owner() override { return runtime_->as(0); }

  void RunBatch(std::size_t items, bool traced, TracedCalls& calls) override {
    // The traced pair has its own channel so the untraced one keeps a
    // single input connection.
    if (traced && !traced_.camera) {
      if (Status st = Pair(/*trace_calls=*/true, traced_); !st.ok()) {
        std::fprintf(stderr, "traced session pair: %s\n",
                     st.ToString().c_str());
        return;
      }
    }
    SerialBench::RunBatch(items, traced, calls);
  }

  std::uint64_t client_retries() const override {
    std::uint64_t n = 0;
    for (const Sessions* s : {&plain_, &traced_}) {
      for (const auto* c : {s->camera.get(), s->display.get()}) {
        if (c != nullptr) n += c->reconnects() + c->replays();
      }
    }
    return n;
  }

 protected:
  std::optional<double> Item(TracedCalls* calls) override {
    Sessions& s = calls != nullptr ? traced_ : plain_;
    const std::uint64_t item = next_item_++;
    const auto ts = static_cast<Timestamp>(item + 1);
    Buffer payload = Payload(item);
    const TimePoint start = Now();
    const Status put =
        ClientCall(*s.camera, calls ? &calls->put : nullptr, [&] {
          return s.camera->Put(s.out, ts, std::move(payload), OpDeadline());
        });
    if (!tally_.Count(put)) return std::nullopt;
    const auto got =
        ClientCall(*s.display, calls ? &calls->get : nullptr, [&] {
          return s.display->Get(s.in, core::GetSpec::Exact(ts), OpDeadline());
        });
    const TimePoint delivered = Now();
    if (!CheckDelivered(item, got)) return std::nullopt;
    const Status consumed =
        ClientCall(*s.display, calls ? &calls->consume : nullptr,
                   [&] { return s.display->Consume(s.in, ts); });
    if (!tally_.Count(consumed)) return std::nullopt;
    return Micros(delivered - start);
  }

 private:
  struct Sessions {
    std::unique_ptr<client::CClient> camera;
    std::unique_ptr<client::CClient> display;
    core::Connection out;
    core::Connection in;
  };

  Result<std::unique_ptr<client::CClient>> Join(const char* name,
                                                bool trace_calls) {
    client::CClient::Options options;
    options.server = listener_->addr();
    options.name = name;
    options.preferred_as = 0;
    options.trace_calls = trace_calls;
    return client::CClient::Join(options);
  }

  Status Pair(bool trace_calls, Sessions& s) {
    DS_ASSIGN_OR_RETURN(s.camera, Join("camera", trace_calls));
    DS_ASSIGN_OR_RETURN(s.display, Join("display", trace_calls));
    DS_ASSIGN_OR_RETURN(auto channel, s.camera->CreateChannel());
    DS_ASSIGN_OR_RETURN(s.out, s.camera->Connect(channel, core::ConnMode::kOutput));
    DS_ASSIGN_OR_RETURN(s.in, s.display->Connect(channel, core::ConnMode::kInput));
    return OkStatus();
  }

  std::unique_ptr<core::Runtime> runtime_;
  std::unique_ptr<client::Listener> listener_;
  Sessions plain_;
  Sessions traced_;
};

std::unique_ptr<Bench> MakeBench(Workload workload, const Inputs& inputs,
                                 Tally& tally) {
  switch (workload) {
    case Workload::kClusterSmall:
      return std::make_unique<ClusterSmall>(inputs, tally);
    case Workload::kClusterBulk:
      return std::make_unique<ClusterBulk>(inputs, tally);
    case Workload::kDeviceEdge:
      return std::make_unique<DeviceEdge>(inputs, tally);
  }
  return nullptr;
}

// --- traced phase -----------------------------------------------------------

// The traced calls, split by their spans, plus what the registry saw of
// them.
struct Waterfall {
  std::vector<double> put_us, get_us, consume_us, latency_us;
  // Item latencies of the untraced batches run between the traced ones.
  std::vector<double> untraced_latency_us;
  std::vector<double> request_transit_us, owner_us, reply_transit_us;
  std::vector<double> get_owner_us;
  std::vector<double> edge_us, surrogate_self_us, surrogate_dispatch_us;
  std::uint64_t spans_lost = 0;
  std::uint64_t unjoined = 0;
  // Mean CLF round trip of the first space towards the owner; absent
  // when the calls do not cross CLF.
  std::optional<double> rtt_us;
  // Session-resilience retries of the end devices since set-up; absent
  // without a surrogate.
  std::optional<double> retries;
};

void AddCallTimes(const std::vector<TimedCall>& calls, std::vector<double>& out) {
  for (const TimedCall& c : calls) out.push_back(Micros(c.end - c.start));
}

// Runs the traced batches, each right after an untraced batch of the
// same size: trace.overhead_us compares the two, so a change of the
// machine's speed since the window does not read as tracing overhead.
// After each traced batch the spans of every space are read; a span of
// the batch is lost only if the sink evicted more spans during the batch
// than it held before it.
Waterfall RunTracedPhase(Bench& bench, bool client_calls) {
  Waterfall w;
  core::AddressSpace& caller = *bench.spaces().front();
  const Flat caller_before = ReadRegistry(caller);
  for (int batch = 0; batch < kTraceBatches; ++batch) {
    TracedCalls untraced;
    bench.RunBatch(kTraceBatchItems, /*traced=*/false, untraced);
    w.untraced_latency_us.insert(w.untraced_latency_us.end(),
                                 untraced.latency_us.begin(),
                                 untraced.latency_us.end());
    std::vector<std::pair<std::size_t, std::uint64_t>> before;
    for (core::AddressSpace* as : bench.spaces()) {
      before.emplace_back(as->span_sink().Snapshot().size(),
                          as->span_sink().dropped());
    }
    TracedCalls calls;
    bench.RunBatch(kTraceBatchItems, /*traced=*/true, calls);
    SpanIndex index;
    const auto spaces = bench.spaces();
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      const trace::SpanSink& sink = spaces[i]->span_sink();
      const std::uint64_t evicted = sink.dropped() - before[i].second;
      if (evicted > before[i].first) w.spans_lost += evicted - before[i].first;
      index.Add(sink.Snapshot());
    }
    AddCallTimes(calls.put, w.put_us);
    AddCallTimes(calls.get, w.get_us);
    AddCallTimes(calls.consume, w.consume_us);
    w.latency_us.insert(w.latency_us.end(), calls.latency_us.begin(),
                        calls.latency_us.end());
    for (const TimedCall& put : calls.put) {
      if (client_calls) {
        if (auto split = SplitClientCall(put, index)) {
          w.edge_us.push_back(split->edge_us);
          w.surrogate_self_us.push_back(split->surrogate_self_us);
          w.surrogate_dispatch_us.push_back(split->surrogate_dispatch_us);
          w.owner_us.push_back(split->owner_us);
        } else {
          ++w.unjoined;
        }
      } else if (auto split = SplitClusterCall(put, index)) {
        w.request_transit_us.push_back(split->request_transit_us);
        w.owner_us.push_back(split->owner_us);
        w.reply_transit_us.push_back(split->reply_transit_us);
      } else {
        ++w.unjoined;
      }
    }
    for (const TimedCall& get : calls.get) {
      if (auto split = SplitClusterCall(get, index)) {
        w.get_owner_us.push_back(split->owner_us);
      } else {
        ++w.unjoined;
      }
    }
  }
  w.rtt_us = WindowMean(
      caller_before, ReadRegistry(caller),
      "clf.rtt_us." + bench.owner().clf_addr().ToString());
  if (auto hits = Lookup(ReadRegistry(bench.owner()),
                         "surrogate.replay_cache_hits")) {
    w.retries = *hits + static_cast<double>(bench.client_retries());
  }
  return w;
}

// The side probe: the traced phase of a fresh bench of `shape`, with that
// shape's own inputs from `seed`, after a warm-up. It measures the layers
// a workload's own calls do not pass through (the CClient and surrogate
// for the cluster workloads; AddressSpace RPCs over CLF for device_edge),
// so every per-layer metric is reported on every workload. Its calls are
// tallied like the workload's. Nullopt when its set-up fails.
std::optional<Waterfall> TraceSideProbe(Workload shape, std::uint64_t seed,
                                        Tally& tally) {
  const Inputs inputs = Inputs::Make(shape, seed);
  std::unique_ptr<Bench> bench = MakeBench(shape, inputs, tally);
  if (Status st = bench->Setup(); !st.ok()) {
    std::fprintf(stderr, "side probe set-up failed: %s\n",
                 st.ToString().c_str());
    bench->Teardown();
    return std::nullopt;
  }
  SlicedWindow warmup(Now(), kWarmup, kSlice);
  bench->Run(warmup);
  Waterfall w = RunTracedPhase(*bench, shape == Workload::kDeviceEdge);
  bench->Teardown();
  return w;
}

// --- raw probes -------------------------------------------------------------

// Medians of raw loopback ping-pongs at the workload's sizes (UDP capped
// at one datagram): the paper's baselines, and a sentinel for a machine
// that drifted between two sets of runs. Nullopt when a socket fails.
struct Floors {
  std::optional<double> udp_half_rtt_us;
  std::optional<double> tcp_half_rtt_us;
};

Floors MeasureFloors(const Inputs& inputs) {
  Floors floors;
  const auto sized = [&](int round, std::size_t cap) {
    auto bytes = inputs.payload(round);
    return bytes.first(std::min(bytes.size(), cap));
  };

  auto a = transport::UdpSocket::Bind(0);
  auto b = transport::UdpSocket::Bind(0);
  if (a.ok() && b.ok()) {
    std::vector<double> samples;
    Buffer in;
    transport::SockAddr from;
    for (int round = 0; round < kProbeRounds; ++round) {
      auto leg = sized(round, kMaxDatagram);
      const TimePoint start = Now();
      const bool ok = a->SendTo(b->bound_addr(), leg).ok() &&
                      b->RecvFrom(in, from, Deadline::AfterMillis(200)).ok() &&
                      b->SendTo(a->bound_addr(), leg).ok() &&
                      a->RecvFrom(in, from, Deadline::AfterMillis(200)).ok();
      if (ok) samples.push_back(Micros(Now() - start) / 2);
    }
    if (!samples.empty()) floors.udp_half_rtt_us = Percentile(samples, 50);
  }

  auto listener = transport::TcpListener::Bind(0);
  if (!listener.ok()) return floors;
  auto client = transport::TcpConnection::Connect(listener->bound_addr());
  if (!client.ok()) return floors;
  auto server = listener->Accept(Deadline::AfterMillis(5000));
  if (!server.ok()) return floors;
  std::vector<double> samples;
  Buffer sink;
  for (int round = 0; round < kProbeRounds; ++round) {
    // One leg at most one CLF fragment, so the send fits the loopback
    // socket buffer before this same thread reads it.
    auto leg = sized(round, kMaxDatagram);
    sink.resize(leg.size());
    const TimePoint start = Now();
    const bool ok =
        client->SendAll(leg).ok() &&
        server->RecvExact(sink, Deadline::AfterMillis(2000)).ok() &&
        server->SendAll(leg).ok() &&
        client->RecvExact(sink, Deadline::AfterMillis(2000)).ok();
    if (ok) samples.push_back(Micros(Now() - start) / 2);
  }
  if (!samples.empty()) floors.tcp_half_rtt_us = Percentile(samples, 50);
  return floors;
}

// Median XDR encode + decode, at the workload's sizes, of a frame laid
// out as a put request is today: op, request id, container, queue flag,
// mode, slot, timestamp, deadline, payload. Only the public encoder and
// decoder calls are used, so a change to the runtime's request types
// cannot stop the benchmark from building.
std::optional<double> MeasureMarshal(const Inputs& inputs) {
  std::vector<double> samples;
  for (int round = 0; round < kProbeRounds; ++round) {
    const auto payload = inputs.payload(round);
    const TimePoint start = Now();
    marshal::XdrEncoder enc(payload.size() + 64);
    enc.PutU32(5);
    enc.PutU64(round + 1);
    enc.PutU64(0x0001000200030004ull);
    enc.PutBool(false);
    enc.PutU32(1);
    enc.PutU32(7);
    enc.PutI64(round + 1);
    enc.PutI64(2000);
    enc.PutOpaque(payload);
    const Buffer frame = enc.Take();
    marshal::XdrDecoder dec(frame);
    bool ok = dec.GetU32().ok() && dec.GetU64().ok() && dec.GetU64().ok() &&
              dec.GetBool().ok() && dec.GetU32().ok() && dec.GetU32().ok() &&
              dec.GetI64().ok() && dec.GetI64().ok();
    if (ok) {
      const Result<Buffer> body = dec.GetOpaque();
      ok = body.ok() && body->size() == payload.size() && dec.AtEnd();
    }
    const double us = Micros(Now() - start);
    if (ok) samples.push_back(us);
  }
  return Median(samples);
}

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, std::optional<double> value,
           const char* unit) {
    if (!value || !std::isfinite(*value)) {
      std::printf("  %-34s absent (its span or instrument is gone, or the "
                  "side probe failed)\n",
                  name.c_str());
      return;
    }
    metrics_.push_back(Metric{name, *value, unit});
    std::printf("  %-34s %14.4f %s\n", name.c_str(), *value, unit);
  }

  void PrintJson(bool correct, std::uint64_t attempted,
                 std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

std::optional<double> PerItem(std::optional<double> count, std::uint64_t items) {
  if (!count || items == 0) return std::nullopt;
  return *count / static_cast<double>(items);
}

// --- main -------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kClusterSmall;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int cpu = -1;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) return std::nullopt;
      args.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--cpu") {
      args.cpu = std::atoi(value.c_str());
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || args.seconds <= 0 || args.cpu < 0 || argc % 2 == 0) {
    return std::nullopt;
  }
  return args;
}

// Fixes glibc malloc's heap trimming and mmap threshold, which it
// otherwise adapts as the program runs. With the defaults a run settles,
// by chance, into handing large buffers back to the kernel and faulting
// them in again (~20k page faults/s on device_edge) or not: device_edge's
// p90 then read 60 or 100-120 us in runs of the same code. The cost is
// that page faults from allocator churn do not show.
bool FixAllocator() {
  constexpr int kNeverTrim = 1 << 30;
  constexpr int kMmapAbove = 32 << 20;  // glibc's largest mmap threshold
  return mallopt(M_TRIM_THRESHOLD, kNeverTrim) == 1 &&
         mallopt(M_MMAP_THRESHOLD, kMmapAbove) == 1;
}

// Confines the calling thread, and so every thread it creates later, to
// `cpu`. Cross-CPU wake-ups along the runtime's thread hand-offs make
// unconfined runs swing by tens of percent.
//
// It also puts the thread, and so every later thread, under SCHED_BATCH,
// which needs no privilege. On one CPU the default policy lets a woken
// thread preempt the thread that woke it, depending on the two threads'
// recent run times. So the order of a hand-off chain, and the number of
// context switches an item costs, settled differently from run to run:
// device_edge took 6.9 or 7.1 switches per item and ran ~10% slower in
// the first state. Under SCHED_BATCH a woken thread waits until the
// running one blocks, and every run took 6.014 switches per item. The
// cost is that a change which relies on wake-up preemption does not show.
bool ConfineToCpu(int cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  if (cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  const sched_param param{};
  return sched_setaffinity(0, sizeof(one), &one) == 0 &&
         sched_setscheduler(0, SCHED_BATCH, &param) == 0;
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: dsbench --workload cluster_small|cluster_bulk|"
                 "device_edge --seed N --seconds S --trace 0|1 --cpu ID\n");
    return 2;
  }
  if (!FixAllocator()) {
    std::fprintf(stderr, "cannot fix the allocator's thresholds\n");
    return 1;
  }
  if (!ConfineToCpu(args->cpu)) {
    std::fprintf(stderr, "cannot confine the process to cpu %d under "
                 "SCHED_BATCH\n", args->cpu);
    return 1;
  }
  const Workload workload = args->workload;
  std::printf("workload %s, seed %" PRIu64 ", %.1f s window, trace %d, "
              "cpu %d (SCHED_BATCH)\n",
              WorkloadName(workload), args->seed, args->seconds,
              args->trace ? 1 : 0, args->cpu);

  const Inputs inputs = Inputs::Make(workload, args->seed);
  Tally tally;
  std::unique_ptr<Bench> bench = MakeBench(workload, inputs, tally);

  std::vector<double> setup_s;
  for (int round = 0; round < kSetupRounds; ++round) {
    const TimePoint start = Now();
    if (Status st = bench->Setup(); !st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(Seconds(Now() - start));
    if (round + 1 < kSetupRounds) bench->Teardown();
  }
  std::printf("set-up: %d rounds, median %.3f ms (min %.3f, max %.3f)\n",
              kSetupRounds, 1e3 * Percentile(setup_s, 50),
              1e3 * Percentile(setup_s, 0), 1e3 * Percentile(setup_s, 100));

  SlicedWindow warmup(Now(), kWarmup, kSlice);
  bench->Run(warmup);

  const auto spaces = bench->spaces();
  std::vector<Flat> reg_before;
  for (core::AddressSpace* as : spaces) reg_before.push_back(ReadRegistry(*as));
  const Usage usage_before = ReadUsage();

  SlicedWindow window(Now(),
                      std::chrono::duration_cast<Duration>(
                          std::chrono::duration<double>(args->seconds)),
                      kSlice);
  bench->Run(window);
  window.Close();

  const Usage usage_after = ReadUsage();
  const double threads = ProcStatus("Threads");
  std::vector<Flat> reg_after;
  for (core::AddressSpace* as : spaces) reg_after.push_back(ReadRegistry(*as));
  const double rate = window.MedianRate();
  const double mean = window.MedianLatency(SlicedWindow::Stat::kMean);
  const double p50 = window.MedianLatency(SlicedWindow::Stat::kP50);
  const double p90 = window.MedianLatency(SlicedWindow::Stat::kP90);
  std::printf("window: %" PRIu64 " items in %zu slices of %.1f s, at least %"
              PRIu64 " per slice; medians over the slices: %.1f items/s, "
              "latency mean %.1f us, p50 %.1f us, p90 %.1f us\n",
              window.total(), window.slices(),
              std::chrono::duration<double>(kSlice).count(),
              window.min_slice_items(), rate, mean, p50, p90);

  Report report;
  if (!args->trace) {
    const double rss_mb = ProcStatus("VmHWM") / 1024.0;
    bench->Teardown();
    std::printf("end-to-end:\n");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("items_per_s", rate, "items/s");
    // The mean, not p50: cluster_small's exchange latencies cluster
    // around a few values, so its p50 jumped between ~43, ~50 and ~57 us
    // in runs of the same code (IQR 28% of the median over ten runs).
    // The mean moves smoothly as the clusters' shares shift.
    report.Add("latency_mean_us", mean, "us");
    report.Add("latency_p90_us", p90, "us");
    report.Add("peak_rss_mb", rss_mb, "MiB");
  } else {
    const bool cluster = workload != Workload::kDeviceEdge;
    const std::size_t owner_index = cluster ? 1 : 0;
    const Flat& owner_before = reg_before[owner_index];
    const Flat& owner_after = reg_after[owner_index];
    const auto owner_delta = [&](const std::string& name) {
      return SumDelta({owner_before}, {owner_after}, name);
    };
    const std::optional<double> puts = owner_delta("stm.puts");
    const std::optional<double> reclaimed = owner_delta("stm.reclaimed_items");
    const std::uint64_t items = window.total();

    const Waterfall w = RunTracedPhase(*bench, !cluster);
    bench->Teardown();
    const Workload side_shape =
        cluster ? Workload::kDeviceEdge : Workload::kClusterSmall;
    const std::optional<Waterfall> side =
        TraceSideProbe(side_shape, args->seed, tally);
    const Floors floors = MeasureFloors(inputs);

    std::printf("traced: %zu puts joined, %" PRIu64 " calls unjoined, %" PRIu64
                " spans lost\n",
                w.owner_us.size(), w.unjoined, w.spans_lost);
    if (side) {
      std::printf("side probe (%s): %zu puts joined, %" PRIu64
                  " calls unjoined, %" PRIu64 " spans lost\n",
                  WorkloadName(side_shape), side->owner_us.size(),
                  side->unjoined, side->spans_lost);
    }
    const std::optional<double> put_call = Median(w.put_us);
    std::vector<double> parts;
    if (cluster) {
      parts = {Median(w.request_transit_us).value_or(NAN),
               Median(w.owner_us).value_or(NAN),
               Median(w.reply_transit_us).value_or(NAN)};
    } else {
      parts = {Median(w.edge_us).value_or(NAN),
               Median(w.surrogate_self_us).value_or(NAN),
               Median(w.surrogate_dispatch_us).value_or(NAN),
               Median(w.owner_us).value_or(NAN)};
    }
    const std::optional<double> gap =
        put_call ? std::optional<double>(WaterfallGapPct(*put_call, parts))
                 : std::nullopt;
    // A call whose spans are missing or do not nest fails the check too.
    const bool closes =
        gap && *gap <= kWaterfallTolerancePct && w.unjoined == 0;
    std::printf("waterfall (%s put): parts' medians sum within %.2f%% of the "
                "median call%s\n",
                cluster ? "core" : "client", gap.value_or(NAN),
                closes ? "" : "  ** DOES NOT CLOSE **");

    // The cluster workloads make no CClient calls, and device_edge makes
    // no AddressSpace calls and sends nothing over CLF: those layers'
    // times come from the side probe.
    const Waterfall* side_w = side ? &*side : nullptr;
    const Waterfall* core_w = cluster ? &w : side_w;
    const Waterfall* client_w = cluster ? side_w : &w;
    const auto median_of = [](const Waterfall* from,
                              std::vector<double> Waterfall::*part) {
      return from != nullptr ? Median(from->*part) : std::nullopt;
    };
    const std::uint64_t unjoined = w.unjoined + (side ? side->unjoined : 0);
    const std::uint64_t spans_lost =
        w.spans_lost + (side ? side->spans_lost : 0);
    std::printf("per-layer:\n");
    report.Add("core.put_call_us", median_of(core_w, &Waterfall::put_us), "us");
    report.Add("core.get_call_us", median_of(core_w, &Waterfall::get_us), "us");
    report.Add("core.consume_call_us",
               median_of(core_w, &Waterfall::consume_us), "us");
    report.Add("core.request_transit_us",
               median_of(core_w, &Waterfall::request_transit_us), "us");
    report.Add("core.owner_us", Median(w.owner_us), "us");
    report.Add("core.reply_transit_us",
               median_of(core_w, &Waterfall::reply_transit_us), "us");
    report.Add("core.get_owner_us", Median(w.get_owner_us), "us");
    report.Add("core.dispatch_per_item",
               PerItem(SumDelta(reg_before, reg_after, "dispatch.requests"),
                       items),
               "req/item");
    report.Add("core.reclaim_lag_us",
               WindowMean(owner_before, owner_after, "stm.reclaim_lag_us"),
               "us");
    report.Add("core.reclaimed_per_put",
               puts && reclaimed && *puts > 0
                   ? std::optional<double>(*reclaimed / *puts)
                   : std::nullopt,
               "ratio");
    report.Add("clf.rtt_us", core_w != nullptr ? core_w->rtt_us : std::nullopt,
               "us");
    report.Add("clf.packets_per_item",
               PerItem(SumDelta(reg_before, reg_after, "clf.data_packets_sent"),
                       items),
               "pkt/item");
    report.Add("clf.retransmissions",
               SumDelta(reg_before, reg_after, "clf.retransmissions"), "count");
    report.Add("clf.duplicates",
               SumDelta(reg_before, reg_after, "clf.duplicates_discarded"),
               "count");
    report.Add("client.put_call_us", median_of(client_w, &Waterfall::put_us),
               "us");
    report.Add("client.get_call_us", median_of(client_w, &Waterfall::get_us),
               "us");
    report.Add("client.consume_call_us",
               median_of(client_w, &Waterfall::consume_us), "us");
    report.Add("client.edge_us", median_of(client_w, &Waterfall::edge_us),
               "us");
    report.Add("client.surrogate_self_us",
               median_of(client_w, &Waterfall::surrogate_self_us), "us");
    report.Add("client.surrogate_dispatch_us",
               median_of(client_w, &Waterfall::surrogate_dispatch_us), "us");
    report.Add("client.retries",
               client_w != nullptr ? client_w->retries : std::nullopt, "count");
    report.Add("marshal.put_frame_us", MeasureMarshal(inputs), "us");
    report.Add("transport.udp_half_rtt_us", floors.udp_half_rtt_us, "us");
    report.Add("transport.tcp_half_rtt_us", floors.tcp_half_rtt_us, "us");
    report.Add("process.ctx_switches_per_item",
               PerItem(usage_after.ctx_switches - usage_before.ctx_switches,
                       items),
               "switch/item");
    report.Add("process.cpu_us_per_item",
               PerItem(usage_after.cpu_us - usage_before.cpu_us, items),
               "us/item");
    report.Add("process.threads", threads, "count");
    const std::optional<double> traced_p50 = Median(w.latency_us);
    const std::optional<double> untraced_p50 = Median(w.untraced_latency_us);
    report.Add("trace.overhead_us",
               traced_p50 && untraced_p50
                   ? std::optional<double>(*traced_p50 - *untraced_p50)
                   : std::nullopt,
               "us");
    report.Add("trace.waterfall_gap_pct", gap, "%");
    report.Add("trace.unjoined_calls", static_cast<double>(unjoined), "count");
    report.Add("trace.spans_lost", static_cast<double>(spans_lost), "count");
  }

  tally.Print();
  const bool correct = tally.failed() == 0 && window.total() > 0;
  report.PrintJson(correct, tally.attempted(), tally.failed());
  return 0;
}

}  // namespace
}  // namespace dsbench

int main(int argc, char** argv) { return dsbench::Main(argc, argv); }
