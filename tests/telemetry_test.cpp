// Telemetry layer: metrics registry exactness under contention, trace
// propagation across the TCP client -> surrogate -> owner dispatch
// path (including the parked-waiter suspension), sys/metrics snapshot
// integrity, and old-wire (no trace field) interop.
#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "clf_sink.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/common/json.hpp"
#include "dstampede/common/metrics.hpp"
#include "dstampede/common/trace.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/core/wire.hpp"
#include "dstampede/marshal/xdr.hpp"

namespace dstampede {
namespace {

using client::CClient;
using client::Listener;
using core::ConnMode;
using core::GetSpec;

std::string HexId(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return buf;
}

// Instrument names contain dots ("stm.puts"), so FindPath's
// dot-splitting cannot reach them; walk the two levels explicitly.
const json::Value* RegistryEntry(const json::Value& snapshot,
                                 const char* section, const char* name) {
  const json::Value* registry = snapshot.Find("registry");
  if (registry == nullptr) return nullptr;
  const json::Value* table = registry->Find(section);
  return table == nullptr ? nullptr : table->Find(name);
}

// Spans of one trace, keyed by name, pulled from a parsed snapshot.
struct SpanInfo {
  std::string span_id;
  std::string parent_span_id;
  std::int64_t duration_us = 0;
};

std::map<std::string, SpanInfo> SpansOfTrace(const json::Value& snapshot,
                                             const std::string& trace_hex) {
  std::map<std::string, SpanInfo> out;
  const json::Value* spans = snapshot.Find("spans");
  if (spans == nullptr || !spans->is_array()) return out;
  for (const json::Value& s : spans->AsArray()) {
    const json::Value* tid = s.Find("trace_id");
    if (tid == nullptr || tid->AsString() != trace_hex) continue;
    SpanInfo info;
    info.span_id = s.Find("span_id")->AsString();
    info.parent_span_id = s.Find("parent_span_id")->AsString();
    info.duration_us = s.Find("duration_us")->AsInt();
    out[s.Find("name")->AsString()] = info;
  }
  return out;
}

// --- registry primitives ---------------------------------------------------

TEST(TelemetryCounters, ExactUnderContention) {
  metrics::Counter counter;
  metrics::Gauge gauge;
  metrics::Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        gauge.Add(2);
        gauge.Sub(1);
        hist.Observe(i & 1023);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge.Value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.Min(), 0);
  // 1023 falls in a log bucket; the reported max carries the documented
  // ~3% bucket error bound.
  EXPECT_GE(hist.Max(), 1023);
  EXPECT_LE(hist.Max(), 1100);
}

TEST(TelemetryHistogram, EmptySafe) {
  metrics::Histogram hist;
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Sum(), 0);
  EXPECT_EQ(hist.Mean(), 0);
  EXPECT_EQ(hist.Min(), 0);
  EXPECT_EQ(hist.Max(), 0);
  EXPECT_EQ(hist.Percentile(50), 0);
  EXPECT_EQ(hist.Percentile(99), 0);
  EXPECT_FALSE(hist.Summary().empty());
}

TEST(TelemetryHistogram, SmallValuesExactLargeApproximate) {
  metrics::Histogram hist;
  for (int v : {0, 1, 5, 15}) hist.Observe(v);
  EXPECT_EQ(hist.Min(), 0);
  EXPECT_EQ(hist.Max(), 15);
  hist.Observe(-7);  // clamps to 0
  EXPECT_EQ(hist.Min(), 0);
  EXPECT_EQ(hist.Count(), 5u);
}

TEST(TelemetryHistogram, MinIsTheSmallerOfTwoRacingFirstSamples) {
  // Two threads released together make the first two samples of a
  // fresh histogram, 1000 and 5, in either order. Meanwhile this thread
  // reads it: Min() must never report the extremes' starting values,
  // and never exceed Max() (Percentile clamps between them).
  for (int round = 0; round < 2000; ++round) {
    metrics::Histogram hist;
    std::atomic<int> ready{0};
    auto observe = [&](std::int64_t sample) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      hist.Observe(sample);
    };
    std::thread big(observe, 1000);
    std::thread small(observe, 5);
    std::int64_t torn = -1;  // a Min() the reader must never see
    while (hist.Count() < 2 && torn < 0) {
      const std::int64_t min = hist.Min();
      if (min > hist.Max() || (min != 0 && min != 5 && min != 1000)) {
        torn = min;
      }
    }
    big.join();
    small.join();
    ASSERT_EQ(torn, -1) << "round " << round;
    ASSERT_EQ(hist.Min(), 5) << "round " << round;
    ASSERT_EQ(hist.Max(), 1000) << "round " << round;
  }
}

TEST(TelemetryRegistry, StableInstrumentAddressesAndJson) {
  metrics::Registry registry;
  metrics::Counter& a = registry.GetCounter("x.count");
  metrics::Counter& b = registry.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  registry.GetGauge("x.depth").Set(7);
  registry.GetHistogram("x.lat_us").Observe(42);
  const std::uint64_t token =
      registry.AddProvider("x.pull", [] { return std::int64_t{11}; });

  std::string out;
  registry.WriteJson(out);
  auto parsed = json::Parse(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << out;
  EXPECT_EQ(parsed->Find("counters")->Find("x.count")->AsInt(), 3);
  EXPECT_EQ(parsed->Find("gauges")->Find("x.depth")->AsInt(), 7);
  EXPECT_EQ(parsed->Find("providers")->Find("x.pull")->AsInt(), 11);
  EXPECT_EQ(parsed->Find("histograms")->Find("x.lat_us")->Find("count")
                ->AsInt(),
            1);

  registry.RemoveProvider(token);
  out.clear();
  registry.WriteJson(out);
  parsed = json::Parse(out);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("providers")->Find("x.pull"), nullptr);
}

// --- cluster fixtures ------------------------------------------------------

class TelemetryClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
    auto listener = Listener::Start(*rt_);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
  }

  void TearDown() override {
    if (listener_) listener_->Shutdown();
    if (rt_) rt_->Shutdown();
  }

  std::unique_ptr<CClient> JoinC(std::int32_t preferred_as, bool traced,
                                 const std::string& name = "dev") {
    CClient::Options opts;
    opts.server = listener_->addr();
    opts.name = name;
    opts.preferred_as = preferred_as;
    opts.trace_calls = traced;
    auto client = CClient::Join(opts);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  json::Value Snapshot(CClient& via, std::uint32_t target) {
    auto text = via.MetricsSnapshot(static_cast<AsId>(target));
    EXPECT_TRUE(text.ok()) << text.status();
    if (!text.ok()) return json::Value::MakeNull();
    auto parsed = json::Parse(*text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return parsed.ok() ? std::move(*parsed) : json::Value::MakeNull();
  }

  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<Listener> listener_;
};

// A blocking Get through the TCP client whose item arrives ~300 ms
// later must produce one trace whose spans cover the client call, the
// surrogate dispatch and the owner-side serve, with correct parenting
// and a serve duration that reflects the block time.
TEST_F(TelemetryClusterTest, TracedBlockingGetProducesSpanTree) {
  auto getter = JoinC(/*preferred_as=*/0, /*traced=*/true, "getter");
  auto putter = JoinC(/*preferred_as=*/0, /*traced=*/false, "putter");

  auto ch = getter->CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  ASSERT_EQ(AsIndex(ch->owner()), 0u);  // host AS owns it: local serve path
  auto in = getter->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok()) << in.status();
  auto out = putter->Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();

  Result<core::ItemView> got = InternalError("unset");
  std::thread blocked([&] {
    got = getter->Get(*in, GetSpec::Exact(0), Deadline::AfterMillis(10000));
  });
  std::this_thread::sleep_for(Millis(300));
  ASSERT_TRUE(putter->Put(*out, 0, Buffer(64)).ok());
  blocked.join();
  ASSERT_TRUE(got.ok()) << got.status();

  const std::uint64_t trace_id = getter->last_trace_id();
  ASSERT_NE(trace_id, 0u);

  json::Value snapshot = Snapshot(*putter, 0);
  auto spans = SpansOfTrace(snapshot, HexId(trace_id));
  ASSERT_GE(spans.size(), 3u) << "spans of trace " << HexId(trace_id);
  ASSERT_TRUE(spans.count("client.call"));
  ASSERT_TRUE(spans.count("surrogate.dispatch"));
  ASSERT_TRUE(spans.count("owner.serve"));
  // Parenting: client.call -> surrogate.dispatch -> owner.serve.
  EXPECT_EQ(spans["surrogate.dispatch"].parent_span_id,
            spans["client.call"].span_id);
  EXPECT_EQ(spans["owner.serve"].parent_span_id,
            spans["surrogate.dispatch"].span_id);
  // The serve span covers the ~300 ms the getter was blocked.
  EXPECT_GE(spans["owner.serve"].duration_us, 150000);
  EXPECT_GE(spans["client.call"].duration_us,
            spans["owner.serve"].duration_us);
}

// When the container lives on a different space than the surrogate's
// host, the context crosses CLF and the suspension shows up as an
// owner.parked span on the owning space, parented into the same trace.
TEST_F(TelemetryClusterTest, RemoteParkedGetSpansOnOwningSpace) {
  auto getter = JoinC(/*preferred_as=*/0, /*traced=*/true, "getter");

  auto ch = rt_->as(1).CreateChannel();  // owned by AS1, host is AS0
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto in = getter->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok()) << in.status();
  auto out = rt_->as(1).Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();

  Result<core::ItemView> got = InternalError("unset");
  std::thread blocked([&] {
    got = getter->Get(*in, GetSpec::Exact(0), Deadline::AfterMillis(10000));
  });
  std::this_thread::sleep_for(Millis(300));
  ASSERT_TRUE(rt_->as(1).Put(*out, 0, Buffer(64)).ok());
  blocked.join();
  ASSERT_TRUE(got.ok()) << got.status();

  const std::uint64_t trace_id = getter->last_trace_id();
  ASSERT_NE(trace_id, 0u);

  // The host space recorded the edge spans...
  json::Value host = Snapshot(*getter, 0);
  auto host_spans = SpansOfTrace(host, HexId(trace_id));
  ASSERT_TRUE(host_spans.count("client.call"));
  ASSERT_TRUE(host_spans.count("surrogate.dispatch"));
  // ...and the owning space recorded the parked suspension, fetched
  // through the forwarded sys/metrics RPC.
  json::Value owner = Snapshot(*getter, 1);
  auto owner_spans = SpansOfTrace(owner, HexId(trace_id));
  ASSERT_TRUE(owner_spans.count("owner.parked"))
      << "owner spans: " << owner_spans.size();
  // Parked roughly as long as the producer stayed silent, and hung off
  // the surrogate's dispatch span across the CLF hop.
  EXPECT_GE(owner_spans["owner.parked"].duration_us, 150000);
  EXPECT_EQ(owner_spans["owner.parked"].parent_span_id,
            host_spans["surrogate.dispatch"].span_id);

  const json::Value* deferred =
      RegistryEntry(owner, "counters", "dispatch.deferred");
  ASSERT_NE(deferred, nullptr);
  EXPECT_GE(deferred->AsInt(), 1);
}

// The snapshot's space-time section must reflect a known put/get
// sequence exactly: occupancy, frontier, total puts and GC reclaims.
TEST_F(TelemetryClusterTest, SnapshotReflectsPutGetSequence) {
  core::ChannelAttr attr;
  attr.debug_name = "seq";
  auto ch = rt_->as(0).CreateChannel(attr);
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto out = rt_->as(0).Connect(*ch, ConnMode::kOutput);
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok() && in.ok());
  for (Timestamp ts = 0; ts < 5; ++ts) {
    ASSERT_TRUE(rt_->as(0).Put(*out, ts, Buffer(32)).ok());
  }
  for (Timestamp ts = 0; ts < 3; ++ts) {
    auto item = rt_->as(0).Get(*in, GetSpec::Exact(ts));
    ASSERT_TRUE(item.ok()) << item.status();
    ASSERT_TRUE(rt_->as(0).Consume(*in, ts).ok());
  }
  // Let the GC sweep reclaim the consumed prefix.
  const Deadline gc_wait = Deadline::AfterMillis(5000);
  while (!gc_wait.expired()) {
    auto owned = rt_->as(0).FindChannel(ch->bits());
    ASSERT_NE(owned, nullptr);
    if (owned->total_reclaimed() >= 3) break;
    std::this_thread::sleep_for(Millis(10));
  }

  auto text = rt_->as(0).MetricsSnapshot(rt_->as(0).id());
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = json::Parse(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << *text;

  const json::Value* channels = parsed->Find("channels");
  ASSERT_NE(channels, nullptr);
  const json::Value* seq = nullptr;
  for (const json::Value& c : channels->AsArray()) {
    if (c.Find("name")->AsString() == "seq") seq = &c;
  }
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(seq->Find("total_puts")->AsInt(), 5);
  EXPECT_EQ(seq->Find("reclaimed")->AsInt(), 3);
  EXPECT_EQ(seq->Find("live_items")->AsInt(), 2);
  EXPECT_EQ(seq->Find("frontier")->AsInt(), 4);

  // The registry mirrors the same sequence (counters are AS-wide, and
  // this runtime ran nothing else on AS0's containers).
  EXPECT_GE(RegistryEntry(*parsed, "counters", "stm.puts")->AsInt(), 5);
  EXPECT_GE(RegistryEntry(*parsed, "counters", "stm.gets")->AsInt(), 3);
  EXPECT_GE(RegistryEntry(*parsed, "counters", "stm.reclaimed_items")->AsInt(),
            3);
  const json::Value* lag =
      RegistryEntry(*parsed, "histograms", "stm.reclaim_lag_us");
  ASSERT_NE(lag, nullptr);
  EXPECT_GE(lag->Find("count")->AsInt(), 3);
}

// An old-wire peer encodes requests without the trace field; a new
// server must execute them unchanged, and a traced frame must decode
// to the same reply (responses never carry trace bytes).
TEST_F(TelemetryClusterTest, OldWireFramesInteroperate) {
  // Untraced frame, exactly the pre-telemetry byte layout.
  marshal::XdrEncoder plain;
  plain.PutU32(static_cast<std::uint32_t>(core::Op::kCreateChannel));
  plain.PutU64(/*request_id=*/77);
  core::CreateReq req;
  req.debug_name = "legacy";
  core::Encode(plain, req);
  Buffer reply = rt_->as(0).ExecuteWireRequest(plain.Take());
  marshal::XdrDecoder dec(reply);
  auto hdr = core::DecodeResponseHeader(dec);
  ASSERT_TRUE(hdr.ok()) << hdr.status();
  EXPECT_TRUE(hdr->status.ok()) << hdr->status;
  EXPECT_EQ(hdr->request_id, 77u);
  auto bits = dec.GetU64();
  ASSERT_TRUE(bits.ok());
  EXPECT_NE(rt_->as(0).FindChannel(*bits), nullptr);

  // Traced frame: op word flagged, context between id and op fields.
  marshal::XdrEncoder traced;
  traced.PutU32(static_cast<std::uint32_t>(core::Op::kCreateChannel) |
                core::kTraceFlag);
  traced.PutU64(/*request_id=*/78);
  traced.PutU64(/*trace_id=*/0xABCDu);
  traced.PutU64(/*span_id=*/0x1234u);
  traced.PutU32(trace::TraceContext::kSampled);
  core::CreateReq req2;
  req2.debug_name = "traced";
  core::Encode(traced, req2);
  Buffer reply2 = rt_->as(0).ExecuteWireRequest(traced.Take());
  marshal::XdrDecoder dec2(reply2);
  auto hdr2 = core::DecodeResponseHeader(dec2);
  ASSERT_TRUE(hdr2.ok()) << hdr2.status();
  EXPECT_TRUE(hdr2->status.ok()) << hdr2->status;
  EXPECT_EQ(hdr2->request_id, 78u);
}

// A remote blocking Get that expires at its deadline must bump the
// owner's dropped_or_expired counter (the timer-wheel expiry path).
TEST_F(TelemetryClusterTest, DeferredTimeoutCountsDroppedOrExpired) {
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto in = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok()) << in.status();

  metrics::Counter& dropped =
      rt_->as(1).metrics_registry().GetCounter("dispatch.dropped_or_expired");
  const std::uint64_t before = dropped.Value();

  auto item = rt_->as(0).Get(*in, GetSpec::Exact(0),
                             Deadline::AfterMillis(150));
  EXPECT_EQ(item.status().code(), StatusCode::kTimeout) << item.status();
  // The caller's timeout races the owning space's expiry sweep: the
  // Get returns the moment its deadline passes, the counter bumps when
  // AS 1 notices. Poll instead of sampling.
  const TimePoint give_up = Now() + Millis(2000);
  while (dropped.Value() < before + 1 && Now() < give_up) {
    std::this_thread::sleep_for(Millis(5));
  }
  EXPECT_GE(dropped.Value(), before + 1);
}

// The CLF endpoint counts into its space's registry: after shm and UDP
// traffic, every clf.* name is a counter, and no clf.* value is left
// for a provider to mirror except the fault injector's.
TEST(TelemetryTest, ClfCountersLiveInTheRegistry) {
  // AS0 and AS1 share the process with the shm fast path on, so a put
  // between them crosses the ring.
  core::Runtime::Options opts;
  opts.num_address_spaces = 2;
  opts.shm_fastpath = true;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  core::AddressSpace& as0 = (*rt)->as(0);
  auto ch = (*rt)->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto out = as0.Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(as0.Put(*out, 1, Buffer(64)).ok());

  // An endpoint without the fast path reaches AS0 over UDP: a
  // sys/metrics request and its reply.
  auto peer = clf::CreateSinkEndpoint({});
  ASSERT_TRUE(peer.ok()) << peer.status();
  marshal::XdrEncoder enc;
  core::EncodeRequestHeader(enc, core::Op::kMetrics, 7);
  core::MetricsReq req;
  req.target_as = AsIndex(as0.id());
  core::Encode(enc, req);
  ASSERT_TRUE((*peer)->Send(as0.clf_addr(), enc.Take()).ok());
  Buffer reply;
  transport::SockAddr from;
  ASSERT_TRUE(peer->Next(reply, from, Deadline::AfterMillis(10000)).ok());

  auto parsed = json::Parse(as0.MetricsJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  for (const char* name :
       {"clf.data_packets_sent", "clf.data_packets_received",
        "clf.retransmissions", "clf.acks_sent", "clf.duplicates_discarded",
        "clf.messages_delivered", "clf.shm_messages",
        "clf.keepalive_probes_sent", "clf.peers_declared_dead",
        "clf.peers_resurrected", "clf.epoch_resets"}) {
    ASSERT_NE(RegistryEntry(*parsed, "counters", name), nullptr) << name;
  }
  EXPECT_GE(RegistryEntry(*parsed, "counters", "clf.shm_messages")->AsInt(), 1);
  EXPECT_GE(
      RegistryEntry(*parsed, "counters", "clf.data_packets_received")->AsInt(),
      1);
  // AS0 owed an ack for the request; it left alone or on the reply,
  // and either way before the reply did.
  EXPECT_GE(RegistryEntry(*parsed, "counters", "clf.acks_sent")->AsInt() +
                RegistryEntry(*parsed, "counters", "clf.acks_piggybacked")
                    ->AsInt(),
            1);
  const json::Value* providers = parsed->FindPath("registry.providers");
  ASSERT_NE(providers, nullptr);
  for (const auto& [name, value] : providers->AsObject()) {
    if (name.rfind("clf.", 0) == 0) {
      EXPECT_EQ(name.rfind("clf.fault.", 0), 0u) << name;
    }
  }
}

// --- mutating JSON ------------------------------------------------------
//
// dsctl parses the sys/metrics replies it fetches from spaces with
// json::Parse. Start from a live snapshot and from a document holding
// every value kind, and feed the parser every truncation, seeded bit
// flips, noise and deep nesting: each input parses or returns a
// Status, never a crash.

class JsonFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(JsonFuzzTest, MutatedDocumentsParseOrFail) {
  std::mt19937_64 rng(GetParam());
  core::Runtime::Options opts;
  opts.num_address_spaces = 1;
  auto rt = core::Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  core::AddressSpace& as = (*rt)->as(0);
  auto ch = as.CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto out = as.Connect(*ch, ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(as.Put(*out, 1, Buffer(16)).ok());

  const std::vector<std::string> corpus = {
      as.MetricsJson(),
      R"({"null": null, "true": true, "false": false, "int": -12,)"
      R"( "real": 3.5e-2, "string": "q\"b\\s\/\b\f\n\r\t\u0041",)"
      R"( "array": [1, [2, {}], [], "x"], "object": {"k": {"v": [null]}}})",
  };
  int parsed = 0;
  auto parse = [&](const std::string& text) {
    if (json::Parse(text).ok()) ++parsed;
  };
  for (const std::string& valid : corpus) {
    ASSERT_TRUE(json::Parse(valid).ok()) << valid;
    for (std::size_t len = 0; len <= valid.size(); ++len) {
      parse(valid.substr(0, len));
    }
    for (int round = 0; round < 200; ++round) {
      std::string mutated = valid;
      const int flips = 1 + static_cast<int>(rng() % 8);
      for (int f = 0; f < flips; ++f) {
        mutated[rng() % mutated.size()] ^= static_cast<char>(1u << (rng() % 8));
      }
      parse(mutated);
    }
  }
  for (int round = 0; round < 100; ++round) {
    std::string noise(rng() % 256, '\0');
    for (char& c : noise) c = static_cast<char>(rng());
    parse(noise);
  }
  // Only the untruncated documents are sure to parse.
  EXPECT_GE(parsed, 2);

  // Deep nesting of either bracket kind is refused, not recursed into.
  for (const std::string& open : {std::string("["), std::string("{\"a\":")}) {
    std::string deep;
    for (int i = 0; i < 100000; ++i) deep += open;
    auto result = json::Parse(deep);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest, ::testing::Range(0u, 5u));

}  // namespace
}  // namespace dstampede
