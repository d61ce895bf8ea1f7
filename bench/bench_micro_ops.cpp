// Micro-operation benchmarks (google-benchmark): the cost anatomy
// behind Experiments 1-3, plus the DESIGN.md ablations:
//   * XDR vs Java-style marshalling (the Exp 3 disparity, isolated)
//   * local channel put/get (space-time memory bookkeeping)
//   * queue put/get/consume
//   * CLF round trip over UDP vs the shared-memory fast path
//   * GC reclaim cost against channel population
//   * compositor blend and name-server lookup
#include <benchmark/benchmark.h>

#include "../tests/clf_sink.hpp"
#include "dstampede/app/image.hpp"
#include "dstampede/clf/endpoint.hpp"
#include "dstampede/core/channel.hpp"
#include "dstampede/core/name_server.hpp"
#include "dstampede/core/queue.hpp"
#include "dstampede/marshal/java_style.hpp"
#include "dstampede/marshal/xdr.hpp"

using namespace dstampede;

namespace {

Buffer MakePayload(std::size_t n, std::uint64_t seed = 7) {
  Buffer b(n);
  FillPattern(b, seed);
  return b;
}

// --- marshalling ablation ----------------------------------------------------

void BM_XdrEncodeOpaque(benchmark::State& state) {
  Buffer payload = MakePayload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    marshal::XdrEncoder enc(payload.size() + 16);
    enc.PutI64(1);
    enc.PutOpaque(payload);
    benchmark::DoNotOptimize(enc.Take());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XdrEncodeOpaque)->Arg(1000)->Arg(10000)->Arg(55000);

void BM_JavaStyleEncodeOpaque(benchmark::State& state) {
  Buffer payload = MakePayload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    marshal::JavaStyleEncoder enc;
    enc.PutI64(1);
    enc.PutOpaque(payload);
    benchmark::DoNotOptimize(enc.Take());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JavaStyleEncodeOpaque)->Arg(1000)->Arg(10000)->Arg(55000);

void BM_XdrDecodeOpaque(benchmark::State& state) {
  marshal::XdrEncoder enc;
  enc.PutOpaque(MakePayload(static_cast<std::size_t>(state.range(0))));
  Buffer wire = enc.Take();
  for (auto _ : state) {
    marshal::XdrDecoder dec(wire);
    benchmark::DoNotOptimize(dec.GetOpaque());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XdrDecodeOpaque)->Arg(1000)->Arg(55000);

void BM_JavaStyleDecodeOpaque(benchmark::State& state) {
  marshal::XdrEncoder enc;
  enc.PutOpaque(MakePayload(static_cast<std::size_t>(state.range(0))));
  Buffer wire = enc.Take();
  for (auto _ : state) {
    marshal::JavaStyleDecoder dec(wire);
    benchmark::DoNotOptimize(dec.GetOpaque());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JavaStyleDecodeOpaque)->Arg(1000)->Arg(55000);

// --- space-time memory bookkeeping ---------------------------------------------

void BM_ChannelPutGetConsume(benchmark::State& state) {
  core::LocalChannel ch{core::ChannelAttr{}};
  std::uint32_t conn = ch.Attach(core::ConnMode::kInputOutput, "bench");
  SharedBuffer payload(MakePayload(static_cast<std::size_t>(state.range(0))));
  Timestamp ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.Put(ts, payload, Deadline::Poll()));
    benchmark::DoNotOptimize(
        ch.Get(conn, core::GetSpec::Exact(ts), Deadline::Poll()));
    benchmark::DoNotOptimize(ch.Consume(conn, ts));
    ++ts;
  }
}
BENCHMARK(BM_ChannelPutGetConsume)->Arg(1000)->Arg(55000);

void BM_ChannelGetNewestAmongMany(benchmark::State& state) {
  core::LocalChannel ch{core::ChannelAttr{}};
  std::uint32_t conn = ch.Attach(core::ConnMode::kInput, "bench");
  SharedBuffer payload(MakePayload(64));
  for (Timestamp ts = 0; ts < state.range(0); ++ts) {
    (void)ch.Put(ts, payload, Deadline::Poll());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ch.Get(conn, core::GetSpec::Newest(), Deadline::Poll()));
  }
}
BENCHMARK(BM_ChannelGetNewestAmongMany)->Arg(16)->Arg(256)->Arg(4096);

void BM_QueuePutGetConsume(benchmark::State& state) {
  core::LocalQueue q{core::QueueAttr{}};
  std::uint32_t conn = q.Attach(core::ConnMode::kInputOutput, "bench");
  SharedBuffer payload(MakePayload(static_cast<std::size_t>(state.range(0))));
  Timestamp ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Put(ts, payload, Deadline::Poll()));
    benchmark::DoNotOptimize(q.Get(conn, Deadline::Poll()));
    benchmark::DoNotOptimize(q.Consume(conn, ts));
    ++ts;
  }
}
BENCHMARK(BM_QueuePutGetConsume)->Arg(1000)->Arg(55000);

// --- CLF: UDP path vs shared-memory fast path (transport ablation) ---------------

void ClfRoundTrip(benchmark::State& state, bool shm) {
  clf::Endpoint::Options opts;
  opts.enable_shm_fastpath = shm;
  // One registry per endpoint, as each address space has its own.
  metrics::Registry a_metrics;
  metrics::Registry b_metrics;
  clf::MessageSink a_sink;
  clf::MessageSink b_sink;
  auto a = clf::Endpoint::Create(opts, a_metrics, a_sink.Deliver());
  auto b = clf::Endpoint::Create(opts, b_metrics, b_sink.Deliver());
  if (!a.ok() || !b.ok()) {
    state.SkipWithError("endpoint creation failed");
    return;
  }
  Buffer payload = MakePayload(static_cast<std::size_t>(state.range(0)));
  Buffer got;
  transport::SockAddr from;
  // Send takes its message by move, so each leg hands over a fresh
  // Buffer: a copy of the payload, then of the message b received.
  for (auto _ : state) {
    if (!(*a)->Send((*b)->addr(), payload).ok() ||
        !b_sink.Next(got, from, Deadline::AfterMillis(30000)).ok() ||
        !(*b)->Send(from, std::move(got)).ok() ||
        !a_sink.Next(got, from, Deadline::AfterMillis(30000)).ok()) {
      state.SkipWithError("clf exchange failed");
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}

void BM_ClfRoundTripUdp(benchmark::State& state) {
  ClfRoundTrip(state, /*shm=*/false);
}
// 190000 bytes: four fragments each way.
BENCHMARK(BM_ClfRoundTripUdp)->Arg(1000)->Arg(55000)->Arg(190000);

void BM_ClfRoundTripShm(benchmark::State& state) {
  ClfRoundTrip(state, /*shm=*/true);
}
BENCHMARK(BM_ClfRoundTripShm)->Arg(1000)->Arg(55000);

// --- GC reclaim cost ---------------------------------------------------------------

void BM_GcReclaimPopulation(benchmark::State& state) {
  // A put and the consume that reclaims it, while N older items stay
  // held: the consume reclaims only its own timestamp, so its cost
  // grows with N only through the lookups in the item map (log N).
  core::LocalChannel ch{core::ChannelAttr{}};
  const Timestamp held = state.range(0);
  const std::uint32_t reader = ch.Attach(core::ConnMode::kInput, "reader");
  // Claims the first N items only, and never consumes them.
  const std::uint32_t holder = ch.Attach(core::ConnMode::kInput, "holder");
  core::ItemFilter first_n;
  first_n.ts_max = held - 1;
  (void)ch.SetFilter(holder, first_n);
  SharedBuffer payload(MakePayload(64));
  for (Timestamp ts = 0; ts < held; ++ts) {
    (void)ch.Put(ts, payload, Deadline::Poll());
  }
  Timestamp ts = held;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.Put(ts, payload, Deadline::Poll()));
    benchmark::DoNotOptimize(ch.Consume(reader, ts));
    ++ts;
  }
  if (ch.live_items() != static_cast<std::size_t>(held)) {
    state.SkipWithError("a consume left its item unreclaimed");
  }
}
BENCHMARK(BM_GcReclaimPopulation)->Arg(16)->Arg(1024)->Arg(16384);

// --- app + naming --------------------------------------------------------------------

void BM_CompositorBlend(benchmark::State& state) {
  const std::size_t kb = static_cast<std::size_t>(state.range(0));
  app::Compositor comp(4, kb * 1024);
  app::VirtualCamera camera(0, kb * 1024);
  Buffer frame = camera.Grab(0);
  Buffer composite = comp.MakeComposite();
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.Blend(composite, 2, frame));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kb) * 1024);
}
BENCHMARK(BM_CompositorBlend)->Arg(74)->Arg(190);

void BM_NameServerLookup(benchmark::State& state) {
  core::NameServer ns;
  for (int i = 0; i < state.range(0); ++i) {
    (void)ns.Register(core::NsEntry{"svc/" + std::to_string(i),
                                    core::NsEntry::Kind::kChannel,
                                    static_cast<std::uint64_t>(i), ""});
  }
  const std::string needle = "svc/" + std::to_string(state.range(0) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns.Lookup(needle));
  }
}
BENCHMARK(BM_NameServerLookup)->Arg(16)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
