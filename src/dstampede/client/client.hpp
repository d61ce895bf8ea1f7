// End-device client library (paper §3.2.1).
//
// BasicClient<Codec> exports the full D-Stampede API to an end device
// "in a manner analogous to exporting a procedure call using an RPC
// interface": every call is marshalled, sent over TCP to the device's
// surrogate on the cluster, and the reply unmarshalled. The codec
// parameter selects the language personality:
//
//   CClient        — XDR codec, pointer-manipulation marshalling (the
//                    paper's C client library);
//   JavaStyleClient— object-stream codec with per-field boxing and
//                    byte-at-a-time copies (the paper's Java client;
//                    see java_client.hpp and DESIGN.md substitutions).
//
// Both personalities emit identical octets and can take part in the
// same application against the same cluster (§3.2.3's heterogeneity).
//
// Threading: one BasicClient is one session with one surrogate; calls
// are serialized on the session, matching the paper's one-surrogate-
// per-device design. Run concurrent activities (camera producer and
// display consumer) as separate sessions — §4 models them as separate
// end devices anyway.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "dstampede/client/protocol.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/core/address_space.hpp"
#include "dstampede/marshal/java_style.hpp"
#include "dstampede/marshal/xdr.hpp"
#include "dstampede/transport/tcp.hpp"

namespace dstampede::client {

struct CCodec {
  using Encoder = marshal::XdrEncoder;
  using Decoder = marshal::XdrDecoder;
  static constexpr std::uint32_t kKind = kClientKindC;
};

struct JavaCodec {
  using Encoder = marshal::JavaStyleEncoder;
  using Decoder = marshal::JavaStyleDecoder;
  static constexpr std::uint32_t kKind = kClientKindJava;
};

// Transparent-reconnect policy (session resilience). On a transport
// failure mid-call the client reconnects with exponential backoff and
// jitter, re-binds its session via a Resume handshake (to the same
// listener, an alternate, or one discovered through the name
// server), and idempotently replays the in-flight call by its
// per-call ticket. Hello and Bye are never retried.
struct ReconnectPolicy {
  bool enabled = true;
  Duration initial_backoff = Millis(10);
  Duration max_backoff = Millis(250);
  double jitter = 0.5;  // backoff is scaled by [1, 1+jitter)
  // Total budget per failed call before the error surfaces.
  Duration give_up_after = Millis(3000);
};

// The production backoff schedule, factored out of the reconnect loop
// so the simulated reconnect-storm scenario can run a thousand modeled
// devices through the exact code path real clients use. Each call to
// NextNap() yields the nap before the next reconnect round: the
// current backoff scaled by seeded jitter in [1, 1+policy.jitter),
// then doubled toward max_backoff.
class ReconnectBackoff {
 public:
  ReconnectBackoff(const ReconnectPolicy& policy, std::uint64_t seed)
      : policy_(policy), rng_(seed), next_(policy.initial_backoff) {}

  Duration NextNap() {
    std::uniform_real_distribution<double> jitter(
        1.0, 1.0 + std::max(0.0, policy_.jitter));
    const auto nap =
        std::chrono::duration_cast<Duration>(next_ * jitter(rng_));
    next_ = std::min(next_ * 2, policy_.max_backoff);
    return nap;
  }

 private:
  ReconnectPolicy policy_;
  std::mt19937_64 rng_;
  Duration next_;
};

template <typename Codec>
class BasicClient {
 public:
  using GcNoticeHandler = std::function<void(const core::GcNotice&)>;

  // Kept as a nested alias: call sites say BasicClient<C>::ReconnectPolicy.
  using ReconnectPolicy = client::ReconnectPolicy;

  struct Options {
    transport::SockAddr server;       // the cluster listener
    std::string name = "end-device";
    std::int32_t preferred_as = -1;   // -1: listener picks
    ReconnectPolicy reconnect;
    // Extra listeners to try on reconnect (besides `server` and any
    // `sys/listener/` advertisements cached from the name server).
    std::vector<transport::SockAddr> alternate_servers;
    // Stamps every STM call with a sampled trace context (a fresh root
    // per call unless the calling thread already carries one). Off by
    // default: an untraced frame is byte-identical to the pre-trace
    // wire format. Session ops (Hello/Resume/Bye) are never stamped.
    bool trace_calls = false;
  };

  // Joins the computation: connects, sends Hello, learns the host AS.
  static Result<std::unique_ptr<BasicClient>> Join(const Options& options);

  ~BasicClient();
  BasicClient(const BasicClient&) = delete;
  BasicClient& operator=(const BasicClient&) = delete;

  AsId host_as() const { return host_as_; }
  std::uint64_t session_id() const { return session_id_; }

  // --- containers (created in the host AS, §4 step 2) --------------------
  Result<ChannelId> CreateChannel(const core::ChannelAttr& attr = {});
  Result<QueueId> CreateQueue(const core::QueueAttr& attr = {});

  // --- plumbing ----------------------------------------------------------
  Result<core::Connection> Connect(ChannelId ch, core::ConnMode mode,
                                   std::string label = {});
  Result<core::Connection> Connect(QueueId q, core::ConnMode mode,
                                   std::string label = {});
  Status Disconnect(const core::Connection& conn);

  // --- I/O ------------------------------------------------------------------
  Status Put(const core::Connection& conn, Timestamp ts, Buffer payload,
             Deadline deadline = Deadline::Infinite());
  Result<core::ItemView> Get(const core::Connection& conn, core::GetSpec spec,
                             Deadline deadline = Deadline::Infinite());
  Result<core::ItemView> Get(const core::Connection& conn,
                             Deadline deadline = Deadline::Infinite());
  Status Consume(const core::Connection& conn, Timestamp ts);
  Status ConsumeUntil(const core::Connection& conn, Timestamp ts);

  // Selective-attention filter on a channel input connection (§6
  // future work): e.g. a preview display that only wants every 5th
  // frame sets {.stride = 5} and never holds the rest back from GC.
  Status SetFilter(const core::Connection& conn,
                   const core::ItemFilter& filter);

  // --- introspection ------------------------------------------------------
  // Fetches the sys/metrics JSON snapshot of `target` (any address
  // space of the cluster; the request is forwarded over CLF when the
  // target is not the session's host).
  Result<std::string> MetricsSnapshot(AsId target);
  // Trace id stamped on the most recent traced call (0 when
  // trace_calls is off). Tests correlate this with server-side spans.
  std::uint64_t last_trace_id() const {
    ds::MutexLock lock(mu_);
    return last_trace_id_;
  }

  // --- name server ------------------------------------------------------------
  Status NsRegister(const core::NsEntry& entry);
  Status NsUnregister(const std::string& name);
  Result<core::NsEntry> NsLookup(const std::string& name,
                                 Deadline deadline = Deadline::Poll());
  Result<std::vector<core::NsEntry>> NsList(const std::string& prefix = "");

  // --- GC handler (§3.2.4) ------------------------------------------------
  // Registers interest in a container's reclamations; the handler runs
  // on this client when notices arrive piggybacked on later calls.
  Status SetGcHandler(std::uint64_t container_bits, bool is_queue,
                      GcNoticeHandler handler);

  // Clean departure (Bye). After this every call fails.
  Status Leave();

  std::uint64_t gc_notices_received() const {
    ds::MutexLock lock(handlers_mu_);
    return notices_received_;
  }
  // Session-resilience counters: successful Resume handshakes, and
  // calls that were re-sent after a reconnect.
  std::uint64_t reconnects() const {
    ds::MutexLock lock(mu_);
    return reconnects_;
  }
  std::uint64_t replays() const {
    ds::MutexLock lock(mu_);
    return replays_;
  }

  // Re-reads `sys/listener/` advertisements from the name server so a
  // later reconnect can fail over to listeners started since Join.
  // Called automatically on Join when reconnect is enabled, and after
  // every successful Resume (the topology that killed the old
  // connection has likely also changed the listener set).
  Status RefreshListenerCache();

 private:
  using Encoder = typename Codec::Encoder;
  using Decoder = typename Codec::Decoder;
  using BodyFn = std::function<void(Encoder&)>;

  BasicClient() = default;

  // Issues one request and parses its reply, as AddressSpace::Call and
  // core::DecodeReply do for peers: CallLocked exchanges the frame,
  // DecodeClientReply returns the failure, the reply's error status, or
  // what `read(dec)` decodes from its result fields. The reply's notices
  // (and those of any Resume reply on the way) are dispatched once mu_
  // is released: a handler may call back into the client.
  template <typename Read>
  std::invoke_result_t<Read&, typename Codec::Decoder&> Call(
      core::Op op, const BodyFn& body, Deadline deadline, Read read)
      DS_EXCLUDES(mu_);
  // Call's exchange, run under mu_: allocates the id, encodes the
  // request and sends it until the reply that carries its id arrives.
  // Transparently reconnects and replays per ReconnectPolicy; notices
  // from Resume replies land in `notices`.
  Result<SharedBuffer> CallLocked(core::Op op, const BodyFn& body,
                                  Deadline deadline,
                                  std::vector<core::GcNotice>& notices)
      DS_REQUIRES(mu_);
  // Encodes one request: the header, then the fields `body` writes.
  // With `stamp`, a thread that carries no sampled trace context gets a
  // fresh sampled root for the encode only, so the header carries it and
  // a GC handler run after the call does not inherit it.
  Buffer EncodeRequest(core::Op op, std::uint64_t id, const BodyFn& body,
                       bool stamp = false) DS_REQUIRES(mu_);
  static Status NoResult(Decoder&) { return OkStatus(); }

  // The channel and queue twins of the public calls.
  Result<std::uint64_t> CreateContainer(bool is_queue, std::uint64_t capacity,
                                        const std::string& debug_name);
  Result<core::Connection> ConnectTo(std::uint64_t bits, bool is_queue,
                                     core::ConnMode mode, std::string label);
  Status ConsumeAt(const core::Connection& conn, Timestamp ts, bool until);

  // Re-establishes the session after a transport failure. Holds mu_.
  Status ReconnectLocked(std::vector<core::GcNotice>& notices)
      DS_REQUIRES(mu_);
  Status TryResumeLocked(const transport::SockAddr& addr,
                         std::vector<core::GcNotice>& notices)
      DS_REQUIRES(mu_);
  std::vector<transport::SockAddr> ReconnectCandidatesLocked() const
      DS_REQUIRES(mu_);
  // RefreshListenerCache's body: one NsList exchange on the current
  // connection, no reconnect machinery (it runs *inside* the reconnect
  // loop). Notices from the reply's trailer land in `notices`.
  Status RefreshListenerCacheLocked(std::vector<core::GcNotice>& notices)
      DS_REQUIRES(mu_);
  std::uint64_t NextId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void DispatchNotices(const std::vector<core::GcNotice>& notices);

  // Serializes the session: held across the socket round trip (and the
  // reconnect/backoff loop) by design, hence blocking-allowed. Never
  // held while running a user GC handler.
  mutable ds::Mutex mu_{"client.mu", ds::Mutex::kBlockingAllowed};
  Options options_;  // immutable after Join
  transport::TcpConnection conn_ DS_GUARDED_BY(mu_);
  // host_as_/session_id_ are set during Join (single-threaded) and on
  // resume under mu_; the plain reads in the accessors match the
  // documented calls-are-serialized threading model.
  AsId host_as_ = kInvalidAsId;
  std::uint64_t session_id_ = 0;
  std::atomic<std::uint64_t> next_request_id_{1};
  std::uint64_t last_acked_id_ DS_GUARDED_BY(mu_) = 0;
  bool left_ DS_GUARDED_BY(mu_) = false;
  std::uint64_t reconnects_ DS_GUARDED_BY(mu_) = 0;
  std::uint64_t replays_ DS_GUARDED_BY(mu_) = 0;
  std::vector<transport::SockAddr> listener_cache_ DS_GUARDED_BY(mu_);
  std::mt19937_64 jitter_rng_ DS_GUARDED_BY(mu_){0x5D5742DEu};
  std::uint64_t last_trace_id_ DS_GUARDED_BY(mu_) = 0;

  // Leaf lock: guards the handler table and the notice counter; never
  // held while a handler runs.
  mutable ds::Mutex handlers_mu_{"client.handlers_mu"};
  std::unordered_map<std::uint64_t, GcNoticeHandler> gc_handlers_
      DS_GUARDED_BY(handlers_mu_);
  std::uint64_t notices_received_ DS_GUARDED_BY(handlers_mu_) = 0;
};

using CClient = BasicClient<CCodec>;

extern template class BasicClient<CCodec>;
extern template class BasicClient<JavaCodec>;

}  // namespace dstampede::client
