// Member definitions for BasicClient<Codec>. Included by client.cpp
// and java_client.cpp, which explicitly instantiate the C and Java
// personalities (client code includes client.hpp only).
#pragma once

#include <algorithm>
#include <optional>

#include "dstampede/client/client.hpp"

namespace dstampede::client {

namespace internal {
// One request/reply exchange on `conn`: sends `request`, then receives
// until the reply that carries `id`, a frame of its own that the result
// decoded from it may alias. A reply to an earlier call (one that timed
// out here but still ran on the surrogate) is skipped.
inline Result<SharedBuffer> Exchange(transport::TcpConnection& conn,
                                     const Buffer& request, std::uint64_t id,
                                     Deadline wait) {
  DS_RETURN_IF_ERROR(conn.SendFrame(request));
  Buffer reply;
  for (;;) {
    DS_RETURN_IF_ERROR(conn.RecvFrame(reply, wait));
    // Both codecs emit byte-identical octets, so the XDR decoder peeks
    // either personality's reply.
    marshal::XdrDecoder peek(reply);
    auto hdr = core::DecodeRequestHeader(peek);
    // Framing desync — unsafe to keep using this connection.
    if (!hdr.ok()) return ConnectionClosedError("malformed reply frame");
    if (hdr->request_id == id) return SharedBuffer(std::move(reply));
  }
}
}  // namespace internal

template <typename Codec>
Result<std::unique_ptr<BasicClient<Codec>>> BasicClient<Codec>::Join(
    const Options& options) {
  auto client = std::unique_ptr<BasicClient>(new BasicClient());
  client->options_ = options;
  {
    ds::MutexLock lock(client->mu_);
    DS_ASSIGN_OR_RETURN(client->conn_,
                        transport::TcpConnection::Connect(options.server));
  }

  HelloReq hello;
  hello.client_kind = Codec::kKind;
  hello.name = options.name;
  hello.preferred_as = options.preferred_as;
  BasicClient& c = *client;
  DS_RETURN_IF_ERROR(c.Call(
      static_cast<core::Op>(ClientOp::kHello), core::BodyOf(hello),
      Deadline::AfterMillis(10000), [&c](Decoder& dec) -> Status {
        DS_ASSIGN_OR_RETURN(std::uint32_t host, dec.GetU32());
        DS_ASSIGN_OR_RETURN(c.session_id_, dec.GetU64());
        c.host_as_ = static_cast<AsId>(host);
        return OkStatus();
      }));
  if (options.reconnect.enabled) {
    // Best effort: prime the failover-target cache. The session works
    // fine without it (the join address is always retried first).
    (void)client->RefreshListenerCache();
  }
  return client;
}

template <typename Codec>
BasicClient<Codec>::~BasicClient() {
  // Best effort clean leave; a vanished client parks its surrogate. The
  // handlers go first: what they capture may already be gone.
  {
    ds::MutexLock lock(handlers_mu_);
    gc_handlers_.clear();
  }
  (void)Leave();
}

template <typename Codec>
template <typename Read>
std::invoke_result_t<Read&, typename Codec::Decoder&> BasicClient<Codec>::Call(
    core::Op op, const BodyFn& body, Deadline deadline, Read read) {
  std::vector<core::GcNotice> notices;
  const Result<SharedBuffer> reply = [&]() -> Result<SharedBuffer> {
    ds::MutexLock lock(mu_);
    return CallLocked(op, body, deadline, notices);
  }();
  auto result = DecodeClientReply<Decoder>(reply, read, notices);
  DispatchNotices(notices);
  return result;
}

template <typename Codec>
Result<SharedBuffer> BasicClient<Codec>::CallLocked(
    core::Op op, const BodyFn& body, Deadline deadline,
    std::vector<core::GcNotice>& notices) {
  const Deadline wait =
      deadline.infinite()
          ? deadline
          : Deadline::After(deadline.remaining() + Millis(5000));
  if (left_) return ConnectionClosedError("client left the computation");
  // Session ops (Hello, Bye, SetGcInterest) are never stamped and never
  // replayed: retrying a teardown (or a handshake) through a reconnect
  // would deadlock or fork the session.
  const bool stm_op = static_cast<std::uint32_t>(op) <
                      static_cast<std::uint32_t>(ClientOp::kHello);
  const std::uint64_t id = NextId();
  const Buffer request =
      EncodeRequest(op, id, body, options_.trace_calls && stm_op);

  for (std::uint32_t attempt = 0;; ++attempt) {
    if (attempt > 0) ++replays_;
    Result<SharedBuffer> reply = internal::Exchange(conn_, request, id, wait);
    if (reply.ok()) {
      last_acked_id_ = id;
      return reply;
    }
    // Retry only when the transport is gone; a kTimeout from a live
    // surrogate (e.g. a blocking Get that ran out of time) must surface
    // as-is — replaying it could block for another full deadline.
    const StatusCode code = reply.status().code();
    const bool transport_lost = code == StatusCode::kConnectionClosed ||
                                code == StatusCode::kUnavailable ||
                                code == StatusCode::kInternal;
    if (!options_.reconnect.enabled || !stm_op || !transport_lost) {
      return reply;
    }
    DS_RETURN_IF_ERROR(ReconnectLocked(notices));
  }
}

template <typename Codec>
Buffer BasicClient<Codec>::EncodeRequest(core::Op op, std::uint64_t id,
                                         const BodyFn& body, bool stamp) {
  std::optional<trace::ScopedContext> root;
  if (stamp && !trace::CurrentContext().sampled()) {
    root.emplace(trace::TraceContext{trace::NewId(), trace::NewId(),
                                     trace::TraceContext::kSampled});
    last_trace_id_ = trace::CurrentContext().trace_id;
  }
  Encoder enc;
  core::EncodeRequestHeader(enc, op, id);
  if (body) body(enc);
  return enc.Take();
}

template <typename Codec>
Status BasicClient<Codec>::ReconnectLocked(
    std::vector<core::GcNotice>& notices) {
  conn_.Close();
  const ReconnectPolicy& policy = options_.reconnect;
  const Deadline give_up = Deadline::After(policy.give_up_after);
  // The shared ReconnectBackoff helper *is* the production schedule
  // (the sim's reconnect-storm scenario instantiates it directly);
  // seeding it from jitter_rng_ keeps this client's nap sequence
  // deterministic per session.
  ReconnectBackoff backoff(policy, jitter_rng_());
  Status last = UnavailableError("no reconnect candidates");
  for (;;) {
    for (const auto& addr : ReconnectCandidatesLocked()) {
      Status s = TryResumeLocked(addr, notices);
      if (s.ok()) {
        ++reconnects_;
        // Re-resolve the failover targets through the surviving name
        // service: whatever killed the old connection (host death, a
        // migrated listener) has likely also changed the advertised
        // set, and the copy cached at Join would go stale forever.
        (void)RefreshListenerCacheLocked(notices);
        return OkStatus();
      }
      if (s.code() == StatusCode::kNotFound) {
        // The cluster says this session no longer exists (reaped or
        // left); no listener can bring it back, so stop trying.
        left_ = true;
        return ConnectionClosedError("session lost: " + s.message());
      }
      last = s;
    }
    if (give_up.expired()) {
      return UnavailableError("reconnect gave up: " + last.message());
    }
    dstampede::SleepFor(backoff.NextNap());
  }
}

template <typename Codec>
Status BasicClient<Codec>::TryResumeLocked(
    const transport::SockAddr& addr, std::vector<core::GcNotice>& notices) {
  DS_ASSIGN_OR_RETURN(
      transport::TcpConnection connected,
      transport::TcpConnection::Connect(addr, Deadline::AfterMillis(1000)));
  ResumeReq req;
  req.client_kind = Codec::kKind;
  req.session_id = session_id_;
  req.last_acked_ticket = last_acked_id_;
  req.preferred_as = options_.preferred_as;
  const std::uint64_t id = NextId();
  const Buffer request = EncodeRequest(
      static_cast<core::Op>(ClientOp::kResume), id, core::BodyOf(req));
  DS_ASSIGN_OR_RETURN(
      ResumeResp resp,
      DecodeClientReply<Decoder>(
          internal::Exchange(connected, request, id,
                             Deadline::AfterMillis(2000)),
          core::Decode<ResumeResp, Decoder>, notices));
  conn_ = std::move(connected);
  host_as_ = static_cast<AsId>(resp.host_as);
  return OkStatus();
}

template <typename Codec>
std::vector<transport::SockAddr>
BasicClient<Codec>::ReconnectCandidatesLocked() const {
  std::vector<transport::SockAddr> out;
  auto add = [&out](const transport::SockAddr& addr) {
    if (addr.port == 0) return;
    for (const auto& seen : out) {
      if (seen == addr) return;
    }
    out.push_back(addr);
  };
  add(options_.server);
  for (const auto& addr : options_.alternate_servers) add(addr);
  for (const auto& addr : listener_cache_) add(addr);
  return out;
}

template <typename Codec>
Status BasicClient<Codec>::RefreshListenerCache() {
  std::vector<core::GcNotice> notices;
  Status s = [&] {
    ds::MutexLock lock(mu_);
    return RefreshListenerCacheLocked(notices);
  }();
  DispatchNotices(notices);
  return s;
}

template <typename Codec>
Status BasicClient<Codec>::RefreshListenerCacheLocked(
    std::vector<core::GcNotice>& notices) {
  core::NsLookupReq req;
  req.name = "sys/listener/";
  // Request id 0 = untracked read: this refresh may run between a
  // resume and the replay of the in-flight call, and a real ticket
  // would evict the surrogate's cached reply that the replay needs.
  const Buffer request =
      EncodeRequest(core::Op::kNsList, 0, core::BodyOf(req));
  DS_ASSIGN_OR_RETURN(
      std::vector<core::NsEntry> entries,
      DecodeClientReply<Decoder>(
          internal::Exchange(conn_, request, 0, Deadline::AfterMillis(2000)),
          core::Decode<std::vector<core::NsEntry>, Decoder>, notices));
  std::vector<transport::SockAddr> fresh;
  fresh.reserve(entries.size());
  for (const core::NsEntry& entry : entries) {
    // The listener advertises its full address in the entry's meta;
    // entries without one (foreign registrations under the prefix)
    // fall back to loopback plus the port carried in id_bits.
    auto addr = transport::SockAddr::FromString(entry.meta);
    if (addr.ok() && addr->ip_host_order != 0 && addr->port != 0) {
      fresh.push_back(*addr);
    } else {
      fresh.push_back(transport::SockAddr::Loopback(
          static_cast<std::uint16_t>(entry.id_bits)));
    }
  }
  listener_cache_ = std::move(fresh);
  return OkStatus();
}

template <typename Codec>
void BasicClient<Codec>::DispatchNotices(
    const std::vector<core::GcNotice>& notices) {
  if (notices.empty()) return;
  std::vector<std::pair<GcNoticeHandler, core::GcNotice>> to_run;
  {
    ds::MutexLock lock(handlers_mu_);
    notices_received_ += notices.size();
    for (const auto& notice : notices) {
      auto it = gc_handlers_.find(notice.container_bits);
      if (it != gc_handlers_.end()) to_run.emplace_back(it->second, notice);
    }
  }
  for (auto& [handler, notice] : to_run) handler(notice);
}

template <typename Codec>
Result<ChannelId> BasicClient<Codec>::CreateChannel(
    const core::ChannelAttr& attr) {
  DS_ASSIGN_OR_RETURN(std::uint64_t bits,
                      CreateContainer(/*is_queue=*/false, attr.capacity_items,
                                      attr.debug_name));
  return ChannelId::FromBits(bits);
}

template <typename Codec>
Result<QueueId> BasicClient<Codec>::CreateQueue(const core::QueueAttr& attr) {
  DS_ASSIGN_OR_RETURN(std::uint64_t bits,
                      CreateContainer(/*is_queue=*/true, attr.capacity_items,
                                      attr.debug_name));
  return QueueId::FromBits(bits);
}

template <typename Codec>
Result<std::uint64_t> BasicClient<Codec>::CreateContainer(
    bool is_queue, std::uint64_t capacity, const std::string& debug_name) {
  core::CreateReq req;
  req.capacity = capacity;
  req.debug_name = debug_name;
  return Call(is_queue ? core::Op::kCreateQueue : core::Op::kCreateChannel,
              core::BodyOf(req), Deadline::AfterMillis(10000),
              [](Decoder& dec) { return dec.GetU64(); });
}

template <typename Codec>
Result<core::Connection> BasicClient<Codec>::Connect(ChannelId ch,
                                                     core::ConnMode mode,
                                                     std::string label) {
  return ConnectTo(ch.bits(), /*is_queue=*/false, mode, std::move(label));
}

template <typename Codec>
Result<core::Connection> BasicClient<Codec>::Connect(QueueId q,
                                                     core::ConnMode mode,
                                                     std::string label) {
  return ConnectTo(q.bits(), /*is_queue=*/true, mode, std::move(label));
}

template <typename Codec>
Result<core::Connection> BasicClient<Codec>::ConnectTo(std::uint64_t bits,
                                                       bool is_queue,
                                                       core::ConnMode mode,
                                                       std::string label) {
  if (label.empty()) label = "device-session-" + std::to_string(session_id_);
  core::AttachReq req;
  req.container_bits = bits;
  req.is_queue = is_queue;
  req.mode = mode;
  req.label = std::move(label);
  DS_ASSIGN_OR_RETURN(std::uint32_t slot,
                      Call(core::Op::kAttach, core::BodyOf(req),
                           Deadline::AfterMillis(10000),
                           [](Decoder& dec) { return dec.GetU32(); }));
  // Channel and queue ids share one layout, owner included.
  return core::Connection(bits, is_queue, mode,
                          ChannelId::FromBits(bits).owner(), slot);
}

template <typename Codec>
Status BasicClient<Codec>::Disconnect(const core::Connection& conn) {
  core::DetachReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.slot = conn.slot();
  return Call(core::Op::kDetach, core::BodyOf(req),
              Deadline::AfterMillis(10000), NoResult);
}

template <typename Codec>
Status BasicClient<Codec>::Put(const core::Connection& conn, Timestamp ts,
                               Buffer payload, Deadline deadline) {
  if (!CanOutput(conn.mode())) {
    return PermissionDeniedError("connection is input-only");
  }
  core::PutReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.deadline_ms = core::EncodeDeadline(deadline);
  req.payload = SharedBuffer(std::move(payload));
  return Call(core::Op::kPut, core::BodyOf(req), deadline, NoResult);
}

template <typename Codec>
Result<core::ItemView> BasicClient<Codec>::Get(const core::Connection& conn,
                                               core::GetSpec spec,
                                               Deadline deadline) {
  core::GetReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.spec = spec;
  req.deadline_ms = core::EncodeDeadline(deadline);
  return Call(core::Op::kGet, core::BodyOf(req),
              deadline, core::Decode<core::ItemView, Decoder>);
}

template <typename Codec>
Result<core::ItemView> BasicClient<Codec>::Get(const core::Connection& conn,
                                               Deadline deadline) {
  return Get(conn, core::GetSpec::Oldest(), deadline);
}

template <typename Codec>
Status BasicClient<Codec>::Consume(const core::Connection& conn, Timestamp ts) {
  return ConsumeAt(conn, ts, /*until=*/false);
}

template <typename Codec>
Status BasicClient<Codec>::ConsumeUntil(const core::Connection& conn,
                                        Timestamp ts) {
  return ConsumeAt(conn, ts, /*until=*/true);
}

template <typename Codec>
Status BasicClient<Codec>::ConsumeAt(const core::Connection& conn,
                                     Timestamp ts, bool until) {
  if (until && conn.is_queue()) {
    return InvalidArgumentError("consume-until is channel-only");
  }
  core::ConsumeReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.until = until;
  return Call(core::Op::kConsume, core::BodyOf(req),
              Deadline::AfterMillis(10000), NoResult);
}

template <typename Codec>
Status BasicClient<Codec>::SetFilter(const core::Connection& conn,
                                     const core::ItemFilter& filter) {
  if (conn.is_queue()) return InvalidArgumentError("filters apply to channels");
  core::SetFilterReq req;
  req.container_bits = conn.container_bits();
  req.slot = conn.slot();
  req.filter = filter;
  return Call(core::Op::kSetFilter, core::BodyOf(req),
              Deadline::AfterMillis(10000), NoResult);
}

template <typename Codec>
Status BasicClient<Codec>::NsRegister(const core::NsEntry& entry) {
  return Call(core::Op::kNsRegister, core::BodyOf(entry),
              Deadline::AfterMillis(10000), NoResult);
}

template <typename Codec>
Status BasicClient<Codec>::NsUnregister(const std::string& name) {
  core::NsLookupReq req;
  req.name = name;
  return Call(core::Op::kNsUnregister, core::BodyOf(req),
              Deadline::AfterMillis(10000), NoResult);
}

template <typename Codec>
Result<core::NsEntry> BasicClient<Codec>::NsLookup(const std::string& name,
                                                   Deadline deadline) {
  core::NsLookupReq req;
  req.name = name;
  req.deadline_ms = core::EncodeDeadline(deadline);
  return Call(core::Op::kNsLookup, core::BodyOf(req),
              deadline, core::Decode<core::NsEntry, Decoder>);
}

template <typename Codec>
Result<std::vector<core::NsEntry>> BasicClient<Codec>::NsList(
    const std::string& prefix) {
  core::NsLookupReq req;
  req.name = prefix;
  return Call(core::Op::kNsList, core::BodyOf(req),
              Deadline::AfterMillis(10000),
              core::Decode<std::vector<core::NsEntry>, Decoder>);
}

template <typename Codec>
Result<std::string> BasicClient<Codec>::MetricsSnapshot(AsId target) {
  core::MetricsReq req;
  req.target_as = AsIndex(target);
  return Call(core::Op::kMetrics, core::BodyOf(req),
              Deadline::AfterMillis(10000),
              [](Decoder& dec) { return dec.GetString(); });
}

template <typename Codec>
Status BasicClient<Codec>::SetGcHandler(std::uint64_t container_bits,
                                        bool is_queue,
                                        GcNoticeHandler handler) {
  SetGcInterestReq req;
  req.container_bits = container_bits;
  req.is_queue = is_queue;
  req.enable = handler != nullptr;
  DS_RETURN_IF_ERROR(Call(static_cast<core::Op>(ClientOp::kSetGcInterest),
                          core::BodyOf(req), Deadline::AfterMillis(10000),
                          NoResult));
  ds::MutexLock lock(handlers_mu_);
  if (handler) {
    gc_handlers_[container_bits] = std::move(handler);
  } else {
    gc_handlers_.erase(container_bits);
  }
  return OkStatus();
}

template <typename Codec>
Status BasicClient<Codec>::Leave() {
  {
    ds::MutexLock lock(mu_);
    if (left_ || !conn_.valid()) return OkStatus();
  }
  const Status bye = Call(static_cast<core::Op>(ClientOp::kBye), nullptr,
                          Deadline::AfterMillis(5000), NoResult);
  ds::MutexLock lock(mu_);
  left_ = true;
  conn_.Close();
  return bye;
}

}  // namespace dstampede::client
