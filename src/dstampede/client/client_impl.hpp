// Member definitions for BasicClient<Codec>. Included by client.cpp
// and java_client.cpp, which explicitly instantiate the C and Java
// personalities (client code includes client.hpp only).
#pragma once

#include <algorithm>
#include <thread>

#include "dstampede/client/client.hpp"

namespace dstampede::client {

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

  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kHello),
                            client->NextId());
  HelloReq hello;
  hello.client_kind = Codec::kKind;
  hello.name = options.name;
  hello.preferred_as = options.preferred_as;
  hello.Encode(enc);

  DS_ASSIGN_OR_RETURN(
      ParsedReply parsed,
      client->CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) return parsed.status;
  DS_ASSIGN_OR_RETURN(std::uint32_t host, dec.GetU32());
  DS_ASSIGN_OR_RETURN(client->session_id_, dec.GetU64());
  client->host_as_ = static_cast<AsId>(host);
  DS_ASSIGN_OR_RETURN(auto notices, DecodeNoticeTrailerT(dec));
  client->DispatchNotices(notices);
  if (options.reconnect.enabled) {
    // Best effort: prime the failover-target cache. The session works
    // fine without it (the join address is always retried first).
    (void)client->RefreshListenerCache();
  }
  return client;
}

template <typename Codec>
BasicClient<Codec>::~BasicClient() {
  // Best effort clean leave; a vanished client parks its surrogate.
  (void)Leave();
}

template <typename Codec>
Result<Buffer> BasicClient<Codec>::Call(Buffer request, Deadline deadline) {
  std::vector<core::GcNotice> deferred;
  Result<Buffer> reply = [&]() -> Result<Buffer> {
    ds::MutexLock lock(mu_);
    return CallLocked(std::move(request), deadline, deferred);
  }();
  // Notices from Resume replies run only now, with mu_ released, so a
  // handler that re-enters the client cannot deadlock.
  DispatchNotices(deferred);
  return reply;
}

template <typename Codec>
Result<Buffer> BasicClient<Codec>::CallLocked(
    Buffer request, Deadline deadline, std::vector<core::GcNotice>& deferred) {
  const Deadline wait =
      deadline.infinite()
          ? deadline
          : Deadline::After(deadline.remaining() + Millis(5000));
  if (left_) return ConnectionClosedError("client left the computation");
  ++calls_made_;

  // Peek the request's op and per-call ticket. Both codecs emit
  // byte-identical octets, so the XDR decoder reads either personality.
  marshal::XdrDecoder peek(request);
  auto hdr = core::DecodeRequestHeader(peek);
  const std::uint64_t call_id = hdr.ok() ? hdr->request_id : 0;
  const bool session_op =
      hdr.ok() && static_cast<std::uint32_t>(hdr->op) >=
                      static_cast<std::uint32_t>(ClientOp::kHello);
  // Hello/Bye/Resume are never replayed: retrying a teardown (or a
  // handshake) through a reconnect would deadlock or fork the session.
  const bool can_retry = options_.reconnect.enabled && hdr.ok() && !session_op;

  if (options_.trace_calls && hdr.ok() && !session_op &&
      !hdr->trace.sampled()) {
    // Splice a trace context into the already-encoded frame: rebuild
    // the 12-byte [op][request_id] header with kTraceFlag set, insert
    // the context, keep the op fields verbatim. Both codecs emit
    // byte-identical octets, so an XDR splice serves either
    // personality.
    trace::TraceContext ctx = trace::CurrentContext();
    if (!ctx.sampled()) {
      ctx = trace::TraceContext{trace::NewId(), trace::NewId(),
                                trace::TraceContext::kSampled};
    }
    marshal::XdrEncoder spliced;
    spliced.PutU32(static_cast<std::uint32_t>(hdr->op) | core::kTraceFlag);
    spliced.PutU64(hdr->request_id);
    spliced.PutU64(ctx.trace_id);
    spliced.PutU64(ctx.span_id);
    spliced.PutU32(ctx.flags);
    Buffer traced = spliced.Take();
    traced.insert(traced.end(), request.begin() + 12, request.end());
    request = std::move(traced);
    last_trace_id_ = ctx.trace_id;
  }

  for (std::uint32_t attempt = 0;; ++attempt) {
    if (attempt > 0) ++replays_;
    Status s = conn_.SendFrame(request);
    Buffer reply;
    if (s.ok()) {
      for (;;) {
        s = conn_.RecvFrame(reply, wait);
        if (!s.ok()) break;
        marshal::XdrDecoder rpeek(reply);
        auto rhdr = core::DecodeRequestHeader(rpeek);
        if (!rhdr.ok()) {
          // Framing desync — unsafe to keep using this connection.
          s = ConnectionClosedError("malformed reply frame");
          break;
        }
        // A reply to an earlier ticket can arrive if a previous call
        // timed out client-side but executed server-side; skip it.
        if (call_id != 0 && rhdr->request_id != call_id) continue;
        break;
      }
    }
    if (s.ok()) {
      last_acked_id_ = call_id;
      return reply;
    }
    // Retry only when the transport is gone; a kTimeout from a live
    // surrogate (e.g. a blocking Get that ran out of time) must surface
    // as-is — replaying it could block for another full deadline.
    const bool transport_lost = s.code() == StatusCode::kConnectionClosed ||
                                s.code() == StatusCode::kUnavailable ||
                                s.code() == StatusCode::kInternal;
    if (!can_retry || !transport_lost) return s;
    DS_RETURN_IF_ERROR(ReconnectLocked(deferred));
  }
}

template <typename Codec>
Status BasicClient<Codec>::ReconnectLocked(
    std::vector<core::GcNotice>& deferred) {
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
      Status s = TryResumeLocked(addr, deferred);
      if (s.ok()) {
        ++reconnects_;
        // Re-resolve the failover targets through the surviving name
        // service: whatever killed the old connection (host death, a
        // migrated listener) has likely also changed the advertised
        // set, and the copy cached at Join would go stale forever.
        (void)RefreshListenerCacheLocked(deferred);
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
    const transport::SockAddr& addr, std::vector<core::GcNotice>& deferred) {
  auto connected =
      transport::TcpConnection::Connect(addr, Deadline::AfterMillis(1000));
  if (!connected.ok()) return connected.status();

  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kResume),
                            NextId());
  ResumeReq req;
  req.client_kind = Codec::kKind;
  req.session_id = session_id_;
  req.last_acked_ticket = last_acked_id_;
  req.preferred_as = options_.preferred_as;
  req.Encode(enc);
  DS_RETURN_IF_ERROR(connected->SendFrame(enc.Take()));
  Buffer reply;
  DS_RETURN_IF_ERROR(connected->RecvFrame(reply, Deadline::AfterMillis(2000)));

  typename Codec::Decoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeaderT(dec));
  if (!hdr.status.ok()) return hdr.status;
  DS_ASSIGN_OR_RETURN(ResumeResp resp, DecodeResumeRespT(dec));
  auto notices = DecodeNoticeTrailerT(dec);

  conn_ = std::move(connected).value();
  host_as_ = static_cast<AsId>(resp.host_as);
  // Deferred to Call's post-unlock dispatch: a handler may re-enter the
  // client, which would deadlock on the non-recursive mu_ held here.
  if (notices.ok()) {
    deferred.insert(deferred.end(), notices->begin(), notices->end());
  }
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
  std::vector<core::GcNotice> deferred;
  Status s = [&] {
    ds::MutexLock lock(mu_);
    return RefreshListenerCacheLocked(deferred);
  }();
  DispatchNotices(deferred);
  return s;
}

template <typename Codec>
Status BasicClient<Codec>::RefreshListenerCacheLocked(
    std::vector<core::GcNotice>& deferred) {
  typename Codec::Encoder enc;
  // Request id 0 = untracked read: this refresh may run between a
  // resume and the replay of the in-flight call, and a real ticket
  // would evict the surrogate's cached reply that the replay needs.
  core::EncodeRequestHeader(enc, core::Op::kNsList, 0);
  core::NsLookupReq req;
  req.name = "sys/listener/";
  req.Encode(enc);
  DS_RETURN_IF_ERROR(conn_.SendFrame(enc.Take()));
  Buffer reply;
  DS_RETURN_IF_ERROR(conn_.RecvFrame(reply, Deadline::AfterMillis(2000)));
  typename Codec::Decoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeaderT(dec));
  if (!hdr.status.ok()) return hdr.status;
  DS_ASSIGN_OR_RETURN(std::uint32_t count,
                      dec.GetCount(core::kMinNsEntryBytes));
  std::vector<transport::SockAddr> fresh;
  fresh.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(core::NsEntry entry, DecodeNsEntryT(dec));
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
  auto notices = DecodeNoticeTrailerT(dec);
  if (notices.ok()) {
    deferred.insert(deferred.end(), notices->begin(), notices->end());
  }
  listener_cache_ = std::move(fresh);
  return OkStatus();
}

template <typename Codec>
Result<typename BasicClient<Codec>::ParsedReply>
BasicClient<Codec>::CallAndParse(Buffer request, Deadline deadline) {
  DS_ASSIGN_OR_RETURN(Buffer frame, Call(std::move(request), deadline));
  typename Codec::Decoder dec(frame);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeaderT(dec));
  ParsedReply parsed;
  parsed.status = hdr.status;
  parsed.payload_offset = frame.size() - dec.remaining();
  parsed.frame = std::move(frame);
  return parsed;
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

namespace internal {
// Parses the gc-notice trailer and hands the notices back; every reply
// parse must end with this so no reclamation information is dropped.
template <typename Dec>
Result<std::vector<core::GcNotice>> TakeTrailer(Dec& dec) {
  return DecodeNoticeTrailerT(dec);
}
}  // namespace internal

#define DS_CLIENT_FINISH(dec)                                  \
  do {                                                         \
    auto ds_trailer_ = internal::TakeTrailer(dec);             \
    if (ds_trailer_.ok()) DispatchNotices(*ds_trailer_);       \
  } while (false)

template <typename Codec>
Result<ChannelId> BasicClient<Codec>::CreateChannel(
    const core::ChannelAttr& attr) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kCreateChannel, NextId());
  core::CreateReq req;
  req.capacity = attr.capacity_items;
  req.debug_name = attr.debug_name;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  DS_ASSIGN_OR_RETURN(std::uint64_t bits, dec.GetU64());
  DS_CLIENT_FINISH(dec);
  return ChannelId::FromBits(bits);
}

template <typename Codec>
Result<QueueId> BasicClient<Codec>::CreateQueue(const core::QueueAttr& attr) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kCreateQueue, NextId());
  core::CreateReq req;
  req.capacity = attr.capacity_items;
  req.debug_name = attr.debug_name;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  DS_ASSIGN_OR_RETURN(std::uint64_t bits, dec.GetU64());
  DS_CLIENT_FINISH(dec);
  return QueueId::FromBits(bits);
}

template <typename Codec>
Result<core::Connection> BasicClient<Codec>::Connect(ChannelId ch,
                                                     core::ConnMode mode,
                                                     std::string label) {
  if (label.empty()) label = "device-session-" + std::to_string(session_id_);
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kAttach, NextId());
  core::AttachReq req;
  req.container_bits = ch.bits();
  req.is_queue = false;
  req.mode = mode;
  req.label = std::move(label);
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  DS_ASSIGN_OR_RETURN(std::uint32_t slot, dec.GetU32());
  DS_CLIENT_FINISH(dec);
  return core::Connection(ch.bits(), false, mode, ch.owner(), slot);
}

template <typename Codec>
Result<core::Connection> BasicClient<Codec>::Connect(QueueId q,
                                                     core::ConnMode mode,
                                                     std::string label) {
  if (label.empty()) label = "device-session-" + std::to_string(session_id_);
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kAttach, NextId());
  core::AttachReq req;
  req.container_bits = q.bits();
  req.is_queue = true;
  req.mode = mode;
  req.label = std::move(label);
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  DS_ASSIGN_OR_RETURN(std::uint32_t slot, dec.GetU32());
  DS_CLIENT_FINISH(dec);
  return core::Connection(q.bits(), true, mode, q.owner(), slot);
}

template <typename Codec>
Status BasicClient<Codec>::Disconnect(const core::Connection& conn) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kDetach, NextId());
  core::DetachReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.slot = conn.slot();
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  return parsed.status;
}

template <typename Codec>
Status BasicClient<Codec>::Put(const core::Connection& conn, Timestamp ts,
                               Buffer payload, Deadline deadline) {
  if (!CanOutput(conn.mode())) {
    return PermissionDeniedError("connection is input-only");
  }
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kPut, NextId());
  core::PutReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.deadline_ms = core::EncodeDeadline(deadline);
  req.payload = std::move(payload);
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), deadline));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  return parsed.status;
}

template <typename Codec>
Result<core::ItemView> BasicClient<Codec>::Get(const core::Connection& conn,
                                               core::GetSpec spec,
                                               Deadline deadline) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kGet, NextId());
  core::GetReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.spec = spec;
  req.deadline_ms = core::EncodeDeadline(deadline);
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), deadline));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  core::ItemView view;
  DS_ASSIGN_OR_RETURN(view.timestamp, dec.GetI64());
  DS_ASSIGN_OR_RETURN(Buffer payload, dec.GetOpaque());
  view.payload = SharedBuffer(std::move(payload));
  DS_CLIENT_FINISH(dec);
  return view;
}

template <typename Codec>
Result<core::ItemView> BasicClient<Codec>::Get(const core::Connection& conn,
                                               Deadline deadline) {
  return Get(conn, core::GetSpec::Oldest(), deadline);
}

template <typename Codec>
Status BasicClient<Codec>::Consume(const core::Connection& conn, Timestamp ts) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kConsume, NextId());
  core::ConsumeReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.until = false;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  return parsed.status;
}

template <typename Codec>
Status BasicClient<Codec>::ConsumeUntil(const core::Connection& conn,
                                        Timestamp ts) {
  if (conn.is_queue()) {
    return InvalidArgumentError("consume-until is channel-only");
  }
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kConsume, NextId());
  core::ConsumeReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = false;
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.until = true;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  return parsed.status;
}

template <typename Codec>
Status BasicClient<Codec>::SetFilter(const core::Connection& conn,
                                     const core::ItemFilter& filter) {
  if (conn.is_queue()) return InvalidArgumentError("filters apply to channels");
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kSetFilter, NextId());
  core::SetFilterReq req;
  req.container_bits = conn.container_bits();
  req.slot = conn.slot();
  req.filter = filter;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  return parsed.status;
}

template <typename Codec>
Status BasicClient<Codec>::NsRegister(const core::NsEntry& entry) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kNsRegister, NextId());
  core::EncodeNsEntry(enc, entry);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  return parsed.status;
}

template <typename Codec>
Status BasicClient<Codec>::NsUnregister(const std::string& name) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kNsUnregister, NextId());
  core::NsLookupReq req;
  req.name = name;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  return parsed.status;
}

template <typename Codec>
Result<core::NsEntry> BasicClient<Codec>::NsLookup(const std::string& name,
                                                   Deadline deadline) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kNsLookup, NextId());
  core::NsLookupReq req;
  req.name = name;
  req.deadline_ms = core::EncodeDeadline(deadline);
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed, CallAndParse(enc.Take(), deadline));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  DS_ASSIGN_OR_RETURN(core::NsEntry entry, DecodeNsEntryT(dec));
  DS_CLIENT_FINISH(dec);
  return entry;
}

template <typename Codec>
Result<std::vector<core::NsEntry>> BasicClient<Codec>::NsList(
    const std::string& prefix) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kNsList, NextId());
  core::NsLookupReq req;
  req.name = prefix;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  DS_ASSIGN_OR_RETURN(std::uint32_t count,
                      dec.GetCount(core::kMinNsEntryBytes));
  std::vector<core::NsEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(core::NsEntry entry, DecodeNsEntryT(dec));
    out.push_back(std::move(entry));
  }
  DS_CLIENT_FINISH(dec);
  return out;
}

template <typename Codec>
Result<std::string> BasicClient<Codec>::MetricsSnapshot(AsId target) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, core::Op::kMetrics, NextId());
  core::MetricsReq req;
  req.target_as = AsIndex(target);
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  if (!parsed.status.ok()) {
    DS_CLIENT_FINISH(dec);
    return parsed.status;
  }
  DS_ASSIGN_OR_RETURN(std::string snapshot, dec.GetString());
  DS_CLIENT_FINISH(dec);
  return snapshot;
}

template <typename Codec>
Status BasicClient<Codec>::SetGcHandler(std::uint64_t container_bits,
                                        bool is_queue,
                                        GcNoticeHandler handler) {
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(
      enc, static_cast<core::Op>(ClientOp::kSetGcInterest), NextId());
  SetGcInterestReq req;
  req.container_bits = container_bits;
  req.is_queue = is_queue;
  req.enable = handler != nullptr;
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(ParsedReply parsed,
                      CallAndParse(enc.Take(), Deadline::AfterMillis(10000)));
  typename Codec::Decoder dec(std::span<const std::uint8_t>(parsed.frame)
                                  .subspan(parsed.payload_offset));
  DS_CLIENT_FINISH(dec);
  if (parsed.status.ok()) {
    ds::MutexLock lock(handlers_mu_);
    if (handler) {
      gc_handlers_[container_bits] = std::move(handler);
    } else {
      gc_handlers_.erase(container_bits);
    }
  }
  return parsed.status;
}

template <typename Codec>
Status BasicClient<Codec>::Leave() {
  {
    ds::MutexLock lock(mu_);
    if (left_ || !conn_.valid()) return OkStatus();
  }
  typename Codec::Encoder enc;
  core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kBye),
                            NextId());
  auto parsed = CallAndParse(enc.Take(), Deadline::AfterMillis(5000));
  ds::MutexLock lock(mu_);
  left_ = true;
  conn_.Close();
  return parsed.ok() ? parsed->status : parsed.status();
}

#undef DS_CLIENT_FINISH

}  // namespace dstampede::client
