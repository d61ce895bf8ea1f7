#include "dstampede/client/surrogate.hpp"

#include <algorithm>

#include "dstampede/common/logging.hpp"

namespace dstampede::client {

namespace {

bool IsStmOp(core::Op op) {
  return static_cast<std::uint32_t>(op) < 100;
}

// Ops whose effects must not run twice. Their replies carry no payload,
// so an already-executed replay can be answered with a synthesized OK.
bool IsIdempotentSynthOp(core::Op op) {
  switch (op) {
    case core::Op::kPut:
    case core::Op::kConsume:
    case core::Op::kDetach:
    case core::Op::kSetFilter:
    case core::Op::kNsRegister:
    case core::Op::kNsUnregister:
      return true;
    default:
      return false;
  }
}

AsId OwnerOf(std::uint64_t container_bits) {
  return ChannelId::FromBits(container_bits).owner();
}

// Decodes a slot-addressed request's fields through its slot (never
// its payload) into `ref`, which takes what was read even when a later
// field fails.
template <class Req, class SlotRef>
Status ReadSlot(marshal::XdrDecoder& body, std::size_t frame_size,
                SlotRef& ref) {
  Req req;
  const Status status = core::DecodeFields(body, req, &Req::slot);
  ref.container_bits = req.container_bits;
  if constexpr (requires { req.is_queue; }) ref.is_queue = req.is_queue;
  if constexpr (requires { req.mode; }) ref.mode = req.mode;
  DS_RETURN_IF_ERROR(status);
  ref.slot = req.slot;
  // The slot is the last word read.
  ref.offset = frame_size - body.remaining() -
               core::MinWireBytes<decltype(req.slot)>();
  return OkStatus();
}

}  // namespace

Surrogate::Surrogate(std::uint64_t session_id, core::AddressSpace& host,
                     transport::TcpConnection conn,
                     clf::FaultInjector* edge_faults)
    : session_id_(session_id),
      host_(host),
      conn_(std::move(conn)),
      edge_faults_(edge_faults) {
  m_replay_hits_ = &host_.metrics_registry().GetCounter(
      "surrogate.replay_cache_hits");
  m_calls_ = &host_.metrics_registry().GetCounter("surrogate.calls");
  m_redo_journaled_ =
      &host_.metrics_registry().GetCounter("surrogate.redo_journaled");
  m_redo_replayed_ =
      &host_.metrics_registry().GetCounter("surrogate.redo_replayed");
  gc_sink_token_ = host_.gc().AddSink(
      [this](const std::vector<core::GcNotice>& batch) {
        ds::MutexLock lock(gc_mu_);
        for (const auto& notice : batch) {
          if (gc_interest_.count(notice.container_bits) == 0) continue;
          if (gc_pending_.size() >= kMaxPendingNotices) gc_pending_.pop_front();
          gc_pending_.push_back(notice);
        }
      });
}

Surrogate::~Surrogate() { host_.gc().RemoveSink(gc_sink_token_); }

void Surrogate::AppendNoticeTrailer(Buffer& reply) {
  std::vector<core::GcNotice> drained;
  {
    ds::MutexLock lock(gc_mu_);
    drained.assign(gc_pending_.begin(), gc_pending_.end());
    gc_pending_.clear();
  }
  marshal::XdrEncoder enc;
  core::Encode(enc, drained);
  const Buffer trailer = enc.Take();
  reply.insert(reply.end(), trailer.begin(), trailer.end());
}

Buffer Surrogate::HandleHello(std::uint64_t request_id,
                              const HelloReq& hello) {
  client_name_ = hello.name;
  client_kind_ = hello.client_kind;
  marshal::XdrEncoder enc;
  core::EncodeResponseHeader(enc, request_id, OkStatus());
  enc.PutU32(AsIndex(host_.id()));
  enc.PutU64(session_id_);
  return enc.Take();
}

Buffer Surrogate::ResumeReply(std::uint64_t request_id) {
  ResumeResp resp;
  resp.host_as = AsIndex(host_.id());
  resp.session_id = session_id_;
  {
    ds::MutexLock lock(session_mu_);
    resp.last_executed_ticket = last_executed_ticket_;
    resp.remaps = slot_remaps_;
  }
  marshal::XdrEncoder enc;
  core::EncodeResponseHeader(enc, request_id, OkStatus());
  core::Encode(enc, resp);
  return enc.Take();
}

Status Surrogate::ReadSlotRef(core::Op op, marshal::XdrDecoder& body,
                              std::size_t frame_size, SlotRef& ref) {
  switch (op) {
    case core::Op::kDetach:
      return ReadSlot<core::DetachReq>(body, frame_size, ref);
    case core::Op::kPut:
      return ReadSlot<core::PutReq>(body, frame_size, ref);
    case core::Op::kGet:
      return ReadSlot<core::GetReq>(body, frame_size, ref);
    case core::Op::kConsume:
      return ReadSlot<core::ConsumeReq>(body, frame_size, ref);
    case core::Op::kSetFilter:
      return ReadSlot<core::SetFilterReq>(body, frame_size, ref);
    default:
      return OkStatus();
  }
}

Buffer Surrogate::TranslateSlots(std::span<const std::uint8_t> frame,
                                 SlotRef& ref) {
  if (ref.offset == 0) return Buffer();
  std::uint32_t slot = ref.slot;
  {
    ds::MutexLock lock(session_mu_);
    for (const SlotRemap& r : slot_remaps_) {
      if (r.container_bits == ref.container_bits &&
          r.is_queue == ref.is_queue && r.old_slot == ref.slot) {
        slot = r.new_slot;
        break;
      }
    }
  }
  if (slot == ref.slot) return Buffer();
  ref.slot = slot;
  // The new slot in place of the old, as the big-endian word XDR writes.
  Buffer out(frame.begin(), frame.end());
  for (std::size_t i = 0; i < 4; ++i) {
    out[ref.offset + i] = static_cast<std::uint8_t>(slot >> (24 - 8 * i));
  }
  return out;
}

Buffer Surrogate::HandleFrame(std::span<const std::uint8_t> frame, bool& bye,
                              bool& kill_conn) {
  marshal::XdrDecoder body(frame);
  auto hdr = core::DecodeRequestHeader(body);
  if (!hdr.ok()) return Buffer();
  const core::Op op = hdr->op;
  const std::uint64_t ticket = hdr->request_id;

  switch (static_cast<ClientOp>(op)) {
    case ClientOp::kHello: {
      auto hello = core::Decode<HelloReq>(body);
      if (!hello.ok()) return core::EncodeStatusReply(ticket, hello.status());
      return HandleHello(ticket, *hello);
    }
    case ClientOp::kBye:
      bye = true;
      return core::EncodeStatusReply(ticket, OkStatus());
    case ClientOp::kSetGcInterest: {
      auto req = core::Decode<SetGcInterestReq>(body);
      if (!req.ok()) return core::EncodeStatusReply(ticket, req.status());
      {
        ds::MutexLock lock(gc_mu_);
        if (req->enable) {
          gc_interest_[req->container_bits] = req->is_queue;
        } else {
          gc_interest_.erase(req->container_bits);
        }
      }
      {
        ds::MutexLock lock(session_mu_);
        if (ticket > last_executed_ticket_) last_executed_ticket_ = ticket;
      }
      MirrorSession();
      return core::EncodeStatusReply(ticket, OkStatus());
    }
    case ClientOp::kResume:
      // A Resume mid-stream (the listener normally services it during
      // the handshake): answer it in place.
      return ResumeReply(ticket);
    default:
      break;
  }

  // An STM op: carry it out against the cluster on the device's
  // behalf. The executor routes to any owning address space.

  // Replay dedup: a call the device re-sends after a dropped
  // connection must not run twice.
  {
    ds::MutexLock lock(session_mu_);
    if (ticket == cached_reply_ticket_ && !cached_reply_.empty()) {
      m_replay_hits_->Add();
      // Destructive-read replay answered from the journal instead of
      // dequeuing a second item.
      if (ticket == redo_ticket_) m_redo_replayed_->Add();
      return cached_reply_;  // resend the very reply that was lost
    }
    if (ticket == redo_ticket_ && !redo_payload_.empty()) {
      // The reply cache has moved on (e.g. the client's post-resume
      // listener-cache refresh ran before this replay arrived), but a
      // destructive read's reply outlives the cache in the redo
      // journal. Answer from it rather than dequeuing a second item.
      m_replay_hits_->Add();
      m_redo_replayed_->Add();
      return redo_payload_;
    }
    if (ticket <= last_executed_ticket_ && IsIdempotentSynthOp(op)) {
      // Executed before a failover; the original reply died with the
      // old surrogate but the effect is durable. Ack it.
      m_replay_hits_->Add();
      return core::EncodeStatusReply(ticket, OkStatus());
    }
  }
  m_calls_->Add();

  if (edge_faults_ && IsStmOp(op) &&
      edge_faults_->TakeConnectionKill(
          clf::FaultInjector::KillPoint::kBeforeExecute)) {
    kill_conn = true;  // drop the link before the op runs
    return Buffer();
  }

  // Tracing: adopt the device's wire span as "client.call" (the client
  // call as observed cluster-side) and execute under a child
  // "surrogate.dispatch" span. Both install themselves as the thread's
  // current context, so every RPC the execution fans out carries the
  // context onward. No-ops when the frame carried no sampled context.
  trace::ScopedSpan client_call(&host_.span_sink(), "client.call", hdr->trace,
                                /*adopt_span_id=*/true);
  SlotRef target;
  Buffer reply;
  {
    trace::ScopedSpan dispatch(&host_.span_sink(), "surrogate.dispatch");
    // A malformed body leaves `target` without a slot; the executor
    // answers it with the decode error.
    (void)ReadSlotRef(op, body, frame.size(), target);
    const Buffer translated = TranslateSlots(frame, target);
    reply = host_.ExecuteWireRequest(translated.empty() ? frame
                                                        : translated);
  }

  marshal::XdrDecoder result(reply);
  auto reply_hdr = core::DecodeResponseHeader(result);
  const bool ok = reply_hdr.ok() && reply_hdr->status.ok();
  // A stopping host answers everything kCancelled; park instead so the
  // device sees a dead link and fails over to a live address space.
  // Exception: if the op demonstrably executed (an OK reply raced the
  // shutdown), deliver the ack — discarding it would make the device
  // replay an op whose remote effect is already durable.
  if (host_.stopped() && !ok) {
    kill_conn = true;
    return Buffer();
  }
  AfterExecute(op, ticket, target, body, ok, result, reply);

  if (edge_faults_ && IsStmOp(op) &&
      edge_faults_->TakeConnectionKill(
          clf::FaultInjector::KillPoint::kAfterExecute)) {
    kill_conn = true;  // executed, but the reply never reaches the device
    return Buffer();
  }
  return reply;
}

void Surrogate::AfterExecute(core::Op op, std::uint64_t ticket,
                             const SlotRef& target, marshal::XdrDecoder& body,
                             bool ok, marshal::XdrDecoder& result,
                             const Buffer& reply) {
  {
    ds::MutexLock lock(session_mu_);
    if (ticket > last_executed_ticket_) last_executed_ticket_ = ticket;
    // Ticket 0 marks an untracked read (the client's post-resume
    // listener-cache refresh): it must not evict the cached reply the
    // still-unreplayed in-flight call is about to be answered from.
    if (ticket != 0) {
      cached_reply_ticket_ = ticket;
      cached_reply_ = reply;  // pre-trailer; trailer is appended per send
    }
  }
  // Every mirror below carries this call's ticket, so a replay of the
  // call after a failover is acked, not run again.
  switch (op) {
    case core::Op::kAttach: {
      auto req = core::Decode<core::AttachReq>(body);
      auto slot = result.GetU32();
      if (!ok || !req.ok() || !slot.ok()) return;
      ds::MutexLock lock(session_mu_);
      attachments_.push_back(Attachment{req->container_bits, req->is_queue,
                                        *slot, *slot,
                                        static_cast<std::uint8_t>(req->mode),
                                        req->label});
      break;
    }
    case core::Op::kDetach: {
      if (!ok) return;
      ds::MutexLock lock(session_mu_);
      std::erase_if(attachments_, [&](const Attachment& a) {
        return a.container_bits == target.container_bits &&
               a.is_queue == target.is_queue && a.slot == target.slot;
      });
      break;
    }
    case core::Op::kNsRegister: {
      auto entry = core::Decode<core::NsEntry>(body);
      if (!ok || !entry.ok()) return;
      ds::MutexLock lock(session_mu_);
      registered_names_.push_back(entry->name);
      break;
    }
    case core::Op::kNsUnregister: {
      auto req = core::Decode<core::NsLookupReq>(body);
      if (!ok || !req.ok()) return;
      ds::MutexLock lock(session_mu_);
      std::erase(registered_names_, req->name);
      break;
    }
    case core::Op::kGet: {
      // Exactly-once destructive reads: a successful Get on a *remote*
      // queue dequeued an item whose only copy is now this reply.
      // Journal the reply into the (replicated) session registry before
      // it is sent, so if both the reply and this host die, the
      // rehydrated surrogate answers the device's replay from the
      // journal instead of dequeuing a second item. Host-owned queues
      // die with the host, so they skip the journal like MirrorTicket
      // skips the high-water mark.
      const AsId owner = OwnerOf(target.container_bits);
      if (!ok || !target.is_queue || owner == host_.id()) return;
      // The item's timestamp; its payload stays in the reply.
      core::ItemView item;
      if (!core::DecodeFields(result, item, &core::ItemView::timestamp).ok()) {
        return;
      }
      {
        ds::MutexLock lock(session_mu_);
        redo_ticket_ = ticket;
        redo_payload_ = reply;
      }
      // Full-record mirror carries the redo journal; must complete
      // before the reply leaves (a failed mirror degrades to
      // at-most-once-per-live-surrogate, logged by MirrorSession).
      MirrorSession();
      m_redo_journaled_->Add();
      // A journaled read is consumed on delivery: once the reply is
      // answerable from the journal, the item's only copy is the
      // journal, so the owner's in-flight entry must not survive —
      // otherwise the owner's host-death recovery would requeue it
      // (Detach returns unconsumed in-flight items to the queue head)
      // and the next Get would deliver it a second time. Commit the
      // dequeue now; if the commit fails the item may be redelivered
      // after a host death (at-least-once, logged), which beats
      // silently losing it.
      const Status committed = host_.Consume(
          core::Connection(target.container_bits, /*is_queue=*/true,
                           target.mode, owner, target.slot),
          item.timestamp);
      if (!committed.ok()) {
        DS_LOG(kWarn) << "surrogate " << session_id_
                      << ": journaled-read dequeue commit failed: "
                      << committed;
      }
      return;
    }
    case core::Op::kPut:
    case core::Op::kConsume:
    case core::Op::kSetFilter:
      MirrorTicket(ticket, target.container_bits);
      return;
    default:
      return;
  }
  MirrorSession();
}

core::SessionRecord Surrogate::SnapshotRecord() {
  core::SessionRecord record;
  record.session_id = session_id_;
  record.client_kind = client_kind_;
  record.client_name = client_name_;
  record.host_as = host_.id();
  {
    ds::MutexLock lock(session_mu_);
    record.last_executed_ticket = last_executed_ticket_;
    record.redo_ticket = redo_ticket_;
    record.redo_payload = redo_payload_;
    record.attachments.reserve(attachments_.size());
    for (const Attachment& a : attachments_) {
      record.attachments.push_back(core::SessionAttachment{
          a.container_bits, a.is_queue, a.mode, a.device_slot, a.label});
    }
    record.registered_names = registered_names_;
  }
  {
    ds::MutexLock lock(gc_mu_);
    record.gc_interests.reserve(gc_interest_.size());
    for (const auto& [bits, is_queue] : gc_interest_) {
      record.gc_interests.push_back(core::SessionGcInterest{bits, is_queue});
    }
  }
  return record;
}

void Surrogate::MirrorSession() {
  if (host_.stopped()) return;
  Status s = host_.SessionPut(SnapshotRecord());
  if (!s.ok()) {
    DS_LOG(kWarn) << "surrogate " << session_id_
                  << ": session mirror failed: " << s;
  }
}

void Surrogate::MirrorTicket(std::uint64_t ticket,
                             std::uint64_t container_bits) {
  if (host_.stopped()) return;
  // Only mutations whose effects outlive this host need the durable
  // high-water mark: ops on containers owned by a *peer* address space
  // (they already pay a CLF round trip). An op on a host-owned container
  // dies with the host anyway, so skipping the mirror there keeps the
  // single-AS fast path free of extra RPCs. Attach/Detach/NsRegister/
  // NsUnregister mirror the full record, which carries the ticket.
  if (OwnerOf(container_bits) == host_.id()) return;
  Status s = host_.SessionTick(session_id_, ticket);
  if (!s.ok()) {
    DS_LOG(kWarn) << "surrogate " << session_id_
                  << ": ticket mirror failed: " << s;
  }
}

Status Surrogate::Adopt(transport::TcpConnection conn) {
  State expected = State::kParked;
  if (!state_.compare_exchange_strong(expected, State::kActive)) {
    return FailedPreconditionError("only parked surrogates can adopt");
  }
  stopping_.store(false);
  conn_ = std::move(conn);
  return OkStatus();
}

Status Surrogate::Rehydrate(const core::SessionRecord& record) {
  client_name_ = record.client_name;
  client_kind_ = record.client_kind;
  {
    ds::MutexLock lock(gc_mu_);
    for (const auto& g : record.gc_interests) {
      gc_interest_[g.container_bits] = g.is_queue;
    }
  }

  std::vector<Attachment> restored;
  std::vector<SlotRemap> remaps;
  for (const auto& a : record.attachments) {
    const auto mode = a.mode >= 1 && a.mode <= 3
                          ? static_cast<core::ConnMode>(a.mode)
                          : core::ConnMode::kInputOutput;
    Result<core::Connection> conn =
        a.is_queue
            ? host_.Connect(QueueId::FromBits(a.container_bits), mode, a.label)
            : host_.Connect(ChannelId::FromBits(a.container_bits), mode,
                            a.label);
    SlotRemap remap;
    remap.container_bits = a.container_bits;
    remap.is_queue = a.is_queue;
    remap.old_slot = a.slot;
    if (conn.ok()) {
      remap.new_slot = conn->slot();
      // a.slot is the device-visible slot (what the record mirrors);
      // keep it so a further migration still remaps the device's frames.
      restored.push_back(Attachment{a.container_bits, a.is_queue, conn->slot(),
                                    a.slot, a.mode, a.label});
    } else {
      // Container gone (owned by the dead address space, or already
      // reclaimed): the device's handle is now dangling; calls on it
      // will fail with the owner's error.
      remap.new_slot = 0;
      DS_LOG(kWarn) << "surrogate " << session_id_
                    << ": could not restore attachment to container "
                    << a.container_bits << ": " << conn.status();
    }
    remaps.push_back(remap);
  }

  {
    ds::MutexLock lock(session_mu_);
    attachments_ = std::move(restored);
    registered_names_ = record.registered_names;
    if (record.last_executed_ticket > last_executed_ticket_) {
      last_executed_ticket_ = record.last_executed_ticket;
    }
    slot_remaps_ = std::move(remaps);
    // Restore the destructive-read journal into the replay cache: the
    // old host died, so the device will replay its last Get — answer it
    // with the journaled reply, never by re-executing the dequeue.
    if (record.redo_ticket != 0 && !record.redo_payload.empty()) {
      redo_ticket_ = record.redo_ticket;
      redo_payload_ = record.redo_payload;
      cached_reply_ticket_ = record.redo_ticket;
      cached_reply_ = record.redo_payload;
    }
  }
  // The record now lives on this host: update host_as and slots.
  MirrorSession();
  return OkStatus();
}

Status Surrogate::ServiceResume(std::uint64_t request_id) {
  Buffer reply = ResumeReply(request_id);
  AppendNoticeTrailer(reply);
  return conn_.SendFrame(reply);
}

void Surrogate::MarkSuperseded() {
  Stop();
  State s = state_.load();
  while (s != State::kReaped && s != State::kLeft &&
         !state_.compare_exchange_weak(s, State::kReaped)) {
  }
  // conn_ is left to the Run thread (if still active, Stop() makes it
  // exit and close within its receive timeout).
}

Status Surrogate::Reap() {
  State expected = State::kParked;
  if (!state_.compare_exchange_strong(expected, State::kReaped)) {
    return FailedPreconditionError("only parked surrogates can be reaped");
  }
  std::vector<Attachment> attachments;
  std::vector<std::string> names;
  {
    ds::MutexLock lock(session_mu_);
    attachments.swap(attachments_);
    names.swap(registered_names_);
  }
  // A reap on a dead host releases nothing (the host's containers died
  // with it) and must keep the registry record so the session can still
  // be migrated; a reap on a live host is terminal.
  if (host_.stopped()) return OkStatus();
  for (const Attachment& a : attachments) {
    const core::Connection conn(
        a.container_bits, a.is_queue, core::ConnMode::kInputOutput,
        ChannelId::FromBits(a.container_bits).owner(), a.slot);
    Status s = host_.Disconnect(conn);
    if (!s.ok()) {
      DS_LOG(kWarn) << "reap: detach failed: " << s;
    }
  }
  for (const std::string& name : names) {
    (void)host_.NsUnregister(name);
  }
  (void)host_.SessionDrop(session_id_);
  return OkStatus();
}

std::uint64_t Surrogate::last_executed_ticket() const {
  ds::MutexLock lock(session_mu_);
  return last_executed_ticket_;
}

void Surrogate::Park() {
  // Close before publishing kParked: once the state is visible, the
  // listener may Adopt() a fresh connection into conn_, and this (the
  // old Run thread) must no longer touch it.
  conn_.Close();
  parked_since_ = Now();
  State expected = State::kActive;
  state_.compare_exchange_strong(expected, State::kParked);
}

Status Surrogate::ServiceHello(std::uint64_t request_id,
                               const HelloReq& hello) {
  Buffer reply = HandleHello(request_id, hello);
  AppendNoticeTrailer(reply);
  MirrorSession();
  return conn_.SendFrame(reply);
}

void Surrogate::Run() {
  SetThreadLogContext("sur/" + std::to_string(session_id_));
  Buffer frame;
  bool bye = false;
  while (!stopping_.load() && !bye) {
    if (host_.stopped()) {
      // The host AS is going down: close the link so the device fails
      // over to a surrogate on a live address space.
      DS_LOG(kInfo) << "surrogate " << session_id_
                    << " parked: host address space stopping";
      Park();
      return;
    }
    Status s = conn_.RecvFrame(frame, Deadline::AfterMillis(100));
    if (!s.ok()) {
      if (s.code() == StatusCode::kTimeout) continue;
      // Device vanished without a clean leave: park (paper §3.3).
      DS_LOG(kInfo) << "surrogate " << session_id_ << " parked: " << s;
      Park();
      return;
    }
    bool kill_conn = false;
    Buffer reply = HandleFrame(frame, bye, kill_conn);
    if (kill_conn || reply.empty()) {
      Park();
      return;
    }
    AppendNoticeTrailer(reply);
    if (!conn_.SendFrame(reply).ok()) {
      Park();
      return;
    }
  }
  if (bye) {
    state_.store(State::kLeft);
    conn_.Close();
    if (!host_.stopped()) (void)host_.SessionDrop(session_id_);
  } else {
    Park();
  }
}

}  // namespace dstampede::client
