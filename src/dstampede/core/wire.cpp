#include "dstampede/core/wire.hpp"

namespace dstampede::core {

std::int64_t EncodeDeadline(Deadline deadline) {
  if (deadline.infinite()) return kDeadlineInfinite;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline.remaining())
                      .count();
  return ms < 0 ? 0 : ms;
}

Deadline DecodeDeadline(std::int64_t wire_ms) {
  // Past ~35 years a peer's value would overflow the nanosecond
  // TimePoint; it means "forever" anyway.
  if (wire_ms == kDeadlineInfinite || wire_ms > (std::int64_t{1} << 40)) {
    return Deadline::Infinite();
  }
  if (wire_ms <= 0) return Deadline::Poll();
  return Deadline::AfterMillis(wire_ms);
}

Buffer EncodeStatusReply(std::uint64_t request_id, const Status& status) {
  marshal::XdrEncoder enc;
  EncodeResponseHeader(enc, request_id, status);
  return enc.Take();
}

Buffer EncodeItemReply(std::uint64_t request_id, const ItemView& item) {
  marshal::XdrEncoder enc(item.payload.size() + 64);
  EncodeResponseHeader(enc, request_id, OkStatus());
  enc.PutI64(item.timestamp);
  enc.PutOpaque(item.payload.span());
  return enc.Take();
}

Status ReplyStatus(const Result<Buffer>& reply) {
  if (!reply.ok()) return reply.status();
  marshal::XdrDecoder dec(*reply);
  DS_ASSIGN_OR_RETURN(ResponseHeader hdr, DecodeResponseHeader(dec));
  return hdr.status;
}

Result<RequestHeader> DecodeRequestHeader(marshal::XdrDecoder& dec) {
  RequestHeader hdr;
  DS_ASSIGN_OR_RETURN(std::uint32_t op, dec.GetU32());
  hdr.op = static_cast<Op>(op & ~kTraceFlag);
  DS_ASSIGN_OR_RETURN(hdr.request_id, dec.GetU64());
  if (op & kTraceFlag) {
    DS_ASSIGN_OR_RETURN(hdr.trace.trace_id, dec.GetU64());
    DS_ASSIGN_OR_RETURN(hdr.trace.span_id, dec.GetU64());
    DS_ASSIGN_OR_RETURN(hdr.trace.flags, dec.GetU32());
  }
  return hdr;
}

Result<CreateReq> CreateReq::Decode(marshal::XdrDecoder& dec) {
  CreateReq req;
  DS_ASSIGN_OR_RETURN(req.capacity, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.debug_name, dec.GetString());
  return req;
}

Result<AttachReq> AttachReq::Decode(marshal::XdrDecoder& dec) {
  AttachReq req;
  DS_ASSIGN_OR_RETURN(req.container_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.is_queue, dec.GetBool());
  DS_ASSIGN_OR_RETURN(std::uint32_t mode, dec.GetU32());
  if (mode < 1 || mode > 3) return InternalError("bad ConnMode");
  req.mode = static_cast<ConnMode>(mode);
  DS_ASSIGN_OR_RETURN(req.label, dec.GetString());
  return req;
}

Result<DetachReq> DetachReq::Decode(marshal::XdrDecoder& dec) {
  DetachReq req;
  DS_ASSIGN_OR_RETURN(req.container_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.is_queue, dec.GetBool());
  DS_ASSIGN_OR_RETURN(req.slot, dec.GetU32());
  return req;
}

namespace {
Result<ConnMode> DecodeConnMode(marshal::XdrDecoder& dec) {
  DS_ASSIGN_OR_RETURN(std::uint32_t mode, dec.GetU32());
  if (mode < 1 || mode > 3) return InternalError("bad ConnMode");
  return static_cast<ConnMode>(mode);
}
}  // namespace

Result<PutReq> PutReq::Decode(marshal::XdrDecoder& dec) {
  PutReq req;
  DS_ASSIGN_OR_RETURN(req.container_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.is_queue, dec.GetBool());
  DS_ASSIGN_OR_RETURN(req.mode, DecodeConnMode(dec));
  DS_ASSIGN_OR_RETURN(req.slot, dec.GetU32());
  DS_ASSIGN_OR_RETURN(req.ts, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.deadline_ms, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.payload, dec.GetOpaque());
  return req;
}

Result<GetReq> GetReq::Decode(marshal::XdrDecoder& dec) {
  GetReq req;
  DS_ASSIGN_OR_RETURN(req.container_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.is_queue, dec.GetBool());
  DS_ASSIGN_OR_RETURN(req.mode, DecodeConnMode(dec));
  DS_ASSIGN_OR_RETURN(req.slot, dec.GetU32());
  DS_ASSIGN_OR_RETURN(std::uint32_t kind, dec.GetU32());
  if (kind > 3) return InternalError("bad GetSpec kind");
  req.spec.kind = static_cast<GetSpec::Kind>(kind);
  DS_ASSIGN_OR_RETURN(req.spec.ts, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.deadline_ms, dec.GetI64());
  return req;
}

Result<ConsumeReq> ConsumeReq::Decode(marshal::XdrDecoder& dec) {
  ConsumeReq req;
  DS_ASSIGN_OR_RETURN(req.container_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.is_queue, dec.GetBool());
  DS_ASSIGN_OR_RETURN(req.mode, DecodeConnMode(dec));
  DS_ASSIGN_OR_RETURN(req.slot, dec.GetU32());
  DS_ASSIGN_OR_RETURN(req.ts, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.until, dec.GetBool());
  return req;
}

Result<SetFilterReq> SetFilterReq::Decode(marshal::XdrDecoder& dec) {
  SetFilterReq req;
  DS_ASSIGN_OR_RETURN(req.container_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.slot, dec.GetU32());
  DS_ASSIGN_OR_RETURN(req.filter.stride, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.filter.phase, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.filter.ts_min, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.filter.ts_max, dec.GetI64());
  DS_ASSIGN_OR_RETURN(req.filter.min_bytes, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.filter.max_bytes, dec.GetU64());
  return req;
}

Result<SessionRecord> DecodeSessionRecord(marshal::XdrDecoder& dec) {
  SessionRecord rec;
  DS_ASSIGN_OR_RETURN(rec.session_id, dec.GetU64());
  DS_ASSIGN_OR_RETURN(rec.client_kind, dec.GetU32());
  DS_ASSIGN_OR_RETURN(rec.client_name, dec.GetString());
  DS_ASSIGN_OR_RETURN(std::uint32_t host, dec.GetU32());
  rec.host_as = static_cast<AsId>(host);
  DS_ASSIGN_OR_RETURN(rec.last_executed_ticket, dec.GetU64());
  DS_ASSIGN_OR_RETURN(std::uint32_t n_attach,
                      dec.GetCount(kMinSessionAttachmentBytes));
  rec.attachments.reserve(n_attach);
  for (std::uint32_t i = 0; i < n_attach; ++i) {
    SessionAttachment a;
    DS_ASSIGN_OR_RETURN(a.container_bits, dec.GetU64());
    DS_ASSIGN_OR_RETURN(a.is_queue, dec.GetBool());
    DS_ASSIGN_OR_RETURN(std::uint32_t mode, dec.GetU32());
    a.mode = static_cast<std::uint8_t>(mode);
    DS_ASSIGN_OR_RETURN(a.slot, dec.GetU32());
    DS_ASSIGN_OR_RETURN(a.label, dec.GetString());
    rec.attachments.push_back(std::move(a));
  }
  DS_ASSIGN_OR_RETURN(std::uint32_t n_gc,
                      dec.GetCount(kSessionGcInterestBytes));
  rec.gc_interests.reserve(n_gc);
  for (std::uint32_t i = 0; i < n_gc; ++i) {
    SessionGcInterest g;
    DS_ASSIGN_OR_RETURN(g.container_bits, dec.GetU64());
    DS_ASSIGN_OR_RETURN(g.is_queue, dec.GetBool());
    rec.gc_interests.push_back(g);
  }
  DS_ASSIGN_OR_RETURN(std::uint32_t n_names, dec.GetCount(kMinOpaqueBytes));
  rec.registered_names.reserve(n_names);
  for (std::uint32_t i = 0; i < n_names; ++i) {
    DS_ASSIGN_OR_RETURN(std::string name, dec.GetString());
    rec.registered_names.push_back(std::move(name));
  }
  DS_ASSIGN_OR_RETURN(rec.redo_ticket, dec.GetU64());
  DS_ASSIGN_OR_RETURN(rec.redo_payload, dec.GetOpaque());
  return rec;
}

Result<SessionIdReq> SessionIdReq::Decode(marshal::XdrDecoder& dec) {
  SessionIdReq req;
  DS_ASSIGN_OR_RETURN(req.session_id, dec.GetU64());
  return req;
}

Result<SessionTickReq> SessionTickReq::Decode(marshal::XdrDecoder& dec) {
  SessionTickReq req;
  DS_ASSIGN_OR_RETURN(req.session_id, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.ticket, dec.GetU64());
  return req;
}

Result<MetricsReq> MetricsReq::Decode(marshal::XdrDecoder& dec) {
  MetricsReq req;
  DS_ASSIGN_OR_RETURN(req.target_as, dec.GetU32());
  return req;
}

Result<NsLookupReq> NsLookupReq::Decode(marshal::XdrDecoder& dec) {
  NsLookupReq req;
  DS_ASSIGN_OR_RETURN(req.name, dec.GetString());
  DS_ASSIGN_OR_RETURN(req.deadline_ms, dec.GetI64());
  return req;
}

Buffer EncodeNsMutation(const NsMutation& m) {
  marshal::XdrEncoder enc;
  enc.PutU32(static_cast<std::uint32_t>(m.kind));
  EncodeNsMutationFields(enc, m);
  return enc.Take();
}

void EncodeNsMutationFields(marshal::XdrEncoder& enc, const NsMutation& m) {
  switch (m.kind) {
    case NsMutation::Kind::kRegister:
      EncodeNsEntry(enc, m.entry);
      break;
    case NsMutation::Kind::kUnregister:
      enc.PutString(m.name);
      break;
    case NsMutation::Kind::kPurgeOwner:
      enc.PutU32(AsIndex(m.owner));
      break;
    case NsMutation::Kind::kPutSession:
      EncodeSessionRecord(enc, m.session);
      break;
    case NsMutation::Kind::kDropSession:
      enc.PutU64(m.session_id);
      break;
    case NsMutation::Kind::kTickSession:
      enc.PutU64(m.session_id);
      enc.PutU64(m.ticket);
      break;
  }
}

Result<NsMutation> DecodeNsMutation(const Buffer& bytes) {
  marshal::XdrDecoder dec(bytes);
  NsMutation m;
  DS_ASSIGN_OR_RETURN(std::uint32_t kind, dec.GetU32());
  if (kind < 1 || kind > 6) return InternalError("bad NsMutation kind");
  m.kind = static_cast<NsMutation::Kind>(kind);
  DS_RETURN_IF_ERROR(DecodeNsMutationFields(dec, m));
  return m;
}

Status DecodeNsMutationFields(marshal::XdrDecoder& dec, NsMutation& m) {
  switch (m.kind) {
    case NsMutation::Kind::kRegister: {
      DS_ASSIGN_OR_RETURN(m.entry, DecodeNsEntry(dec));
      break;
    }
    case NsMutation::Kind::kUnregister: {
      DS_ASSIGN_OR_RETURN(m.name, dec.GetString());
      break;
    }
    case NsMutation::Kind::kPurgeOwner: {
      DS_ASSIGN_OR_RETURN(std::uint32_t owner, dec.GetU32());
      m.owner = static_cast<AsId>(owner);
      break;
    }
    case NsMutation::Kind::kPutSession: {
      DS_ASSIGN_OR_RETURN(m.session, DecodeSessionRecord(dec));
      break;
    }
    case NsMutation::Kind::kDropSession: {
      DS_ASSIGN_OR_RETURN(m.session_id, dec.GetU64());
      break;
    }
    case NsMutation::Kind::kTickSession: {
      DS_ASSIGN_OR_RETURN(m.session_id, dec.GetU64());
      DS_ASSIGN_OR_RETURN(m.ticket, dec.GetU64());
      break;
    }
  }
  return OkStatus();
}

Result<RepAppendReq> RepAppendReq::Decode(marshal::XdrDecoder& dec) {
  RepAppendReq req;
  DS_ASSIGN_OR_RETURN(req.term, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.leader_as, dec.GetU32());
  DS_ASSIGN_OR_RETURN(req.leader_last_index, dec.GetU64());
  DS_ASSIGN_OR_RETURN(req.first_index, dec.GetU64());
  DS_ASSIGN_OR_RETURN(std::uint32_t count, dec.GetCount(kMinOpaqueBytes));
  req.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(Buffer entry, dec.GetOpaque());
    req.entries.push_back(std::move(entry));
  }
  return req;
}

Result<RepAppendAck> RepAppendAck::Decode(marshal::XdrDecoder& dec) {
  RepAppendAck ack;
  DS_ASSIGN_OR_RETURN(ack.term, dec.GetU64());
  DS_ASSIGN_OR_RETURN(ack.applied_index, dec.GetU64());
  return ack;
}

Result<RepFetchReq> RepFetchReq::Decode(marshal::XdrDecoder& dec) {
  RepFetchReq req;
  DS_ASSIGN_OR_RETURN(req.from_index, dec.GetU64());
  return req;
}

Result<RepFetchResp> RepFetchResp::Decode(marshal::XdrDecoder& dec) {
  RepFetchResp resp;
  DS_ASSIGN_OR_RETURN(resp.term, dec.GetU64());
  DS_ASSIGN_OR_RETURN(resp.applied_index, dec.GetU64());
  DS_ASSIGN_OR_RETURN(resp.first_index, dec.GetU64());
  DS_ASSIGN_OR_RETURN(std::uint32_t count, dec.GetCount(kMinOpaqueBytes));
  resp.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(Buffer entry, dec.GetOpaque());
    resp.entries.push_back(std::move(entry));
  }
  return resp;
}

}  // namespace dstampede::core
