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
  Encode(enc, item);
  return enc.Take();
}

Status ReplyStatus(const Result<SharedBuffer>& reply) {
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

Buffer EncodeNsMutation(const NsMutation& m) {
  marshal::XdrEncoder enc;
  enc.PutU32(static_cast<std::uint32_t>(m.kind));
  EncodeNsMutationFields(enc, m);
  return enc.Take();
}

void EncodeNsMutationFields(marshal::XdrEncoder& enc, const NsMutation& m) {
  switch (m.kind) {
    case NsMutation::Kind::kRegister:
      Encode(enc, m.entry);
      break;
    case NsMutation::Kind::kUnregister:
      Encode(enc, m.name);
      break;
    case NsMutation::Kind::kPurgeOwner:
      Encode(enc, m.owner);
      break;
    case NsMutation::Kind::kPutSession:
      Encode(enc, m.session);
      break;
    case NsMutation::Kind::kDropSession:
      Encode(enc, m.session_id);
      break;
    case NsMutation::Kind::kTickSession:
      Encode(enc, m.session_id);
      Encode(enc, m.ticket);
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
    case NsMutation::Kind::kRegister:
      return DecodeInto(dec, m.entry);
    case NsMutation::Kind::kUnregister:
      return DecodeInto(dec, m.name);
    case NsMutation::Kind::kPurgeOwner:
      return DecodeInto(dec, m.owner);
    case NsMutation::Kind::kPutSession:
      return DecodeInto(dec, m.session);
    case NsMutation::Kind::kDropSession:
      return DecodeInto(dec, m.session_id);
    case NsMutation::Kind::kTickSession:
      DS_RETURN_IF_ERROR(DecodeInto(dec, m.session_id));
      return DecodeInto(dec, m.ticket);
  }
  return OkStatus();
}

}  // namespace dstampede::core
