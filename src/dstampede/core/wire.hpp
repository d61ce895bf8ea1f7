// Wire protocol for space-time-memory operations.
//
// One op set serves both planes of the system (Fig 4): address spaces
// inside the cluster exchange these messages over CLF, and end-device
// client libraries exchange them with their surrogate over TCP. The
// encoders are templated so the C client (XdrEncoder) and the
// Java-style client (JavaStyleEncoder) emit byte-identical requests;
// the server always decodes with XdrDecoder.
//
// Framing: requests are  [u32 op][u64 request_id][op fields...];
// responses are          [u32 kReply][u64 request_id][u32 status]
//                        [string status_msg][op result fields...].
//
// Trace context (optional, telemetry layer): a request whose op word
// has the high bit (kTraceFlag) set carries
//   [u64 trace_id][u64 span_id][u32 trace_flags]
// between request_id and the op fields. Untraced peers never set the
// bit, so both directions of old/new interop decode unchanged;
// responses never carry trace fields. EncodeRequestHeader injects the
// calling thread's current trace context automatically, which is how
// the context propagates across every AS->AS hop (including requests
// re-issued on behalf of a suspended DeferredReply).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/trace.hpp"
#include "dstampede/core/item.hpp"
#include "dstampede/marshal/xdr.hpp"

namespace dstampede::core {

enum class Op : std::uint32_t {
  kCreateChannel = 1,
  kCreateQueue = 2,
  kAttach = 3,
  kDetach = 4,
  kPut = 5,
  kGet = 6,
  kConsume = 7,
  kNsRegister = 8,
  kNsLookup = 9,
  kNsUnregister = 10,
  kNsList = 11,
  kSetFilter = 12,
  // End-device session registry (client resilience layer): surrogates
  // mirror their session state into the name server so any listener
  // can rehydrate a session after a connection drop or host death.
  kSessionPut = 13,
  kSessionGet = 14,
  kSessionDrop = 15,
  kSessionTick = 16,
  // Introspection: returns the target address space's sys/metrics
  // JSON snapshot (registry + spans + per-container space-time state).
  kMetrics = 17,
  // Control-plane replication (core/replog.hpp): leader -> follower
  // log append / heartbeat, and follower/candidate -> peer catch-up
  // fetch. Replica-internal: only peer replicas send them, and an end
  // device's frame carrying one is refused.
  kRepAppend = 18,
  kRepFetch = 19,
  kReply = 100,
};

// High bit of the wire op word: this request carries a trace context.
inline constexpr std::uint32_t kTraceFlag = 0x80000000u;

// Deadline on the wire: milliseconds the callee may block.
// kDeadlineInfinite = block forever; 0 = poll.
inline constexpr std::int64_t kDeadlineInfinite = -1;

std::int64_t EncodeDeadline(Deadline deadline);
Deadline DecodeDeadline(std::int64_t wire_ms);

struct RequestHeader {
  Op op = Op::kReply;
  std::uint64_t request_id = 0;
  // Unsampled/empty unless the frame carried kTraceFlag.
  trace::TraceContext trace;
};

template <class Enc>
void EncodeRequestHeader(Enc& enc, Op op, std::uint64_t request_id) {
  const trace::TraceContext ctx = trace::CurrentContext();
  if (ctx.sampled()) {
    enc.PutU32(static_cast<std::uint32_t>(op) | kTraceFlag);
    enc.PutU64(request_id);
    enc.PutU64(ctx.trace_id);
    enc.PutU64(ctx.span_id);
    enc.PutU32(ctx.flags);
  } else {
    enc.PutU32(static_cast<std::uint32_t>(op));
    enc.PutU64(request_id);
  }
}
Result<RequestHeader> DecodeRequestHeader(marshal::XdrDecoder& dec);

// ---- per-op request bodies -------------------------------------------

struct CreateReq {  // kCreateChannel / kCreateQueue
  std::uint64_t capacity = 0;
  std::string debug_name;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(capacity);
    enc.PutString(debug_name);
  }
  static Result<CreateReq> Decode(marshal::XdrDecoder& dec);
};

struct AttachReq {  // kAttach
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kInput;
  std::string label;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(container_bits);
    enc.PutBool(is_queue);
    enc.PutU32(static_cast<std::uint32_t>(mode));
    enc.PutString(label);
  }
  static Result<AttachReq> Decode(marshal::XdrDecoder& dec);
};

struct DetachReq {  // kDetach
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  std::uint32_t slot = 0;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(container_bits);
    enc.PutBool(is_queue);
    enc.PutU32(slot);
  }
  static Result<DetachReq> Decode(marshal::XdrDecoder& dec);
};

struct PutReq {  // kPut
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kOutput;  // of the issuing connection
  std::uint32_t slot = 0;
  Timestamp ts = 0;
  std::int64_t deadline_ms = kDeadlineInfinite;
  Buffer payload;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(container_bits);
    enc.PutBool(is_queue);
    enc.PutU32(static_cast<std::uint32_t>(mode));
    enc.PutU32(slot);
    enc.PutI64(ts);
    enc.PutI64(deadline_ms);
    enc.PutOpaque(payload);
  }
  static Result<PutReq> Decode(marshal::XdrDecoder& dec);
};

struct GetReq {  // kGet
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kInput;
  std::uint32_t slot = 0;
  GetSpec spec;
  std::int64_t deadline_ms = kDeadlineInfinite;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(container_bits);
    enc.PutBool(is_queue);
    enc.PutU32(static_cast<std::uint32_t>(mode));
    enc.PutU32(slot);
    enc.PutU32(static_cast<std::uint32_t>(spec.kind));
    enc.PutI64(spec.ts);
    enc.PutI64(deadline_ms);
  }
  static Result<GetReq> Decode(marshal::XdrDecoder& dec);
};

struct ConsumeReq {  // kConsume
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kInput;
  std::uint32_t slot = 0;
  Timestamp ts = 0;
  bool until = false;  // ConsumeUntil instead of Consume

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(container_bits);
    enc.PutBool(is_queue);
    enc.PutU32(static_cast<std::uint32_t>(mode));
    enc.PutU32(slot);
    enc.PutI64(ts);
    enc.PutBool(until);
  }
  static Result<ConsumeReq> Decode(marshal::XdrDecoder& dec);
};

struct SetFilterReq {  // kSetFilter (channels only)
  std::uint64_t container_bits = 0;
  std::uint32_t slot = 0;
  ItemFilter filter;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(container_bits);
    enc.PutU32(slot);
    enc.PutI64(filter.stride);
    enc.PutI64(filter.phase);
    enc.PutI64(filter.ts_min);
    enc.PutI64(filter.ts_max);
    enc.PutU64(filter.min_bytes);
    enc.PutU64(filter.max_bytes);
  }
  static Result<SetFilterReq> Decode(marshal::XdrDecoder& dec);
};

template <class Enc>
void EncodeNsEntry(Enc& enc, const NsEntry& entry) {
  enc.PutString(entry.name);
  enc.PutU32(static_cast<std::uint32_t>(entry.kind));
  enc.PutU64(entry.id_bits);
  enc.PutString(entry.meta);
  enc.PutU32(AsIndex(entry.owner_as));
}
template <class Dec>
Result<NsEntry> DecodeNsEntry(Dec& dec) {
  NsEntry entry;
  DS_ASSIGN_OR_RETURN(entry.name, dec.GetString());
  DS_ASSIGN_OR_RETURN(std::uint32_t kind, dec.GetU32());
  if (kind > 2) return InternalError("bad NsEntry kind");
  entry.kind = static_cast<NsEntry::Kind>(kind);
  DS_ASSIGN_OR_RETURN(entry.id_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(entry.meta, dec.GetString());
  DS_ASSIGN_OR_RETURN(std::uint32_t owner, dec.GetU32());
  entry.owner_as = static_cast<AsId>(owner);
  return entry;
}
// Smallest encoding of one entry (empty strings), the bound for a
// decoded entry count: 4 + 4 + 8 + 4 + 4.
inline constexpr std::size_t kMinNsEntryBytes = 24;
// kNsList's result fields: a count, then the entries.
template <class Enc>
void EncodeNsEntries(Enc& enc, const std::vector<NsEntry>& entries) {
  enc.PutU32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& entry : entries) EncodeNsEntry(enc, entry);
}
template <class Dec>
Result<std::vector<NsEntry>> DecodeNsEntries(Dec& dec) {
  DS_ASSIGN_OR_RETURN(std::uint32_t count, dec.GetCount(kMinNsEntryBytes));
  std::vector<NsEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(NsEntry entry, DecodeNsEntry(dec));
    out.push_back(std::move(entry));
  }
  return out;
}

// SessionRecord codec, used both in kSessionPut requests and in
// kSessionGet / client-Resume replies.
template <class Enc>
void EncodeSessionRecord(Enc& enc, const SessionRecord& rec) {
  enc.PutU64(rec.session_id);
  enc.PutU32(rec.client_kind);
  enc.PutString(rec.client_name);
  enc.PutU32(AsIndex(rec.host_as));
  enc.PutU64(rec.last_executed_ticket);
  enc.PutU32(static_cast<std::uint32_t>(rec.attachments.size()));
  for (const auto& a : rec.attachments) {
    enc.PutU64(a.container_bits);
    enc.PutBool(a.is_queue);
    enc.PutU32(a.mode);
    enc.PutU32(a.slot);
    enc.PutString(a.label);
  }
  enc.PutU32(static_cast<std::uint32_t>(rec.gc_interests.size()));
  for (const auto& g : rec.gc_interests) {
    enc.PutU64(g.container_bits);
    enc.PutBool(g.is_queue);
  }
  enc.PutU32(static_cast<std::uint32_t>(rec.registered_names.size()));
  for (const auto& n : rec.registered_names) enc.PutString(n);
  enc.PutU64(rec.redo_ticket);
  enc.PutOpaque(rec.redo_payload);
}
Result<SessionRecord> DecodeSessionRecord(marshal::XdrDecoder& dec);
// Smallest encodings of a session record's elements, the bounds for
// their decoded counts: an attachment with an empty label (8 + 4 + 4 +
// 4 + 4) and a gc interest (8 + 4). A name, like a replication log
// entry, is at least its length word (kMinOpaqueBytes).
inline constexpr std::size_t kMinSessionAttachmentBytes = 24;
inline constexpr std::size_t kSessionGcInterestBytes = 12;
inline constexpr std::size_t kMinOpaqueBytes = 4;

struct SessionIdReq {  // kSessionGet / kSessionDrop
  std::uint64_t session_id = 0;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(session_id);
  }
  static Result<SessionIdReq> Decode(marshal::XdrDecoder& dec);
};

struct SessionTickReq {  // kSessionTick
  std::uint64_t session_id = 0;
  std::uint64_t ticket = 0;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(session_id);
    enc.PutU64(ticket);
  }
  static Result<SessionTickReq> Decode(marshal::XdrDecoder& dec);
};

struct MetricsReq {  // kMetrics
  // Address space whose snapshot is wanted; the receiving space
  // forwards when it is not the target (same pattern as the NS ops,
  // so a TCP client can introspect any space through its surrogate).
  std::uint32_t target_as = 0;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU32(target_as);
  }
  static Result<MetricsReq> Decode(marshal::XdrDecoder& dec);
};

struct NsLookupReq {  // kNsLookup (also kNsUnregister: name only)
  std::string name;
  std::int64_t deadline_ms = 0;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutString(name);
    enc.PutI64(deadline_ms);
  }
  static Result<NsLookupReq> Decode(marshal::XdrDecoder& dec);
};

// ---- control-plane replication (core/replog.hpp) ----------------------

// One replicated name-server / session-registry state-machine op. The
// leader encodes the mutation, appends it to the replication log, and
// every replica (leader included) applies the identical bytes through
// NameServer::Apply — one code path for local and replicated writes.
struct NsMutation {
  enum class Kind : std::uint32_t {
    kRegister = 1,
    kUnregister = 2,
    kPurgeOwner = 3,
    kPutSession = 4,
    kDropSession = 5,
    kTickSession = 6,
  };
  Kind kind = Kind::kRegister;
  NsEntry entry;                   // kRegister
  std::string name;                // kUnregister
  AsId owner = kInvalidAsId;       // kPurgeOwner
  SessionRecord session;           // kPutSession
  std::uint64_t session_id = 0;    // kDropSession / kTickSession
  std::uint64_t ticket = 0;        // kTickSession
};
Buffer EncodeNsMutation(const NsMutation& m);
Result<NsMutation> DecodeNsMutation(const Buffer& bytes);
// A mutation's fields after its kind word. The request that routes a
// mutation to the leader carries them as its body (kNsUnregister's
// body adds NsLookupReq's deadline after the name).
void EncodeNsMutationFields(marshal::XdrEncoder& enc, const NsMutation& m);
Status DecodeNsMutationFields(marshal::XdrDecoder& dec, NsMutation& m);

struct RepAppendReq {  // kRepAppend (no entries = leader heartbeat)
  std::uint64_t term = 0;
  std::uint32_t leader_as = 0;
  // Leader's last appended index; a follower that is behind reports
  // its own applied index in the ack and catches up via kRepFetch.
  std::uint64_t leader_last_index = 0;
  // Index of entries[0]; entries are consecutive.
  std::uint64_t first_index = 0;
  std::vector<Buffer> entries;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(term);
    enc.PutU32(leader_as);
    enc.PutU64(leader_last_index);
    enc.PutU64(first_index);
    enc.PutU32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) enc.PutOpaque(e);
  }
  static Result<RepAppendReq> Decode(marshal::XdrDecoder& dec);
};

// kRepAppend ack body (after the status header): the follower's term
// and applied index, so the leader tracks replica lag and steps down
// on a stale term.
struct RepAppendAck {
  std::uint64_t term = 0;
  std::uint64_t applied_index = 0;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(term);
    enc.PutU64(applied_index);
  }
  static Result<RepAppendAck> Decode(marshal::XdrDecoder& dec);
};

struct RepFetchReq {  // kRepFetch: send me your log from this index on
  std::uint64_t from_index = 0;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(from_index);
  }
  static Result<RepFetchReq> Decode(marshal::XdrDecoder& dec);
};

// kRepFetch reply body: the replica's term/applied index and every log
// entry it holds in [from_index, applied_index].
struct RepFetchResp {
  std::uint64_t term = 0;
  std::uint64_t applied_index = 0;
  std::uint64_t first_index = 0;  // index of entries[0]
  std::vector<Buffer> entries;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(term);
    enc.PutU64(applied_index);
    enc.PutU64(first_index);
    enc.PutU32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) enc.PutOpaque(e);
  }
  static Result<RepFetchResp> Decode(marshal::XdrDecoder& dec);
};

// ---- responses --------------------------------------------------------

template <class Enc>
void EncodeResponseHeader(Enc& enc, std::uint64_t request_id,
                          const Status& status) {
  // Raw puts, NOT EncodeRequestHeader: responses never carry a trace
  // context (a deferred completion may run on a thread whose ambient
  // context is sampled, and DecodeResponseHeader requires a bare
  // kReply op word).
  enc.PutU32(static_cast<std::uint32_t>(Op::kReply));
  enc.PutU64(request_id);
  enc.PutU32(static_cast<std::uint32_t>(status.code()));
  enc.PutString(status.message());
}

struct ResponseHeader {
  std::uint64_t request_id = 0;
  Status status;
};
// Expects the decoder positioned at the op field.
template <class Dec>
Result<ResponseHeader> DecodeResponseHeader(Dec& dec) {
  DS_ASSIGN_OR_RETURN(std::uint32_t op, dec.GetU32());
  if (static_cast<Op>(op) != Op::kReply) {
    return InternalError("expected reply frame");
  }
  ResponseHeader hdr;
  DS_ASSIGN_OR_RETURN(hdr.request_id, dec.GetU64());
  DS_ASSIGN_OR_RETURN(std::uint32_t code, dec.GetU32());
  DS_ASSIGN_OR_RETURN(std::string message, dec.GetString());
  hdr.status = Status(static_cast<StatusCode>(code), std::move(message));
  return hdr;
}

// Fully-encoded replies, shared by the synchronous dispatch path and
// the deferred-completion path (which encodes on whatever thread
// resolved the waiter — putter, GC sweeper, timer wheel, shutdown).
Buffer EncodeStatusReply(std::uint64_t request_id, const Status& status);
// Successful kGet reply: status header + timestamp + payload.
Buffer EncodeItemReply(std::uint64_t request_id, const ItemView& item);
// The inverse of EncodeItemReply's result fields.
template <class Dec>
Result<ItemView> DecodeItem(Dec& dec) {
  ItemView item;
  DS_ASSIGN_OR_RETURN(item.timestamp, dec.GetI64());
  DS_ASSIGN_OR_RETURN(Buffer payload, dec.GetOpaque());
  item.payload = SharedBuffer(std::move(payload));
  return item;
}
// The reply that carries `result`: its status alone when it failed,
// else an ok header and the result fields `encode(enc, value)` writes.
template <typename T, typename EncodeFields>
Buffer EncodeReply(std::uint64_t request_id, const Result<T>& result,
                   EncodeFields encode) {
  if (!result.ok()) return EncodeStatusReply(request_id, result.status());
  marshal::XdrEncoder enc;
  EncodeResponseHeader(enc, request_id, OkStatus());
  encode(enc, *result);
  return enc.Take();
}

// The inverse, on the calling side: `reply` is a reply frame or the
// transport failure that stands in for one. Returns the failure or the
// reply's error status; for an ok reply, what `read(dec)` decodes from
// its result fields.
template <typename Read>
auto DecodeReply(const Result<Buffer>& reply, Read read)
    -> decltype(read(std::declval<marshal::XdrDecoder&>())) {
  if (!reply.ok()) return reply.status();
  marshal::XdrDecoder dec(*reply);
  DS_ASSIGN_OR_RETURN(ResponseHeader hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  return read(dec);
}
// The same for an op whose reply carries no result fields.
Status ReplyStatus(const Result<Buffer>& reply);

// GcNotice encoding, used for surrogate -> end device forwarding.
template <class Enc>
void EncodeGcNotice(Enc& enc, const GcNotice& notice) {
  enc.PutU64(notice.container_bits);
  enc.PutBool(notice.is_queue);
  enc.PutI64(notice.timestamp);
  enc.PutU64(notice.payload_size);
}
template <class Dec>
Result<GcNotice> DecodeGcNotice(Dec& dec) {
  GcNotice notice;
  DS_ASSIGN_OR_RETURN(notice.container_bits, dec.GetU64());
  DS_ASSIGN_OR_RETURN(notice.is_queue, dec.GetBool());
  DS_ASSIGN_OR_RETURN(notice.timestamp, dec.GetI64());
  DS_ASSIGN_OR_RETURN(std::uint64_t size, dec.GetU64());
  notice.payload_size = size;
  return notice;
}
// Encoded size of one notice, the bound for a decoded notice count:
// 8 + 4 + 8 + 8.
inline constexpr std::size_t kGcNoticeBytes = 28;

}  // namespace dstampede::core
