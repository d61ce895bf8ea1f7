// Wire protocol for space-time-memory operations.
//
// One op set serves both planes of the system (Fig 4): address spaces
// inside the cluster exchange these messages over CLF, and end-device
// client libraries exchange them with their surrogate over TCP. The
// codec is templated so the C client (XdrEncoder) and the Java-style
// client (JavaStyleEncoder) emit byte-identical requests; the server
// always decodes with XdrDecoder.
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

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
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

// ---- one definition per wire message ------------------------------------
//
// A multi-field message declares its layout once: `WireFields`, found
// by argument-dependent lookup (so client/protocol.hpp declares its
// messages the same way), returns its members in wire order. Encode,
// DecodeInto and MinWireBytes walk that list, for either codec. A
// member's C++ type picks its wire form:
//   8-byte integer                  [u64]
//   other integer, bool, enum       [u32]; an enum other than AsId (an
//                                   index) decodes only inside its
//                                   WireRange
//   std::string, Buffer, SharedBuffer  opaque: [u32 n][n bytes][pad]; a
//                                   SharedBuffer decodes as a slice of
//                                   an XdrDecoder's owner (a copy under
//                                   the Java-style decoder)
//   std::vector<T>                  [u32 count][count T's]; the count is
//                                   bounded by MinWireBytes<T>()
//   a type with WireFields          its fields, inline

// The words an enum member may carry; any other fails to decode with
// `error`.
struct WordRange {
  std::uint32_t lo;
  std::uint32_t hi;
  const char* error;
};
constexpr WordRange WireRange(ConnMode) { return {1, 3, "bad ConnMode"}; }
constexpr WordRange WireRange(GetSpec::Kind) {
  return {0, 3, "bad GetSpec kind"};
}
constexpr WordRange WireRange(NsEntry::Kind) {
  return {0, 2, "bad NsEntry kind"};
}

template <class T>
inline constexpr bool kIsWireVector = false;
template <class T>
inline constexpr bool kIsWireVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIsWireWord = std::is_integral_v<T> || std::is_enum_v<T>;

template <class T>
constexpr auto FieldsOf() {
  return WireFields(static_cast<const T*>(nullptr));
}

template <class Member>
struct MemberType;
template <class C, class V>
struct MemberType<V C::*> {
  using type = V;
};

// Bytes of the smallest encoding of a T (empty strings and vectors).
template <class T>
constexpr std::size_t MinWireBytes() {
  if constexpr (kIsWireWord<T>) {
    return sizeof(T) == 8 ? 8 : 4;
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, Buffer> ||
                       std::is_same_v<T, SharedBuffer> || kIsWireVector<T>) {
    return 4;
  } else {
    return std::apply(
        [](auto... field) {
          return (MinWireBytes<typename MemberType<decltype(field)>::type>() +
                  ... + 0);
        },
        FieldsOf<T>());
  }
}

template <class Enc, class T>
void Encode(Enc& enc, const T& value) {
  if constexpr (kIsWireWord<T>) {
    if constexpr (sizeof(T) == 8) {
      enc.PutU64(static_cast<std::uint64_t>(value));
    } else {
      enc.PutU32(static_cast<std::uint32_t>(value));
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    enc.PutString(value);
  } else if constexpr (std::is_same_v<T, Buffer>) {
    enc.PutOpaque(value);
  } else if constexpr (std::is_same_v<T, SharedBuffer>) {
    enc.PutOpaque(value.span());
  } else if constexpr (kIsWireVector<T>) {
    enc.PutU32(static_cast<std::uint32_t>(value.size()));
    for (const auto& element : value) Encode(enc, element);
  } else {
    std::apply([&](auto... field) { (Encode(enc, value.*field), ...); },
               FieldsOf<T>());
  }
}

template <class Dec, class T, class Last = std::nullptr_t>
Status DecodeFields(Dec& dec, T& msg, Last last = nullptr);

// Decodes a value of T's wire form into `out`, which starts out
// default-constructed.
template <class Dec, class T>
Status DecodeInto(Dec& dec, T& out) {
  if constexpr (kIsWireWord<T>) {
    if constexpr (sizeof(T) == 8) {
      DS_ASSIGN_OR_RETURN(std::uint64_t word, dec.GetU64());
      out = static_cast<T>(word);
    } else {
      DS_ASSIGN_OR_RETURN(std::uint32_t word, dec.GetU32());
      if constexpr (std::is_enum_v<T> && !std::is_same_v<T, AsId>) {
        constexpr WordRange range = WireRange(T{});
        if (word < range.lo || word > range.hi) {
          return InternalError(range.error);
        }
      }
      out = static_cast<T>(word);
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    DS_ASSIGN_OR_RETURN(out, dec.GetString());
  } else if constexpr (std::is_same_v<T, Buffer>) {
    DS_ASSIGN_OR_RETURN(out, dec.GetOpaque());
  } else if constexpr (std::is_same_v<T, SharedBuffer>) {
    if constexpr (requires { dec.GetSharedOpaque(); }) {
      DS_ASSIGN_OR_RETURN(out, dec.GetSharedOpaque());
    } else {
      DS_ASSIGN_OR_RETURN(Buffer bytes, dec.GetOpaque());
      out = SharedBuffer(std::move(bytes));
    }
  } else if constexpr (kIsWireVector<T>) {
    using Element = typename T::value_type;
    DS_ASSIGN_OR_RETURN(std::uint32_t count,
                        dec.GetCount(MinWireBytes<Element>()));
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      DS_RETURN_IF_ERROR(DecodeInto(dec, out.emplace_back()));
    }
  } else {
    return DecodeFields(dec, out);
  }
  return OkStatus();
}

// Decodes `msg`'s fields in wire order, stopping after the member
// `last` points to (nullptr: all of them).
template <class Dec, class T, class Last>
Status DecodeFields(Dec& dec, T& msg, Last last) {
  Status status;
  bool more = true;
  auto step = [&](auto field) {
    status = DecodeInto(dec, msg.*field);
    if constexpr (std::is_same_v<decltype(field), Last>) more = field != last;
    return status.ok() && more;
  };
  std::apply([&](auto... field) { (void)(step(field) && ...); },
             FieldsOf<T>());
  return status;
}

template <class T, class Dec>
Result<T> Decode(Dec& dec) {
  T out;
  DS_RETURN_IF_ERROR(DecodeInto(dec, out));
  return out;
}

// A request body that encodes `msg`, for the calls that take the body
// as a function of the encoder. It refers to `msg`, which must outlive
// it.
template <class T>
auto BodyOf(const T& msg) {
  return [&msg](auto& enc) { Encode(enc, msg); };
}

// ---- item.hpp's wire types ------------------------------------------------

constexpr auto WireFields(const GetSpec*) {
  return std::tuple(&GetSpec::kind, &GetSpec::ts);
}
constexpr auto WireFields(const ItemFilter*) {
  return std::tuple(&ItemFilter::stride, &ItemFilter::phase,
                    &ItemFilter::ts_min, &ItemFilter::ts_max,
                    &ItemFilter::min_bytes, &ItemFilter::max_bytes);
}
// A kGet reply's result fields.
constexpr auto WireFields(const ItemView*) {
  return std::tuple(&ItemView::timestamp, &ItemView::payload);
}
// kNsRegister's body and kNsLookup's result; kNsList's result is a
// vector of them.
constexpr auto WireFields(const NsEntry*) {
  return std::tuple(&NsEntry::name, &NsEntry::kind, &NsEntry::id_bits,
                    &NsEntry::meta, &NsEntry::owner_as);
}
constexpr auto WireFields(const SessionAttachment*) {
  return std::tuple(&SessionAttachment::container_bits,
                    &SessionAttachment::is_queue, &SessionAttachment::mode,
                    &SessionAttachment::slot, &SessionAttachment::label);
}
constexpr auto WireFields(const SessionGcInterest*) {
  return std::tuple(&SessionGcInterest::container_bits,
                    &SessionGcInterest::is_queue);
}
// kSessionPut's body and kSessionGet's result.
constexpr auto WireFields(const SessionRecord*) {
  return std::tuple(
      &SessionRecord::session_id, &SessionRecord::client_kind,
      &SessionRecord::client_name, &SessionRecord::host_as,
      &SessionRecord::last_executed_ticket, &SessionRecord::attachments,
      &SessionRecord::gc_interests, &SessionRecord::registered_names,
      &SessionRecord::redo_ticket, &SessionRecord::redo_payload);
}
// Forwarded by a surrogate to its end device in the notice trailer.
constexpr auto WireFields(const GcNotice*) {
  return std::tuple(&GcNotice::container_bits, &GcNotice::is_queue,
                    &GcNotice::timestamp, &GcNotice::payload_size);
}

// ---- per-op request bodies -------------------------------------------

struct CreateReq {  // kCreateChannel / kCreateQueue
  std::uint64_t capacity = 0;
  std::string debug_name;
};
constexpr auto WireFields(const CreateReq*) {
  return std::tuple(&CreateReq::capacity, &CreateReq::debug_name);
}

struct AttachReq {  // kAttach
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kInput;
  std::string label;
};
constexpr auto WireFields(const AttachReq*) {
  return std::tuple(&AttachReq::container_bits, &AttachReq::is_queue,
                    &AttachReq::mode, &AttachReq::label);
}

// The slot-addressed ops below (kDetach, kPut, kGet, kConsume,
// kSetFilter) all lead with the connection they name, through its
// slot; a surrogate decodes that far to translate the slot.

struct DetachReq {  // kDetach
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  std::uint32_t slot = 0;
};
constexpr auto WireFields(const DetachReq*) {
  return std::tuple(&DetachReq::container_bits, &DetachReq::is_queue,
                    &DetachReq::slot);
}

struct PutReq {  // kPut
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kOutput;  // of the issuing connection
  std::uint32_t slot = 0;
  Timestamp ts = 0;
  std::int64_t deadline_ms = kDeadlineInfinite;
  SharedBuffer payload;
};
constexpr auto WireFields(const PutReq*) {
  return std::tuple(&PutReq::container_bits, &PutReq::is_queue,
                    &PutReq::mode, &PutReq::slot, &PutReq::ts,
                    &PutReq::deadline_ms, &PutReq::payload);
}

struct GetReq {  // kGet
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kInput;
  std::uint32_t slot = 0;
  GetSpec spec;
  std::int64_t deadline_ms = kDeadlineInfinite;
};
constexpr auto WireFields(const GetReq*) {
  return std::tuple(&GetReq::container_bits, &GetReq::is_queue,
                    &GetReq::mode, &GetReq::slot, &GetReq::spec,
                    &GetReq::deadline_ms);
}

struct ConsumeReq {  // kConsume
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  ConnMode mode = ConnMode::kInput;
  std::uint32_t slot = 0;
  Timestamp ts = 0;
  bool until = false;  // ConsumeUntil instead of Consume
};
constexpr auto WireFields(const ConsumeReq*) {
  return std::tuple(&ConsumeReq::container_bits, &ConsumeReq::is_queue,
                    &ConsumeReq::mode, &ConsumeReq::slot, &ConsumeReq::ts,
                    &ConsumeReq::until);
}

struct SetFilterReq {  // kSetFilter (channels only)
  std::uint64_t container_bits = 0;
  std::uint32_t slot = 0;
  ItemFilter filter;
};
constexpr auto WireFields(const SetFilterReq*) {
  return std::tuple(&SetFilterReq::container_bits, &SetFilterReq::slot,
                    &SetFilterReq::filter);
}

struct SessionIdReq {  // kSessionGet / kSessionDrop
  std::uint64_t session_id = 0;
};
constexpr auto WireFields(const SessionIdReq*) {
  return std::tuple(&SessionIdReq::session_id);
}

struct SessionTickReq {  // kSessionTick
  std::uint64_t session_id = 0;
  std::uint64_t ticket = 0;
};
constexpr auto WireFields(const SessionTickReq*) {
  return std::tuple(&SessionTickReq::session_id, &SessionTickReq::ticket);
}

struct MetricsReq {  // kMetrics
  // Address space whose snapshot is wanted; the receiving space
  // forwards when it is not the target (same pattern as the NS ops,
  // so a TCP client can introspect any space through its surrogate).
  std::uint32_t target_as = 0;
};
constexpr auto WireFields(const MetricsReq*) {
  return std::tuple(&MetricsReq::target_as);
}

struct NsLookupReq {  // kNsLookup (also kNsUnregister: name only)
  std::string name;
  std::int64_t deadline_ms = 0;
};
constexpr auto WireFields(const NsLookupReq*) {
  return std::tuple(&NsLookupReq::name, &NsLookupReq::deadline_ms);
}

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
};
constexpr auto WireFields(const RepAppendReq*) {
  return std::tuple(&RepAppendReq::term, &RepAppendReq::leader_as,
                    &RepAppendReq::leader_last_index,
                    &RepAppendReq::first_index, &RepAppendReq::entries);
}

// kRepAppend ack body (after the status header): the follower's term
// and applied index, so the leader tracks replica lag and steps down
// on a stale term.
struct RepAppendAck {
  std::uint64_t term = 0;
  std::uint64_t applied_index = 0;
};
constexpr auto WireFields(const RepAppendAck*) {
  return std::tuple(&RepAppendAck::term, &RepAppendAck::applied_index);
}

struct RepFetchReq {  // kRepFetch: send me your log from this index on
  std::uint64_t from_index = 0;
};
constexpr auto WireFields(const RepFetchReq*) {
  return std::tuple(&RepFetchReq::from_index);
}

// kRepFetch reply body: the replica's term/applied index and every log
// entry it holds in [from_index, applied_index].
struct RepFetchResp {
  std::uint64_t term = 0;
  std::uint64_t applied_index = 0;
  std::uint64_t first_index = 0;  // index of entries[0]
  std::vector<Buffer> entries;
};
constexpr auto WireFields(const RepFetchResp*) {
  return std::tuple(&RepFetchResp::term, &RepFetchResp::applied_index,
                    &RepFetchResp::first_index, &RepFetchResp::entries);
}

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
// resolved the waiter — putter, consumer, timer wheel, shutdown).
Buffer EncodeStatusReply(std::uint64_t request_id, const Status& status);
// Successful kGet reply: status header + the item's fields.
Buffer EncodeItemReply(std::uint64_t request_id, const ItemView& item);
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
// its result fields (payloads as slices of the reply).
template <typename Read>
auto DecodeReply(const Result<SharedBuffer>& reply, Read read)
    -> decltype(read(std::declval<marshal::XdrDecoder&>())) {
  if (!reply.ok()) return reply.status();
  marshal::XdrDecoder dec(*reply);
  DS_ASSIGN_OR_RETURN(ResponseHeader hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  return read(dec);
}
// The same for an op whose reply carries no result fields.
Status ReplyStatus(const Result<SharedBuffer>& reply);

}  // namespace dstampede::core
