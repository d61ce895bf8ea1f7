// Client-plane protocol (§3.2.1): end devices exchange framed messages
// with their surrogate over TCP. STM operations reuse the core wire
// format verbatim (core/wire.hpp); this header adds the session ops
// (hello/bye), the GC-interest op, and the gc-notice trailer that the
// surrogate piggybacks on every response — the paper's "communicates it
// to the end device at an opportune time (e.g. when the next D-Stampede
// API call comes from the end device)" (§3.2.4).
//
// Decode helpers here, like core/wire.hpp's, are templated on the
// decoder so the C client (XdrDecoder, pointer manipulation) and the
// Java-style client (JavaStyleDecoder, object reconstruction) parse the
// same octets with their respective cost models.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "dstampede/common/status.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::client {

// Values disjoint from core::Op so one dispatch switch serves both.
enum class ClientOp : std::uint32_t {
  kHello = 200,
  kBye = 201,
  kSetGcInterest = 202,
  // Session resumption: re-binds an existing session after a dropped
  // connection, on the original surrogate if it is parked and alive,
  // or rehydrated from the name server's session registry on another
  // address space if the original host died.
  kResume = 203,
};

inline constexpr std::uint32_t kClientKindC = 0;
inline constexpr std::uint32_t kClientKindJava = 1;

struct HelloReq {
  std::uint32_t client_kind = kClientKindC;
  std::string name;
  // Preferred host address space (for controlled experiments); -1
  // lets the listener pick (round-robin over the cluster).
  std::int32_t preferred_as = -1;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU32(client_kind);
    enc.PutString(name);
    enc.PutI32(preferred_as);
  }
  static Result<HelloReq> Decode(marshal::XdrDecoder& dec) {
    HelloReq req;
    DS_ASSIGN_OR_RETURN(req.client_kind, dec.GetU32());
    DS_ASSIGN_OR_RETURN(req.name, dec.GetString());
    DS_ASSIGN_OR_RETURN(req.preferred_as, dec.GetI32());
    return req;
  }
};

struct ResumeReq {
  std::uint32_t client_kind = kClientKindC;
  std::uint64_t session_id = 0;
  // Highest ticket whose reply the client has fully received. The
  // surrogate uses it to dedup the replay of the in-flight call.
  std::uint64_t last_acked_ticket = 0;
  std::int32_t preferred_as = -1;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU32(client_kind);
    enc.PutU64(session_id);
    enc.PutU64(last_acked_ticket);
    enc.PutI32(preferred_as);
  }
  static Result<ResumeReq> Decode(marshal::XdrDecoder& dec) {
    ResumeReq req;
    DS_ASSIGN_OR_RETURN(req.client_kind, dec.GetU32());
    DS_ASSIGN_OR_RETURN(req.session_id, dec.GetU64());
    DS_ASSIGN_OR_RETURN(req.last_acked_ticket, dec.GetU64());
    DS_ASSIGN_OR_RETURN(req.preferred_as, dec.GetI32());
    return req;
  }
};

// One attachment whose surrogate-side slot changed across failover
// (the rehydrated surrogate re-attached and got fresh slots). new_slot
// == 0 means the attachment could not be restored (e.g. its container
// was owned by the dead address space).
struct SlotRemap {
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  std::uint32_t old_slot = 0;
  std::uint32_t new_slot = 0;
};

struct ResumeResp {
  std::uint32_t host_as = 0;
  std::uint64_t session_id = 0;
  std::uint64_t last_executed_ticket = 0;
  std::vector<SlotRemap> remaps;
};

// Encoded size of one remap, the bound for a decoded remap count:
// 8 + 4 + 4 + 4.
inline constexpr std::size_t kSlotRemapBytes = 20;

template <class Enc>
void EncodeResumeResp(Enc& enc, const ResumeResp& resp) {
  enc.PutU32(resp.host_as);
  enc.PutU64(resp.session_id);
  enc.PutU64(resp.last_executed_ticket);
  enc.PutU32(static_cast<std::uint32_t>(resp.remaps.size()));
  for (const auto& r : resp.remaps) {
    enc.PutU64(r.container_bits);
    enc.PutBool(r.is_queue);
    enc.PutU32(r.old_slot);
    enc.PutU32(r.new_slot);
  }
}

template <class Dec>
Result<ResumeResp> DecodeResumeRespT(Dec& dec) {
  ResumeResp resp;
  DS_ASSIGN_OR_RETURN(resp.host_as, dec.GetU32());
  DS_ASSIGN_OR_RETURN(resp.session_id, dec.GetU64());
  DS_ASSIGN_OR_RETURN(resp.last_executed_ticket, dec.GetU64());
  DS_ASSIGN_OR_RETURN(std::uint32_t count, dec.GetCount(kSlotRemapBytes));
  resp.remaps.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SlotRemap r;
    DS_ASSIGN_OR_RETURN(r.container_bits, dec.GetU64());
    DS_ASSIGN_OR_RETURN(r.is_queue, dec.GetBool());
    DS_ASSIGN_OR_RETURN(r.old_slot, dec.GetU32());
    DS_ASSIGN_OR_RETURN(r.new_slot, dec.GetU32());
    resp.remaps.push_back(r);
  }
  return resp;
}

struct SetGcInterestReq {
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  bool enable = true;

  template <class Enc>
  void Encode(Enc& enc) const {
    enc.PutU64(container_bits);
    enc.PutBool(is_queue);
    enc.PutBool(enable);
  }
  static Result<SetGcInterestReq> Decode(marshal::XdrDecoder& dec) {
    SetGcInterestReq req;
    DS_ASSIGN_OR_RETURN(req.container_bits, dec.GetU64());
    DS_ASSIGN_OR_RETURN(req.is_queue, dec.GetBool());
    DS_ASSIGN_OR_RETURN(req.enable, dec.GetBool());
    return req;
  }
};

// The notice trailer is the LAST section of every response frame.
template <class Enc>
void EncodeNoticeTrailer(Enc& enc, const std::vector<core::GcNotice>& notices) {
  enc.PutU32(static_cast<std::uint32_t>(notices.size()));
  for (const auto& notice : notices) core::EncodeGcNotice(enc, notice);
}

template <class Dec>
Result<std::vector<core::GcNotice>> DecodeNoticeTrailerT(Dec& dec) {
  DS_ASSIGN_OR_RETURN(std::uint32_t count,
                      dec.GetCount(core::kGcNoticeBytes));
  std::vector<core::GcNotice> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(core::GcNotice notice, core::DecodeGcNotice(dec));
    out.push_back(notice);
  }
  return out;
}

// The client's parse of one reply frame, or of the transport failure
// that stands in for one: core::DecodeReply plus the notice trailer.
// Returns the failure, the reply's error status, or what `read(dec)`
// decodes from the result fields. The trailer's notices are appended to
// `notices`, after an error status too, but not after result fields
// that fail to decode (the trailer's position is then unknown).
template <class Dec, class Read>
std::invoke_result_t<Read&, Dec&> DecodeClientReply(
    const Result<Buffer>& reply, Read read,
    std::vector<core::GcNotice>& notices) {
  if (!reply.ok()) return reply.status();
  Dec dec(*reply);
  DS_ASSIGN_OR_RETURN(core::ResponseHeader hdr,
                      core::DecodeResponseHeader(dec));
  auto take_trailer = [&] {
    auto trailer = DecodeNoticeTrailerT(dec);
    if (trailer.ok()) {
      notices.insert(notices.end(), trailer->begin(), trailer->end());
    }
  };
  if (!hdr.status.ok()) {
    take_trailer();
    return hdr.status;
  }
  auto result = read(dec);
  if (result.ok()) take_trailer();
  return result;
}

}  // namespace dstampede::client
