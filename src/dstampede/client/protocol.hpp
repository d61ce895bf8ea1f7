// Client-plane protocol (§3.2.1): end devices exchange framed messages
// with their surrogate over TCP. STM operations reuse the core wire
// format verbatim (core/wire.hpp); this header adds the session ops
// (hello/bye), the GC-interest op, and the gc-notice trailer that the
// surrogate piggybacks on every response — the paper's "communicates it
// to the end device at an opportune time (e.g. when the next D-Stampede
// API call comes from the end device)" (§3.2.4).
//
// Its messages declare their field lists as core/wire.hpp's do, so
// core's generic codec serves both the C client (XdrDecoder, pointer
// manipulation) and the Java-style client (JavaStyleDecoder, object
// reconstruction), which parse the same octets with their respective
// cost models.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
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
};
constexpr auto WireFields(const HelloReq*) {
  return std::tuple(&HelloReq::client_kind, &HelloReq::name,
                    &HelloReq::preferred_as);
}

struct ResumeReq {
  std::uint32_t client_kind = kClientKindC;
  std::uint64_t session_id = 0;
  // Highest ticket whose reply the client has fully received. The
  // surrogate uses it to dedup the replay of the in-flight call.
  std::uint64_t last_acked_ticket = 0;
  std::int32_t preferred_as = -1;
};
constexpr auto WireFields(const ResumeReq*) {
  return std::tuple(&ResumeReq::client_kind, &ResumeReq::session_id,
                    &ResumeReq::last_acked_ticket, &ResumeReq::preferred_as);
}

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
constexpr auto WireFields(const SlotRemap*) {
  return std::tuple(&SlotRemap::container_bits, &SlotRemap::is_queue,
                    &SlotRemap::old_slot, &SlotRemap::new_slot);
}

// A Resume reply's result fields.
struct ResumeResp {
  std::uint32_t host_as = 0;
  std::uint64_t session_id = 0;
  std::uint64_t last_executed_ticket = 0;
  std::vector<SlotRemap> remaps;
};
constexpr auto WireFields(const ResumeResp*) {
  return std::tuple(&ResumeResp::host_as, &ResumeResp::session_id,
                    &ResumeResp::last_executed_ticket, &ResumeResp::remaps);
}

struct SetGcInterestReq {
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  bool enable = true;
};
constexpr auto WireFields(const SetGcInterestReq*) {
  return std::tuple(&SetGcInterestReq::container_bits,
                    &SetGcInterestReq::is_queue, &SetGcInterestReq::enable);
}

// The client's parse of one reply frame, or of the transport failure
// that stands in for one: core::DecodeReply plus the notice trailer, a
// std::vector<core::GcNotice> that is the LAST section of every
// response frame.
// Returns the failure, the reply's error status, or what `read(dec)`
// decodes from the result fields (an XdrDecoder's payloads as slices of
// the reply). The trailer's notices are appended to `notices`, after an
// error status too, but not after result fields that fail to decode
// (the trailer's position is then unknown).
template <class Dec, class Read>
std::invoke_result_t<Read&, Dec&> DecodeClientReply(
    const Result<SharedBuffer>& reply, Read read,
    std::vector<core::GcNotice>& notices) {
  if (!reply.ok()) return reply.status();
  Dec dec(*reply);
  DS_ASSIGN_OR_RETURN(core::ResponseHeader hdr,
                      core::DecodeResponseHeader(dec));
  auto take_trailer = [&] {
    auto trailer = core::Decode<std::vector<core::GcNotice>>(dec);
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
