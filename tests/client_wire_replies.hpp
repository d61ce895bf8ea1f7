// Canned surrogate replies for the client wire tests: one valid reply to
// every request a client session sends, each ending in a two-notice
// trailer. ClientWireTest answers a live client with them;
// ClientReplyFuzzTest mutates them. Both codecs read the same octets.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "dstampede/client/protocol.hpp"
#include "dstampede/core/wire.hpp"
#include "dstampede/marshal/xdr.hpp"

namespace dstampede::client::golden {

inline std::string Hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// What the canned replies answer with.
inline constexpr std::uint32_t kHostAs = 2;
inline constexpr std::uint64_t kSessionId = 42;
inline const std::uint64_t kChannelBits = ChannelId(AsId{2}, 5).bits();
inline const std::uint64_t kQueueBits = QueueId(AsId{2}, 6).bits();
inline constexpr std::uint32_t kSlot = 3;
inline constexpr Timestamp kItemTs = 7;
inline const std::string kItemPayload = "frame-7";
inline const std::string kMetricsJson = "{\"as\":1}";
// kNsUnregister is answered with this error, trailer included.
inline constexpr std::uint32_t kUnregisterCode =
    static_cast<std::uint32_t>(StatusCode::kNotFound);
inline const std::string kUnregisterMessage = "no such name";
// Every trailer carries these two notices for the channel.
inline constexpr Timestamp kNoticeTs[2] = {5, 6};
inline constexpr std::uint64_t kNoticeBytes[2] = {100, 200};

inline void PutEntry(marshal::XdrEncoder& enc, const std::string& name,
                     std::uint32_t kind, std::uint64_t bits,
                     const std::string& meta, std::uint32_t owner) {
  enc.PutString(name);
  enc.PutU32(kind);
  enc.PutU64(bits);
  enc.PutString(meta);
  enc.PutU32(owner);
}

// The reply to request `op` (a core::Op or ClientOp value) with id `id`,
// written field by field so the replies do not depend on the encoders
// under test.
inline Buffer CannedReply(std::uint32_t op, std::uint64_t id) {
  marshal::XdrEncoder enc;
  enc.PutU32(100);  // kReply
  enc.PutU64(id);
  if (op == static_cast<std::uint32_t>(core::Op::kNsUnregister)) {
    enc.PutU32(kUnregisterCode);
    enc.PutString(kUnregisterMessage);
  } else {
    enc.PutU32(0);
    enc.PutString("");
  }
  switch (op) {
    case static_cast<std::uint32_t>(ClientOp::kHello):
      enc.PutU32(kHostAs);
      enc.PutU64(kSessionId);
      break;
    case static_cast<std::uint32_t>(core::Op::kCreateChannel):
      enc.PutU64(kChannelBits);
      break;
    case static_cast<std::uint32_t>(core::Op::kCreateQueue):
      enc.PutU64(kQueueBits);
      break;
    case static_cast<std::uint32_t>(core::Op::kAttach):
      enc.PutU32(kSlot);
      break;
    case static_cast<std::uint32_t>(core::Op::kGet):
      enc.PutI64(kItemTs);
      enc.PutString(kItemPayload);  // same octets as an opaque
      break;
    case static_cast<std::uint32_t>(core::Op::kNsLookup):
      PutEntry(enc, "cam", 0, kChannelBits, "camera", 2);
      break;
    case static_cast<std::uint32_t>(core::Op::kNsList):
      enc.PutU32(2);
      PutEntry(enc, "sys/listener/9", 2, 9, "127.0.0.1:9", 0);
      PutEntry(enc, "cam", 0, kChannelBits, "camera", 2);
      break;
    case static_cast<std::uint32_t>(core::Op::kMetrics):
      enc.PutString(kMetricsJson);
      break;
    default:
      break;  // status only
  }
  enc.PutU32(2);
  for (int i = 0; i < 2; ++i) {
    enc.PutU64(kChannelBits);
    enc.PutBool(false);
    enc.PutI64(kNoticeTs[i]);
    enc.PutU64(kNoticeBytes[i]);
  }
  return enc.Take();
}

}  // namespace dstampede::client::golden
