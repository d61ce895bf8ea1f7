// Golden wire bytes: one request of every Op, sent through the request
// executor a surrogate uses, with the request and reply bytes compared
// against hex literals. End devices and peer address spaces speak this
// format, so a refactor of how requests are decoded and served must
// leave every byte here as it is. The replication ops are refused from
// end devices, so their four bodies are pinned by encoding them
// directly; the session-registry ops are refused too, and their
// requests are pinned beside their refusals.
//
// Names and prefixes avoid the runtime's own sys/ advertisements, whose
// meta carries a port that changes from run to run.
#include <gtest/gtest.h>

#include <string>

#include "dstampede/core/runtime.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::core {
namespace {

std::string Hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// Encodes one request: header, then the body `encode` writes.
template <typename EncodeBody>
Buffer Request(Op op, std::uint64_t request_id, EncodeBody encode) {
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, op, request_id);
  encode(enc);
  return enc.Take();
}

class GoldenExchange {
 public:
  explicit GoldenExchange(AddressSpace& as) : as_(as) {}

  // Checks the request bytes, executes it and checks the reply bytes.
  // `reply_prefix_bytes` limits the reply check to a prefix (0: all).
  Buffer Exchange(const char* what, const Buffer& request,
                  const std::string& request_hex, const std::string& reply_hex,
                  std::size_t reply_prefix_bytes = 0) {
    EXPECT_EQ(Hex(request), request_hex) << what << " request";
    Buffer reply = as_.ExecuteWireRequest(request);
    std::span<const std::uint8_t> checked(reply);
    if (reply_prefix_bytes != 0 && reply.size() >= reply_prefix_bytes) {
      checked = checked.first(reply_prefix_bytes);
    }
    EXPECT_EQ(Hex(checked), reply_hex) << what << " reply";
    return reply;
  }

 private:
  AddressSpace& as_;
};

TEST(WireTest, GoldenBytesOfEveryOpThroughTheExecutor) {
  Runtime::Options opts;
  opts.num_address_spaces = 1;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  AddressSpace& as = (*rt)->as(0);
  GoldenExchange x(as);

  // The first two containers of a fresh space take slots 1 and 2.
  const std::uint64_t ch = ChannelId(as.id(), 1).bits();
  const std::uint64_t q = QueueId(as.id(), 2).bits();

  x.Exchange("kCreateChannel",
             Request(Op::kCreateChannel, 1,
                     [](auto& enc) {
                       CreateReq req;
                       req.debug_name = "golden-ch";
                       Encode(enc, req);
                     }),
             "000000010000000000000001000000000000000000000009676f6c64656e2d6368000000",
             "00000064000000000000000100000000000000000000000000000001");
  x.Exchange("kCreateQueue",
             Request(Op::kCreateQueue, 2,
                     [](auto& enc) {
                       CreateReq req;
                       req.capacity = 4;
                       req.debug_name = "golden-q";
                       Encode(enc, req);
                     }),
             "000000020000000000000002000000000000000400000008676f6c64656e2d71",
             "00000064000000000000000200000000000000000000000000000002");
  x.Exchange("kAttach",
             Request(Op::kAttach, 3,
                     [&](auto& enc) {
                       AttachReq req;
                       req.container_bits = ch;
                       req.mode = ConnMode::kInputOutput;
                       req.label = "golden-io";
                       Encode(enc, req);
                     }),
             "0000000300000000000000030000000000000001000000000000000300000009676f6c64656e2d696f000000",
             "000000640000000000000003000000000000000000000001");
  // The attach above is the channel's first connection: slot 1.
  constexpr std::uint32_t kSlot = 1;
  x.Exchange("kPut",
             Request(Op::kPut, 4,
                     [&](auto& enc) {
                       PutReq req;
                       req.container_bits = ch;
                       req.mode = ConnMode::kInputOutput;
                       req.slot = kSlot;
                       req.ts = 7;
                       req.deadline_ms = 0;
                       req.payload = Buffer{'g', 'o', 'l', 'd', 'e', 'n'};
                       Encode(enc, req);
                     }),
             "00000005000000000000000400000000000000010000000000000003000000010000000000000007000000000000000000000006676f6c64656e0000",
             "0000006400000000000000040000000000000000");
  x.Exchange("kGet",
             Request(Op::kGet, 5,
                     [&](auto& enc) {
                       GetReq req;
                       req.container_bits = ch;
                       req.mode = ConnMode::kInputOutput;
                       req.slot = kSlot;
                       req.spec = GetSpec::Exact(7);
                       req.deadline_ms = 0;
                       Encode(enc, req);
                     }),
             "00000006000000000000000500000000000000010000000000000003000000010000000000000000000000070000000000000000",
             "0000006400000000000000050000000000000000000000000000000700000006676f6c64656e0000");
  x.Exchange("kConsume",
             Request(Op::kConsume, 6,
                     [&](auto& enc) {
                       ConsumeReq req;
                       req.container_bits = ch;
                       req.mode = ConnMode::kInputOutput;
                       req.slot = kSlot;
                       req.ts = 7;
                       Encode(enc, req);
                     }),
             "0000000700000000000000060000000000000001000000000000000300000001000000000000000700000000",
             "0000006400000000000000060000000000000000");
  x.Exchange("kSetFilter",
             Request(Op::kSetFilter, 7,
                     [&](auto& enc) {
                       SetFilterReq req;
                       req.container_bits = ch;
                       req.slot = kSlot;
                       req.filter.stride = 2;
                       req.filter.ts_min = 8;
                       req.filter.max_bytes = 1024;
                       Encode(enc, req);
                     }),
             "0000000c00000000000000070000000000000001000000010000000000000002000000000000000000000000000000087fffffffffffffff00000000000000000000000000000400",
             "0000006400000000000000070000000000000000");
  x.Exchange("kDetach",
             Request(Op::kDetach, 8,
                     [&](auto& enc) {
                       DetachReq req;
                       req.container_bits = ch;
                       req.slot = kSlot;
                       Encode(enc, req);
                     }),
             "00000004000000000000000800000000000000010000000000000001",
             "0000006400000000000000080000000000000000");

  x.Exchange("kNsRegister",
             Request(Op::kNsRegister, 9,
                     [&](auto& enc) {
                       NsEntry entry;
                       entry.name = "golden/cam";
                       entry.kind = NsEntry::Kind::kQueue;
                       entry.id_bits = q;
                       entry.meta = "frames";
                       Encode(enc, entry);
                     }),
             "0000000800000000000000090000000a676f6c64656e2f63616d0000000000010000000000000002000000066672616d65730000ffffffff",
             "0000006400000000000000090000000000000000");
  x.Exchange("kNsLookup",
             Request(Op::kNsLookup, 10,
                     [](auto& enc) {
                       NsLookupReq req;
                       req.name = "golden/cam";
                       Encode(enc, req);
                     }),
             "00000009000000000000000a0000000a676f6c64656e2f63616d00000000000000000000",
             "00000064000000000000000a00000000000000000000000a676f6c64656e2f63616d0000000000010000000000000002000000066672616d6573000000000000");
  x.Exchange("kNsList",
             Request(Op::kNsList, 11,
                     [](auto& enc) {
                       NsLookupReq req;
                       req.name = "golden/";
                       Encode(enc, req);
                     }),
             "0000000b000000000000000b00000007676f6c64656e2f000000000000000000",
             "00000064000000000000000b0000000000000000000000010000000a676f6c64656e2f63616d0000000000010000000000000002000000066672616d6573000000000000");
  x.Exchange("kNsUnregister",
             Request(Op::kNsUnregister, 12,
                     [](auto& enc) {
                       NsLookupReq req;
                       req.name = "golden/cam";
                       Encode(enc, req);
                     }),
             "0000000a000000000000000c0000000a676f6c64656e2f63616d00000000000000000000",
             "00000064000000000000000c0000000000000000");

  // A device is refused the session-registry ops (surrogates and
  // listeners reach the registry through AddressSpace::Session*); their
  // request bodies, which peers still exchange, stay pinned here.
  x.Exchange("kSessionPut",
             Request(Op::kSessionPut, 13,
                     [&](auto& enc) {
                       SessionRecord rec;
                       rec.session_id = 42;
                       rec.client_kind = 1;
                       rec.client_name = "dev";
                       rec.host_as = as.id();
                       rec.last_executed_ticket = 3;
                       rec.attachments.push_back(
                           SessionAttachment{ch, false, 3, 5, "io"});
                       rec.gc_interests.push_back(SessionGcInterest{q, true});
                       rec.registered_names.push_back("golden/cam");
                       rec.redo_ticket = 2;
                       rec.redo_payload = Buffer{0xab, 0xcd};
                       Encode(enc, rec);
                     }),
             "0000000d000000000000000d000000000000002a00000001000000036465760000000000000000000000000300000001000000000000000100000000000000030000000500000002696f000000000001000000000000000200000001000000010000000a676f6c64656e2f63616d0000000000000000000200000002abcd0000",
             "00000064000000000000000d000000050000001373657373696f6e2d7265676973747279206f7000");
  x.Exchange("kSessionTick",
             Request(Op::kSessionTick, 14,
                     [](auto& enc) {
                       SessionTickReq req;
                       req.session_id = 42;
                       req.ticket = 9;
                       Encode(enc, req);
                     }),
             "00000010000000000000000e000000000000002a0000000000000009",
             "00000064000000000000000e000000050000001373657373696f6e2d7265676973747279206f7000");
  x.Exchange("kSessionGet",
             Request(Op::kSessionGet, 15,
                     [](auto& enc) {
                       SessionIdReq req;
                       req.session_id = 42;
                       Encode(enc, req);
                     }),
             "0000000e000000000000000f000000000000002a",
             "00000064000000000000000f000000050000001373657373696f6e2d7265676973747279206f7000");
  x.Exchange("kSessionDrop",
             Request(Op::kSessionDrop, 16,
                     [](auto& enc) {
                       SessionIdReq req;
                       req.session_id = 42;
                       Encode(enc, req);
                     }),
             "0000000f0000000000000010000000000000002a",
             "000000640000000000000010000000050000001373657373696f6e2d7265676973747279206f7000");

  // The snapshot JSON varies; its reply header does not:
  // op, request id, status code and an empty status message.
  x.Exchange("kMetrics",
             Request(Op::kMetrics, 17,
                     [&](auto& enc) {
                       MetricsReq req;
                       req.target_as = AsIndex(as.id());
                       Encode(enc, req);
                     }),
             "00000011000000000000001100000000",
             "0000006400000000000000110000000000000000", /*reply_prefix_bytes=*/20);
  // A reply frame is not a request.
  x.Exchange("kReply", Request(Op::kReply, 18, [](auto&) {}),
             "000000640000000000000012",
             "0000006400000000000000120000000c0000000a756e6b6e6f776e206f700000");
}

TEST(WireTest, GoldenBytesOfTheReplicationBodies) {
  RepAppendReq append;
  append.term = 3;
  append.leader_as = 1;
  append.leader_last_index = 9;
  append.first_index = 8;
  append.entries = {Buffer{0x01, 0x02}, Buffer{0x03}};
  marshal::XdrEncoder append_enc;
  Encode(append_enc, append);
  EXPECT_EQ(Hex(append_enc.buffer()),
            "000000000000000300000001000000000000000900000000000000080000000200000002010200000000000103000000");

  RepAppendAck ack;
  ack.term = 3;
  ack.applied_index = 9;
  marshal::XdrEncoder ack_enc;
  Encode(ack_enc, ack);
  EXPECT_EQ(Hex(ack_enc.buffer()),
            "00000000000000030000000000000009");

  RepFetchReq fetch;
  fetch.from_index = 5;
  marshal::XdrEncoder fetch_enc;
  Encode(fetch_enc, fetch);
  EXPECT_EQ(Hex(fetch_enc.buffer()),
            "0000000000000005");

  RepFetchResp resp;
  resp.term = 3;
  resp.applied_index = 6;
  resp.first_index = 5;
  resp.entries = {Buffer{0xee, 0xff, 0x00}, Buffer{}};
  marshal::XdrEncoder resp_enc;
  Encode(resp_enc, resp);
  EXPECT_EQ(Hex(resp_enc.buffer()),
            "0000000000000003000000000000000600000000000000050000000200000003eeff000000000000");
}

}  // namespace
}  // namespace dstampede::core
