// Wire protocol: encode/decode round trips for every request type,
// response envelopes, deadline mapping, and robustness fuzzing —
// truncated or corrupted frames must come back as status errors, never
// crashes or hangs (a hostile or buggy peer cannot take down an
// address space).
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "client_wire_replies.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/client/protocol.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::core {
namespace {

TEST(WireTest, RequestHeaderRoundTrip) {
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kPut, 0xDEADBEEFCAFEULL);
  marshal::XdrDecoder dec(enc.buffer());
  auto hdr = DecodeRequestHeader(dec);
  ASSERT_TRUE(hdr.ok());
  EXPECT_EQ(hdr->op, Op::kPut);
  EXPECT_EQ(hdr->request_id, 0xDEADBEEFCAFEULL);
}

TEST(WireTest, ResponseHeaderCarriesStatus) {
  marshal::XdrEncoder enc;
  EncodeResponseHeader(enc, 77, TimeoutError("too slow"));
  marshal::XdrDecoder dec(enc.buffer());
  auto hdr = DecodeResponseHeader(dec);
  ASSERT_TRUE(hdr.ok());
  EXPECT_EQ(hdr->request_id, 77u);
  EXPECT_EQ(hdr->status.code(), StatusCode::kTimeout);
  EXPECT_EQ(hdr->status.message(), "too slow");
}

TEST(WireTest, NonReplyFrameRejectedAsResponse) {
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kGet, 1);
  marshal::XdrDecoder dec(enc.buffer());
  EXPECT_FALSE(DecodeResponseHeader(dec).ok());
}

TEST(WireTest, PutReqRoundTrip) {
  PutReq req;
  req.container_bits = 0x12345678ABCDEF00ULL;
  req.is_queue = true;
  req.mode = ConnMode::kInputOutput;
  req.slot = 99;
  req.ts = -5;
  req.deadline_ms = 1234;
  req.payload = {9, 8, 7};
  marshal::XdrEncoder enc;
  Encode(enc, req);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = Decode<PutReq>(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->container_bits, req.container_bits);
  EXPECT_TRUE(decoded->is_queue);
  EXPECT_EQ(decoded->mode, ConnMode::kInputOutput);
  EXPECT_EQ(decoded->slot, 99u);
  EXPECT_EQ(decoded->ts, -5);
  EXPECT_EQ(decoded->deadline_ms, 1234);
  EXPECT_EQ(decoded->payload, req.payload);
}

// True when `slice` is empty or its bytes lie inside `owner`'s.
bool Inside(const SharedBuffer& slice, const SharedBuffer& owner) {
  return slice.empty() ||
         (slice.data() >= owner.data() &&
          slice.data() + slice.size() <= owner.data() + owner.size());
}

TEST(WireTest, OwnedDecodeSlicesPayloadsInsideTheFrame) {
  PutReq req;
  req.ts = 3;
  req.payload = Buffer(1000, 0x42);
  marshal::XdrEncoder put_enc;
  Encode(put_enc, req);
  const SharedBuffer put_frame(put_enc.Take());
  marshal::XdrDecoder put_dec(put_frame);
  auto put = Decode<PutReq>(put_dec);
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(put->payload, req.payload);
  EXPECT_TRUE(Inside(put->payload, put_frame));
  EXPECT_NE(put->payload.data(), put_frame.data());
  EXPECT_EQ(put->payload.capacity(), put_frame.capacity());

  const ItemView item{9, SharedBuffer(Buffer(77, 0x17))};
  const SharedBuffer reply(EncodeItemReply(5, item));
  auto view = DecodeReply(Result<SharedBuffer>(reply),
                          Decode<ItemView, marshal::XdrDecoder>);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->timestamp, 9);
  EXPECT_EQ(view->payload, item.payload);
  EXPECT_TRUE(Inside(view->payload, reply));

  // A decoder over bare bytes has no owner to share: it copies.
  marshal::XdrDecoder copying(put_frame.span());
  auto copied = Decode<PutReq>(copying);
  ASSERT_TRUE(copied.ok()) << copied.status();
  EXPECT_EQ(copied->payload, req.payload);
  EXPECT_FALSE(Inside(copied->payload, put_frame));
}

TEST(WireTest, GetReqRoundTrip) {
  GetReq req;
  req.container_bits = 42;
  req.mode = ConnMode::kInput;
  req.slot = 3;
  req.spec = GetSpec::NextAfter(17);
  req.deadline_ms = kDeadlineInfinite;
  marshal::XdrEncoder enc;
  Encode(enc, req);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = Decode<GetReq>(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->spec.kind, GetSpec::Kind::kNextAfter);
  EXPECT_EQ(decoded->spec.ts, 17);
  EXPECT_EQ(decoded->deadline_ms, kDeadlineInfinite);
}

TEST(WireTest, AttachReqRejectsBadMode) {
  marshal::XdrEncoder enc;
  enc.PutU64(1);
  enc.PutBool(false);
  enc.PutU32(99);  // invalid ConnMode
  enc.PutString("x");
  marshal::XdrDecoder dec(enc.buffer());
  EXPECT_FALSE(Decode<AttachReq>(dec).ok());
}

TEST(WireTest, SetFilterReqRoundTrip) {
  SetFilterReq req;
  req.container_bits = 5;
  req.slot = 2;
  req.filter.stride = 4;
  req.filter.phase = 1;
  req.filter.ts_min = -10;
  req.filter.ts_max = 10;
  req.filter.min_bytes = 16;
  req.filter.max_bytes = 1024;
  marshal::XdrEncoder enc;
  Encode(enc, req);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = Decode<SetFilterReq>(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->filter.stride, 4);
  EXPECT_EQ(decoded->filter.phase, 1);
  EXPECT_EQ(decoded->filter.ts_min, -10);
  EXPECT_EQ(decoded->filter.max_bytes, 1024u);
}

TEST(WireTest, DeadlineMapping) {
  EXPECT_EQ(EncodeDeadline(Deadline::Infinite()), kDeadlineInfinite);
  EXPECT_EQ(EncodeDeadline(Deadline::Poll()), 0);
  const std::int64_t ms = EncodeDeadline(Deadline::AfterMillis(5000));
  EXPECT_GT(ms, 4000);
  EXPECT_LE(ms, 5000);
  EXPECT_TRUE(DecodeDeadline(kDeadlineInfinite).infinite());
  EXPECT_TRUE(DecodeDeadline(0).expired());
  EXPECT_FALSE(DecodeDeadline(10000).expired());
  // A value no TimePoint can hold means forever rather than overflowing.
  EXPECT_TRUE(
      DecodeDeadline(std::numeric_limits<std::int64_t>::max()).infinite());
}

TEST(WireTest, GcNoticeRoundTrip) {
  GcNotice notice{0xABCDEF, true, -42, 190 * 1024};
  marshal::XdrEncoder enc;
  Encode(enc, notice);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = Decode<GcNotice>(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->container_bits, notice.container_bits);
  EXPECT_TRUE(decoded->is_queue);
  EXPECT_EQ(decoded->timestamp, -42);
  EXPECT_EQ(decoded->payload_size, notice.payload_size);
}

// --- bounded counts --------------------------------------------------------
//
// A decoded count is a u32 the peer chose, and reserve() on a hostile
// one throws bad_alloc, which kills the process. GetCount refuses a
// count the remaining bytes cannot hold, given the smallest encoding of
// one element; these tests pin those minimums to the encoders and
// drive the client's reply decoders with both codecs.

TEST(WireTest, CountBoundsMatchTheSmallestEncodings) {
  auto encoded_size = [](const auto& value) {
    marshal::XdrEncoder enc;
    Encode(enc, value);
    return enc.size();
  };
  EXPECT_EQ(encoded_size(NsEntry{}), MinWireBytes<NsEntry>());
  EXPECT_EQ(encoded_size(GcNotice{}), MinWireBytes<GcNotice>());
  client::ResumeResp resp;
  const std::size_t resp_size = encoded_size(resp);
  resp.remaps.push_back(client::SlotRemap{});
  EXPECT_EQ(encoded_size(resp) - resp_size, MinWireBytes<client::SlotRemap>());

  // Each session-record element and each log entry, against the same
  // record or body without it.
  const SessionRecord bare;
  const std::size_t bare_size = encoded_size(bare);
  SessionRecord attached = bare;
  attached.attachments.emplace_back();
  EXPECT_EQ(encoded_size(attached) - bare_size,
            MinWireBytes<SessionAttachment>());
  SessionRecord interested = bare;
  interested.gc_interests.emplace_back();
  EXPECT_EQ(encoded_size(interested) - bare_size,
            MinWireBytes<SessionGcInterest>());
  SessionRecord named = bare;
  named.registered_names.emplace_back();
  EXPECT_EQ(encoded_size(named) - bare_size, MinWireBytes<std::string>());
  RepAppendReq append;
  const std::size_t append_size = encoded_size(append);
  append.entries.emplace_back();
  EXPECT_EQ(encoded_size(append) - append_size, MinWireBytes<Buffer>());
  RepFetchResp fetched;
  const std::size_t fetched_size = encoded_size(fetched);
  fetched.entries.emplace_back();
  EXPECT_EQ(encoded_size(fetched) - fetched_size, MinWireBytes<Buffer>());
}

TEST(WireTest, HostileSessionAndLogCountsFailBeforeReserving) {
  const std::string kRefusal = "count exceeds the remaining bytes";
  // A session record that claims 2^20 attachments in a short frame.
  marshal::XdrEncoder record;
  record.PutU64(7);     // session_id
  record.PutU32(0);     // client_kind
  record.PutString("");  // client_name
  record.PutU32(0);     // host_as
  record.PutU64(0);     // last_executed_ticket
  record.PutU32(1u << 20);
  record.PutU64(0);
  const Buffer record_frame = record.Take();
  marshal::XdrDecoder record_dec(record_frame);
  auto rec = Decode<SessionRecord>(record_dec);
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.status().message().find(kRefusal), std::string::npos)
      << rec.status();

  // Replication bodies that claim 2^20 log entries.
  marshal::XdrEncoder append;
  append.PutU64(1);  // term
  append.PutU32(0);  // leader_as
  append.PutU64(0);  // leader_last_index
  append.PutU64(1);  // first_index
  append.PutU32(1u << 20);
  const Buffer append_frame = append.Take();
  marshal::XdrDecoder append_dec(append_frame);
  auto req = Decode<RepAppendReq>(append_dec);
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find(kRefusal), std::string::npos)
      << req.status();

  marshal::XdrEncoder fetched;
  fetched.PutU64(1);  // term
  fetched.PutU64(0);  // applied_index
  fetched.PutU64(1);  // first_index
  fetched.PutU32(1u << 20);
  const Buffer fetched_frame = fetched.Take();
  marshal::XdrDecoder fetched_dec(fetched_frame);
  auto resp = Decode<RepFetchResp>(fetched_dec);
  ASSERT_FALSE(resp.ok());
  EXPECT_NE(resp.status().message().find(kRefusal), std::string::npos)
      << resp.status();
}

TEST(WireTest, GetCountRefusesWhatTheRemainingBytesCannotHold) {
  marshal::XdrEncoder enc;
  enc.PutU32(2);
  enc.PutU64(0);  // 8 bytes left: room for two 4-byte elements, not 3
  const Buffer frame = enc.Take();
  marshal::XdrDecoder fits(frame);
  EXPECT_EQ(fits.GetCount(4).value_or(0), 2u);
  marshal::XdrDecoder too_big(frame);
  EXPECT_FALSE(too_big.GetCount(5).ok());
}

template <typename Codec>
class HostileCountTest : public ::testing::Test {};
using ClientCodecs = ::testing::Types<client::CCodec, client::JavaCodec>;
TYPED_TEST_SUITE(HostileCountTest, ClientCodecs);

TYPED_TEST(HostileCountTest, NoticeTrailerCountIsAStatus) {
  const Buffer frame = {0xff, 0xff, 0xff, 0xff};
  typename TypeParam::Decoder dec(frame);
  EXPECT_FALSE(Decode<std::vector<GcNotice>>(dec).ok());
}

TYPED_TEST(HostileCountTest, ResumeRemapCountIsAStatus) {
  typename TypeParam::Encoder enc;
  enc.PutU32(1);  // host_as
  enc.PutU64(7);  // session_id
  enc.PutU64(0);  // last_executed_ticket
  enc.PutU32(0xffffffffu);
  const Buffer frame = enc.Take();
  typename TypeParam::Decoder dec(frame);
  EXPECT_FALSE(Decode<client::ResumeResp>(dec).ok());
}

TYPED_TEST(HostileCountTest, CountsThatFitStillDecode) {
  typename TypeParam::Encoder enc;
  Encode(enc, std::vector<GcNotice>{GcNotice{1, false, 2, 3},
                                     GcNotice{4, true, 5, 6}});
  const Buffer frame = enc.Take();
  typename TypeParam::Decoder dec(frame);
  auto notices = Decode<std::vector<GcNotice>>(dec);
  ASSERT_TRUE(notices.ok()) << notices.status();
  ASSERT_EQ(notices->size(), 2u);
  EXPECT_EQ((*notices)[1].timestamp, 5);
}

// --- fuzzing the request executor ------------------------------------------
//
// ExecuteWireRequest is the surface a surrogate exposes to whatever an
// end device sends. Feed it truncations, bit flips and random bytes:
// the contract is "status reply or empty buffer", never a crash.

class WireFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WireFuzzTest, TruncatedAndCorruptedRequestsAreHandled) {
  std::mt19937_64 rng(GetParam());
  Runtime::Options opts;
  opts.num_address_spaces = 1;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  AddressSpace& as = (*rt)->as(0);
  auto ch = as.CreateChannel();
  ASSERT_TRUE(ch.ok());

  // A valid put request to mutate.
  PutReq req;
  req.container_bits = ch->bits();
  req.mode = ConnMode::kOutput;
  req.ts = 1;
  req.deadline_ms = 0;
  req.payload = Buffer(64, 0x5A);
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kPut, 1);
  Encode(enc, req);
  const Buffer valid = enc.Take();

  // A mutated frame can legitimately decode into a *blocking* op (a
  // get or a blocking name lookup) with an arbitrary deadline; those
  // semantics are tested elsewhere, so the fuzz skips executing them —
  // it targets decode robustness, which must never crash or mis-frame.
  auto execute_checked = [&](const Buffer& frame) {
    marshal::XdrDecoder peek(frame);
    auto hdr = DecodeRequestHeader(peek);
    if (hdr.ok() &&
        (hdr->op == Op::kGet || hdr->op == Op::kNsLookup)) {
      return;
    }
    Buffer reply = as.ExecuteWireRequest(frame);
    if (!reply.empty()) {
      marshal::XdrDecoder dec(reply);
      EXPECT_TRUE(DecodeResponseHeader(dec).ok());
    }
  };

  // Every truncation length.
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    execute_checked(Buffer(valid.begin(), valid.begin() + static_cast<long>(len)));
  }
  // Random bit flips.
  for (int round = 0; round < 200; ++round) {
    Buffer mutated = valid;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    execute_checked(mutated);
  }
  // Pure noise.
  for (int round = 0; round < 100; ++round) {
    Buffer noise(rng() % 256);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    execute_checked(noise);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(0u, 5u));

// --- mutating client replies -------------------------------------------
//
// A client parses whatever answers on its socket. Start from the canned
// reply to every request a session sends (the client golden test's) and
// a resume reply, mutate each with WireFuzzTest's recipe, and feed every
// result through each codec's reply parse with each op's result reader,
// and through the resume reply's decoder: each must give a value or a
// Status.

template <typename Codec>
class ClientReplyFuzzTest : public ::testing::Test {};
TYPED_TEST_SUITE(ClientReplyFuzzTest, ClientCodecs);

// The result readers of the client's ops, each applied to `frame`.
// Returns how many readers produced a value.
template <typename Dec>
int ParseWithEveryReader(const Buffer& frame) {
  const Result<SharedBuffer> reply(SharedBuffer{frame});
  std::vector<GcNotice> notices;
  int values = 0;
  auto parse = [&](auto read) {
    if (client::DecodeClientReply<Dec>(reply, read, notices).ok()) ++values;
  };
  parse([](Dec&) { return OkStatus(); });                // status only
  parse([](Dec& dec) -> Status {                         // Hello
    DS_RETURN_IF_ERROR(dec.GetU32().status());
    return dec.GetU64().status();
  });
  parse([](Dec& dec) { return dec.GetU64(); });          // Create*
  parse([](Dec& dec) { return dec.GetU32(); });          // Attach
  parse(Decode<ItemView, Dec>);                          // Get
  parse(Decode<NsEntry, Dec>);                           // NsLookup
  parse(Decode<std::vector<NsEntry>, Dec>);              // NsList, refresh
  parse([](Dec& dec) { return dec.GetString(); });       // Metrics
  parse(Decode<client::ResumeResp, Dec>);                // Resume
  Dec dec(frame);
  if (Decode<client::ResumeResp>(dec).ok()) ++values;
  return values;
}

Buffer ResumeReply() {
  client::ResumeResp resp;
  resp.host_as = 1;
  resp.session_id = client::golden::kSessionId;
  resp.last_executed_ticket = 9;
  resp.remaps = {{client::golden::kChannelBits, false, 3, 4},
                 {client::golden::kQueueBits, true, 5, 0}};
  marshal::XdrEncoder enc;
  EncodeResponseHeader(enc, 7, OkStatus());
  Encode(enc, resp);
  Encode(enc, std::vector<GcNotice>{GcNotice{1, false, 2, 3}});
  return enc.Take();
}

TYPED_TEST(ClientReplyFuzzTest, MutatedRepliesGiveAValueOrAStatus) {
  using Dec = typename TypeParam::Decoder;
  std::vector<Buffer> valid;
  for (const std::uint32_t op : {200u, 11u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                 9u, 10u, 12u, 17u, 201u, 202u}) {
    valid.push_back(client::golden::CannedReply(op, op));
    // Unmutated, a reply parses under the reader of its own op at least,
    // except the canned kNsUnregister error.
    const bool error = op == static_cast<std::uint32_t>(Op::kNsUnregister);
    EXPECT_EQ(ParseWithEveryReader<Dec>(valid.back()) == 0, error)
        << "op " << op;
  }
  valid.push_back(ResumeReply());
  EXPECT_GE(ParseWithEveryReader<Dec>(valid.back()), 1) << "resume";

  for (std::uint32_t seed = 0; seed < 5; ++seed) {
    std::mt19937_64 rng(seed);
    for (const Buffer& reply : valid) {
      for (std::size_t len = 0; len <= reply.size(); ++len) {
        ParseWithEveryReader<Dec>(
            Buffer(reply.begin(), reply.begin() + static_cast<long>(len)));
      }
      for (int round = 0; round < 200; ++round) {
        Buffer mutated = reply;
        const int flips = 1 + static_cast<int>(rng() % 8);
        for (int f = 0; f < flips; ++f) {
          mutated[rng() % mutated.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
        ParseWithEveryReader<Dec>(mutated);
      }
    }
    for (int round = 0; round < 100; ++round) {
      Buffer noise(rng() % 256);
      for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
      ParseWithEveryReader<Dec>(noise);
    }
  }
}

// --- every field-listed message, both codecs --------------------------------
//
// Each message's one field list drives both codecs: a populated value
// must encode to the same octets under each, and decoding then
// re-encoding must give those octets back. Every truncation of them,
// and WireFuzzTest's bit flips and noise over five seeds, must decode
// to a value or a Status: never a crash, never bad_alloc; decoded from
// an owning SharedBuffer too, where no XDR payload slice may reach past
// the frame. NsMutation crosses only between address spaces, so it has
// the XDR codec alone.

// Fills every field of `value` with a valid value no field shares,
// walking the field list the codec walks.
template <class T>
void Populate(T& value, std::uint32_t& next) {
  if constexpr (std::is_same_v<T, bool>) {
    value = true;
  } else if constexpr (std::is_same_v<T, AsId>) {
    value = static_cast<AsId>(++next);
  } else if constexpr (std::is_enum_v<T>) {
    value = static_cast<T>(WireRange(T{}).hi);
  } else if constexpr (std::is_integral_v<T>) {
    value = static_cast<T>(++next);
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = "field-" + std::to_string(++next);
  } else if constexpr (std::is_same_v<T, Buffer>) {
    ++next;
    value = Buffer(next % 5 + 1, static_cast<std::uint8_t>(next));
  } else if constexpr (std::is_same_v<T, SharedBuffer>) {
    value = SharedBuffer(Buffer(++next % 5 + 1, 0x5A));
  } else if constexpr (kIsWireVector<T>) {
    value.resize(2);
    for (auto& element : value) Populate(element, next);
  } else {
    std::apply([&](auto... field) { (Populate(value.*field, next), ...); },
               FieldsOf<T>());
  }
}

template <class T>
std::vector<T> Samples() {
  T value;
  std::uint32_t next = 0;
  Populate(value, next);
  return {value};
}
// One mutation of each kind.
template <>
std::vector<NsMutation> Samples<NsMutation>() {
  std::vector<NsMutation> out;
  for (std::uint32_t kind = 1; kind <= 6; ++kind) {
    NsMutation m;
    std::uint32_t next = 0;
    Populate(m.entry, next);
    Populate(m.name, next);
    Populate(m.owner, next);
    Populate(m.session, next);
    Populate(m.session_id, next);
    Populate(m.ticket, next);
    m.kind = static_cast<NsMutation::Kind>(kind);
    out.push_back(m);
  }
  return out;
}

template <class Enc, class T>
Buffer EncodeWith(const T& value) {
  Enc enc;
  Encode(enc, value);
  return enc.Take();
}
template <class Enc>
Buffer EncodeWith(const NsMutation& m) {
  return EncodeNsMutation(m);
}

template <class Dec, class T>
Result<T> DecodeWith(const Buffer& bytes) {
  Dec dec(bytes);
  return Decode<T>(dec);
}
template <class Dec, class T>
  requires std::is_same_v<T, NsMutation>
Result<T> DecodeWith(const Buffer& bytes) {
  return DecodeNsMutation(bytes);
}

// Calls `visit` on every SharedBuffer in `value`, walking the field
// list the codec walks.
template <class T, class Visit>
void ForEachShared(const T& value, Visit visit) {
  if constexpr (std::is_same_v<T, SharedBuffer>) {
    visit(value);
  } else if constexpr (kIsWireVector<T>) {
    for (const auto& element : value) ForEachShared(element, visit);
  } else if constexpr (!kIsWireWord<T> && !std::is_same_v<T, std::string> &&
                       !std::is_same_v<T, Buffer>) {
    std::apply([&](auto... field) { (ForEachShared(value.*field, visit), ...); },
               FieldsOf<T>());
  }
}

// Decodes `bytes` as a delivered message is decoded: from a
// SharedBuffer that owns them. An XdrDecoder's payloads must be slices
// inside that owner.
template <class Dec, class T>
void DecodeOwned(const Buffer& bytes) {
  if constexpr (!std::is_same_v<T, NsMutation>) {
    const SharedBuffer frame(bytes);
    Dec dec(frame);
    auto decoded = Decode<T>(dec);
    if (!decoded.ok() || !std::is_same_v<Dec, marshal::XdrDecoder>) return;
    ForEachShared(*decoded, [&](const SharedBuffer& payload) {
      EXPECT_TRUE(Inside(payload, frame));
    });
  }
}

template <class Msg, class Codec>
struct MessageCase {
  using Message = Msg;
  using Encoder = typename Codec::Encoder;
  using Decoder = typename Codec::Decoder;
};

template <class... Msgs>
using EveryCodec =
    ::testing::Types<MessageCase<Msgs, client::CCodec>...,
                     MessageCase<Msgs, client::JavaCodec>...,
                     MessageCase<NsMutation, client::CCodec>>;
using FieldListedMessages = EveryCodec<
    CreateReq, AttachReq, DetachReq, PutReq, GetSpec, GetReq, ConsumeReq,
    ItemFilter, SetFilterReq, SessionIdReq, SessionTickReq, MetricsReq,
    NsLookupReq, RepAppendReq, RepAppendAck, RepFetchReq, RepFetchResp,
    NsEntry, std::vector<NsEntry>, SessionAttachment, SessionGcInterest,
    SessionRecord, GcNotice, std::vector<GcNotice>, ItemView,
    client::HelloReq, client::ResumeReq, client::SlotRemap,
    client::ResumeResp, client::SetGcInterestReq>;

template <class Case>
class WireMessageFuzzTest : public ::testing::Test {};
TYPED_TEST_SUITE(WireMessageFuzzTest, FieldListedMessages);

TYPED_TEST(WireMessageFuzzTest, BothCodecsEncodeAndRoundTripAlike) {
  using Msg = typename TypeParam::Message;
  for (const Msg& value : Samples<Msg>()) {
    const Buffer bytes = EncodeWith<typename TypeParam::Encoder>(value);
    EXPECT_EQ(bytes, EncodeWith<marshal::XdrEncoder>(value));
    auto decoded = DecodeWith<typename TypeParam::Decoder, Msg>(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(EncodeWith<typename TypeParam::Encoder>(*decoded), bytes);
  }
}

TYPED_TEST(WireMessageFuzzTest, HostileBytesGiveAValueOrAStatus) {
  using Msg = typename TypeParam::Message;
  using Dec = typename TypeParam::Decoder;
  auto decode = [](const Buffer& bytes) {
    EXPECT_NO_THROW(((void)DecodeWith<Dec, Msg>(bytes)));
    EXPECT_NO_THROW((DecodeOwned<Dec, Msg>(bytes)));
  };
  for (const Msg& value : Samples<Msg>()) {
    const Buffer valid = EncodeWith<typename TypeParam::Encoder>(value);
    for (std::size_t len = 0; len <= valid.size(); ++len) {
      decode(Buffer(valid.begin(), valid.begin() + static_cast<long>(len)));
    }
    for (std::uint32_t seed = 0; seed < 5; ++seed) {
      std::mt19937_64 rng(seed);
      for (int round = 0; round < 200; ++round) {
        Buffer mutated = valid;
        const int flips = 1 + static_cast<int>(rng() % 8);
        for (int f = 0; f < flips; ++f) {
          mutated[rng() % mutated.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        }
        decode(mutated);
      }
      for (int round = 0; round < 100; ++round) {
        Buffer noise(rng() % 256);
        for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
        decode(noise);
      }
    }
  }
}

}  // namespace
}  // namespace dstampede::core
