// Golden wire bytes of the client library: a fake surrogate records
// every frame a CClient and a JavaStyleClient send through one session
// and compares each to a hex literal, the same literal for both codecs
// (Hello differs only in its client-kind word). The fake answers with
// the canned replies of client_wire_replies.hpp, each carrying a
// two-notice trailer, and the test checks what the client decoded from
// them. A refactor of how the client frames requests or parses replies
// must leave every byte and every decoded value here as it is.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client_wire_replies.hpp"
#include "dstampede/client/java_client.hpp"
#include "dstampede/common/trace.hpp"
#include "dstampede/transport/tcp.hpp"

namespace dstampede::client {
namespace {

using golden::Hex;

// Accepts one client and answers each frame with its canned reply until
// the client closes the connection.
class FakeSurrogate {
 public:
  FakeSurrogate() {
    auto bound = transport::TcpListener::Bind(0);
    EXPECT_TRUE(bound.ok()) << bound.status();
    if (bound.ok()) listener_ = std::move(bound).value();
    thread_ = std::thread([this] { Serve(); });
  }
  ~FakeSurrogate() {
    if (thread_.joinable()) thread_.join();
  }

  transport::SockAddr addr() const { return listener_.bound_addr(); }

  // Every frame received, once the client has gone.
  std::vector<Buffer> Frames() {
    if (thread_.joinable()) thread_.join();
    return frames_;
  }

 private:
  void Serve() {
    auto conn = listener_.Accept(Deadline::AfterMillis(10000));
    if (!conn.ok()) return;
    Buffer frame;
    while (conn->RecvFrame(frame, Deadline::AfterMillis(10000)).ok()) {
      frames_.push_back(frame);
      marshal::XdrDecoder dec(frame);
      auto hdr = core::DecodeRequestHeader(dec);
      if (!hdr.ok()) return;
      const Buffer reply = golden::CannedReply(
          static_cast<std::uint32_t>(hdr->op), hdr->request_id);
      if (!conn->SendFrame(reply).ok()) return;
    }
  }

  transport::TcpListener listener_;
  std::thread thread_;
  std::vector<Buffer> frames_;
};

// Hello with id 1, name "golden", preferred_as -1; `kind` is the codec's.
std::string HelloHex(std::uint32_t kind) {
  return std::string("000000c80000000000000001") +
         (kind == 0 ? "00000000" : "00000001") +
         "00000006676f6c64656e0000"
         "ffffffff";
}

// The id-0 listener refresh: NsList of "sys/listener/", deadline 0.
const char* kRefreshHex =
    "0000000b0000000000000000"
    "0000000d7379732f6c697374656e65722f000000"
    "0000000000000000";

// kNsLookup of "cam" with id 16 and a poll deadline.
const char* kLookupHex =
    "000000090000000000000010"
    "0000000363616d000000000000000000";

struct Expected {
  const char* what;
  std::string hex;
};

std::vector<Expected> ExpectedFrames(std::uint32_t kind) {
  return {
      {"Hello", HelloHex(kind)},
      {"listener refresh", kRefreshHex},
      {"CreateChannel",
       "000000010000000000000002"
       "0000000000000008"
       "0000000363616d00"},
      {"CreateQueue",
       "000000020000000000000003"
       "0000000000000000"
       "00000005626f786573000000"},
      {"Connect(channel)",
       "000000030000000000000004"
       "0000000200000005"
       "00000000"
       "00000002"
       "000000116465766963652d73657373696f6e2d3432000000"},
      {"Connect(queue)",
       "000000030000000000000005"
       "0000000200000006"
       "00000001"
       "00000001"
       "00000004712d696e"},
      {"SetGcHandler",
       "000000ca0000000000000006"
       "0000000200000005"
       "00000000"
       "00000001"},
      {"Put",
       "000000050000000000000007"
       "0000000200000005"
       "00000000"
       "00000002"
       "00000003"
       "0000000000000007"
       "ffffffffffffffff"
       "000000046162630a"},
      {"Get(queue, oldest)",
       "000000060000000000000008"
       "0000000200000006"
       "00000001"
       "00000001"
       "00000003"
       "00000001"
       "0000000000000000"
       "0000000000000000"},
      {"Get(channel, exact)",
       "000000060000000000000009"
       "0000000200000005"
       "00000000"
       "00000002"
       "00000003"
       "00000000"
       "0000000000000007"
       "ffffffffffffffff"},
      {"Consume(queue)",
       "00000007000000000000000a"
       "0000000200000006"
       "00000001"
       "00000001"
       "00000003"
       "0000000000000007"
       "00000000"},
      {"ConsumeUntil",
       "00000007000000000000000b"
       "0000000200000005"
       "00000000"
       "00000002"
       "00000003"
       "0000000000000007"
       "00000001"},
      {"SetFilter",
       "0000000c000000000000000c"
       "0000000200000005"
       "00000003"
       "0000000000000005"
       "0000000000000001"
       "8000000000000000"
       "7fffffffffffffff"
       "0000000000000000"
       "ffffffffffffffff"},
      {"Disconnect",
       "00000004000000000000000d"
       "0000000200000006"
       "00000001"
       "00000003"},
      {"NsRegister",
       "00000008000000000000000e"
       "0000000363616d00"
       "00000000"
       "0000000200000005"
       "0000000663616d65726100"
       "00"
       "ffffffff"},
      {"NsList",
       "0000000b000000000000000f"
       "0000000163000000"
       "0000000000000000"},
      {"NsLookup", kLookupHex},
      {"NsUnregister",
       "0000000a0000000000000011"
       "0000000363616d00"
       "0000000000000000"},
      {"MetricsSnapshot",
       "000000110000000000000012"
       "00000001"},
      {"Put under a sampled thread context",
       "800000050000000000000013"
       "0000000000001111"
       "0000000000002222"
       "00000001"
       "0000000200000005"
       "00000000"
       "00000002"
       "00000003"
       "0000000000000008"
       "0000000000000000"
       "0000000178000000"},
      {"Bye", "000000c90000000000000014"},
  };
}

void ExpectNotice(const core::GcNotice& notice, int i) {
  EXPECT_EQ(notice.container_bits, golden::kChannelBits);
  EXPECT_FALSE(notice.is_queue);
  EXPECT_EQ(notice.timestamp, golden::kNoticeTs[i]);
  EXPECT_EQ(notice.payload_size, golden::kNoticeBytes[i]);
}

void ExpectFrames(const std::vector<Buffer>& frames,
                  const std::vector<Expected>& expected) {
  ASSERT_EQ(frames.size(), expected.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(Hex(frames[i]), expected[i].hex) << expected[i].what;
  }
}

template <typename Client>
void RunGoldenSession(std::uint32_t kind) {
  FakeSurrogate fake;
  typename Client::Options opts;
  opts.server = fake.addr();
  opts.name = "golden";
  auto joined = Client::Join(opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  Client& c = **joined;
  EXPECT_EQ(c.host_as(), AsId{golden::kHostAs});
  EXPECT_EQ(c.session_id(), golden::kSessionId);

  core::ChannelAttr ch_attr;
  ch_attr.capacity_items = 8;
  ch_attr.debug_name = "cam";
  auto ch = c.CreateChannel(ch_attr);
  ASSERT_TRUE(ch.ok()) << ch.status();
  EXPECT_EQ(ch->bits(), golden::kChannelBits);
  core::QueueAttr q_attr;
  q_attr.debug_name = "boxes";
  auto q = c.CreateQueue(q_attr);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->bits(), golden::kQueueBits);

  auto out = c.Connect(*ch, core::ConnMode::kOutput);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->container_bits(), golden::kChannelBits);
  EXPECT_FALSE(out->is_queue());
  EXPECT_EQ(out->slot(), golden::kSlot);
  EXPECT_EQ(out->mode(), core::ConnMode::kOutput);
  auto in = c.Connect(*q, core::ConnMode::kInput, "q-in");
  ASSERT_TRUE(in.ok()) << in.status();
  EXPECT_EQ(in->container_bits(), golden::kQueueBits);
  EXPECT_TRUE(in->is_queue());
  EXPECT_EQ(in->slot(), golden::kSlot);

  std::vector<core::GcNotice> seen;
  ASSERT_TRUE(c.SetGcHandler(golden::kChannelBits, /*is_queue=*/false,
                             [&seen](const core::GcNotice& notice) {
                               seen.push_back(notice);
                             })
                  .ok());

  EXPECT_TRUE(c.Put(*out, 7, Buffer{'a', 'b', 'c', '\n'}).ok());
  auto item = c.Get(*in, Deadline::Poll());
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->timestamp, golden::kItemTs);
  EXPECT_EQ(std::string(item->payload.span().begin(), item->payload.span().end()),
            golden::kItemPayload);
  auto exact = c.Get(*out, core::GetSpec::Exact(7));
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->timestamp, golden::kItemTs);
  EXPECT_TRUE(c.Consume(*in, 7).ok());
  EXPECT_TRUE(c.ConsumeUntil(*out, 7).ok());
  core::ItemFilter filter;
  filter.stride = 5;
  filter.phase = 1;
  EXPECT_TRUE(c.SetFilter(*out, filter).ok());
  EXPECT_TRUE(c.Disconnect(*in).ok());

  core::NsEntry entry;
  entry.name = "cam";
  entry.kind = core::NsEntry::Kind::kChannel;
  entry.id_bits = golden::kChannelBits;
  entry.meta = "camera";
  EXPECT_TRUE(c.NsRegister(entry).ok());
  auto listed = c.NsList("c");
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].name, "sys/listener/9");
  EXPECT_EQ((*listed)[0].kind, core::NsEntry::Kind::kOther);
  EXPECT_EQ((*listed)[0].id_bits, 9u);
  EXPECT_EQ((*listed)[0].meta, "127.0.0.1:9");
  EXPECT_EQ((*listed)[0].owner_as, AsId{0});
  EXPECT_EQ((*listed)[1].name, "cam");
  auto found = c.NsLookup("cam");
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->name, "cam");
  EXPECT_EQ(found->kind, core::NsEntry::Kind::kChannel);
  EXPECT_EQ(found->id_bits, golden::kChannelBits);
  EXPECT_EQ(found->meta, "camera");
  EXPECT_EQ(found->owner_as, AsId{2});
  const Status unregistered = c.NsUnregister("cam");
  EXPECT_EQ(unregistered.code(), StatusCode::kNotFound);
  EXPECT_EQ(unregistered.message(), golden::kUnregisterMessage);

  auto metrics = c.MetricsSnapshot(AsId{1});
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(*metrics, golden::kMetricsJson);

  {
    trace::ScopedContext sampled(trace::TraceContext{
        0x1111, 0x2222, trace::TraceContext::kSampled});
    EXPECT_TRUE(c.Put(*out, 8, Buffer{'x'}, Deadline::Poll()).ok());
  }
  EXPECT_EQ(c.last_trace_id(), 0u);

  // Every reply so far carried two notices. The handler sees those of
  // the replies after the one that registered it: Put, two Gets, two
  // Consumes, SetFilter, Disconnect, the four NS ops, Metrics, and the
  // sampled Put.
  constexpr std::size_t kReplies = 20;
  EXPECT_EQ(c.gc_notices_received(), 2 * kReplies);
  ASSERT_EQ(seen.size(), 2u * 13);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ExpectNotice(seen[i], static_cast<int>(i % 2));
  }

  EXPECT_TRUE(c.Leave().ok());
  ExpectFrames(fake.Frames(), ExpectedFrames(kind));
}

// A session with trace_calls on: session ops stay unstamped, an STM
// call gets a fresh sampled root whose id last_trace_id() reports, and
// the root covers the encode only, so the GC handler that runs on the
// reply does not inherit it.
template <typename Client>
void RunTracedSession(std::uint32_t kind) {
  FakeSurrogate fake;
  typename Client::Options opts;
  opts.server = fake.addr();
  opts.name = "golden";
  opts.trace_calls = true;
  auto joined = Client::Join(opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  Client& c = **joined;

  std::vector<bool> sampled_in_handler;
  ASSERT_TRUE(c.SetGcHandler(golden::kChannelBits, /*is_queue=*/false,
                             [&](const core::GcNotice&) {
                               sampled_in_handler.push_back(
                                   trace::CurrentContext().sampled());
                             })
                  .ok());
  EXPECT_EQ(c.last_trace_id(), 0u);
  auto found = c.NsLookup("cam");
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->name, "cam");
  const std::uint64_t trace_id = c.last_trace_id();
  EXPECT_NE(trace_id, 0u);
  EXPECT_EQ(sampled_in_handler, std::vector<bool>({false, false}));
  EXPECT_FALSE(trace::CurrentContext().sampled());
  EXPECT_TRUE(c.Leave().ok());

  const std::vector<Buffer> frames = fake.Frames();
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(Hex(frames[0]), HelloHex(kind));
  EXPECT_EQ(Hex(frames[1]), kRefreshHex);
  EXPECT_EQ(Hex(frames[2]),
            "000000ca0000000000000002"
            "0000000200000005"
            "00000000"
            "00000001");
  EXPECT_EQ(Hex(frames[4]), "000000c90000000000000004");

  // [op|kTraceFlag][id 3][trace_id][span_id][flags], then the same body
  // as the untraced lookup.
  marshal::XdrDecoder dec(frames[3]);
  EXPECT_EQ(dec.GetU32().value_or(0), 0x80000009u);
  EXPECT_EQ(dec.GetU64().value_or(0), 3u);
  EXPECT_EQ(dec.GetU64().value_or(0), trace_id);
  EXPECT_NE(dec.GetU64().value_or(0), 0u);
  EXPECT_EQ(dec.GetU32().value_or(0), trace::TraceContext::kSampled);
  const std::span<const std::uint8_t> body =
      std::span<const std::uint8_t>(frames[3]).subspan(frames[3].size() -
                                                       dec.remaining());
  EXPECT_EQ(Hex(body), std::string(kLookupHex).substr(24));
}

TEST(ClientWireTest, GoldenBytesOfACClientSession) {
  RunGoldenSession<CClient>(kClientKindC);
}

TEST(ClientWireTest, GoldenBytesOfAJavaStyleClientSession) {
  RunGoldenSession<JavaStyleClient>(kClientKindJava);
}

TEST(ClientWireTest, TraceCallsStampsOnlyTheStmCallOfACClient) {
  RunTracedSession<CClient>(kClientKindC);
}

TEST(ClientWireTest, TraceCallsStampsOnlyTheStmCallOfAJavaStyleClient) {
  RunTracedSession<JavaStyleClient>(kClientKindJava);
}

}  // namespace
}  // namespace dstampede::client
