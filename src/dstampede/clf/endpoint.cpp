#include "dstampede/clf/endpoint.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <vector>

#include "dstampede/common/logging.hpp"

namespace dstampede::clf {
namespace {

constexpr std::uint16_t kMagic = 0xC1F0;
constexpr std::uint8_t kTypeData = 1;
constexpr std::uint8_t kTypeAck = 2;
constexpr std::uint8_t kTypePing = 3;
constexpr std::uint8_t kTypePong = 4;
constexpr std::uint8_t kFlagFirstFragment = 0x01;
// magic u16, type u8, flags u8, seq u32, ack u32, epoch u32
constexpr std::size_t kHeaderSize = 16;
// A first fragment's header goes on with the u32 message length.
constexpr std::size_t kFirstHeaderSize = kHeaderSize + 4;
// Payload budget per datagram (the paper caps UDP messages at ~64 KB).
constexpr std::size_t kMaxFragmentPayload = 60000;
// A long in-order stream is acked at least this often, so the sender's
// window keeps opening while the receiver has not read its socket empty.
constexpr std::uint32_t kAckEveryPackets = 16;
// The receiver reads at most this many datagrams before it fires due
// timers, pays owed acks and scans for retransmits: a flood starves none.
constexpr int kMaxDatagramsPerDrain = 64;
// A reassembly buffer grows past the bytes that arrived by this much,
// or by as many bytes as arrived if that is more, and never past the
// announced length: a claimed length costs nothing until its bytes
// come, and a message up to this size takes one reservation.
constexpr std::size_t kReassemblyGrowth = 256 << 10;

// Incarnation numbers: random per process, monotone within it, so a
// restarted endpoint on the same port never repeats its predecessor's.
std::uint32_t NextEpoch() {
  static std::atomic<std::uint32_t> counter{std::random_device{}()};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void PutU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
void PutU32(std::uint8_t* p, std::uint32_t v) {
  PutU16(p, static_cast<std::uint16_t>(v >> 16));
  PutU16(p + 2, static_cast<std::uint16_t>(v));
}
std::uint16_t ReadU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t ReadU32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

void PutHeader(std::uint8_t* p, std::uint8_t type, std::uint8_t flags,
               std::uint32_t seq, std::uint32_t ack, std::uint32_t epoch) {
  PutU16(p, kMagic);
  p[2] = type;
  p[3] = flags;
  PutU32(p + 4, seq);
  PutU32(p + 8, ack);
  PutU32(p + 12, epoch);
}

// A packet with no payload: an ack, ping or pong.
std::array<std::uint8_t, kHeaderSize> ControlPacket(std::uint8_t type,
                                                   std::uint32_t ack,
                                                   std::uint32_t epoch) {
  std::array<std::uint8_t, kHeaderSize> packet{};
  PutHeader(packet.data(), type, 0, /*seq=*/0, ack, epoch);
  return packet;
}

}  // namespace

// Fragments are cut from the stream "u32 message length, then the
// message" every kMaxFragmentPayload bytes, so an empty message still
// sends one fragment and the first fragment's header ends with the
// length word.
struct Endpoint::Outgoing {
  Outgoing(const Peer::Packet& packet, std::uint32_t ack, std::uint32_t epoch)
      : header_size(packet.offset == 0 ? kFirstHeaderSize : kHeaderSize),
        payload(packet.message.Slice(packet.offset, packet.length)) {
    PutHeader(header.data(), kTypeData,
              packet.offset == 0 ? kFlagFirstFragment : 0, packet.seq, ack,
              epoch);
    if (packet.offset == 0) {
      PutU32(header.data() + kHeaderSize,
             static_cast<std::uint32_t>(packet.message.size()));
    }
  }
  std::span<const std::uint8_t> header_span() const {
    return {header.data(), header_size};
  }

  std::array<std::uint8_t, kFirstHeaderSize> header{};
  std::size_t header_size;
  SharedBuffer payload;
};

Result<std::unique_ptr<Endpoint>> Endpoint::Create(
    const Options& options, metrics::Registry& registry, DeliverFn deliver,
    PeerEventCallback on_peer_down, PeerEventCallback on_peer_up) {
  auto ep = std::unique_ptr<Endpoint>(
      new Endpoint(options, registry, std::move(deliver),
                   std::move(on_peer_down), std::move(on_peer_up)));
  DS_ASSIGN_OR_RETURN(ep->socket_, transport::UdpSocket::Bind(options.port));
  ep->addr_ = ep->socket_.bound_addr();
  if (options.enable_shm_fastpath) {
    Endpoint* raw = ep.get();
    ep->shm_ring_ = std::make_shared<ShmRing>(
        [raw](const transport::SockAddr& from, SharedBuffer message) {
          sync::DeliveryThreadScope delivery;
          raw->m_shm_messages_->Add();
          raw->Deliver(from, std::move(message));
        });
    ShmRegistry::Instance().Register(ep->addr_, ep->shm_ring_);
  }
  ep->receiver_ = Thread([raw = ep.get()] { raw->ReceiverLoop(); });
  return ep;
}

Endpoint::Endpoint(const Options& options, metrics::Registry& registry,
                   DeliverFn deliver, PeerEventCallback on_peer_down,
                   PeerEventCallback on_peer_up)
    : options_(options),
      registry_(registry),
      deliver_(std::move(deliver)),
      on_peer_down_(std::move(on_peer_down)),
      on_peer_up_(std::move(on_peer_up)),
      epoch_(NextEpoch()),
      injector_(options.faults) {}

Endpoint::~Endpoint() { Shutdown(); }

void Endpoint::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (receiver_.joinable()) receiver_.join();
    return;
  }
  // Wait out every Send still writing to the socket; later ones see
  // stopping_ in their locked section and refuse.
  {
    ds::MutexLock lock(send_mu_);
    while (sending_ != 0) sends_drained_cv_.Wait(send_mu_);
  }
  // After Close no shm sender can reach deliver_ any more.
  if (shm_ring_) {
    ShmRegistry::Instance().Unregister(addr_);
    shm_ring_->Close();
  }
  // The receiver sees stopping_ once its poll returns: wake it rather
  // than wait out the poll.
  socket_.ShutdownRead();
  if (receiver_.joinable()) receiver_.join();
  // Last-gasp flush: ship the reorder-held packet and everything still
  // parked in the modeled-network queue before the socket goes away,
  // so no datagram is stranded by shutdown ordering.
  if (injector_.active() || injector_.delayed_pending() > 0) {
    if (auto held = injector_.Flush()) {
      (void)socket_.SendTo(held->to, held->datagram);
    }
    DrainModeledNetwork(TimePoint::max());
  }
  socket_.Close();
}

void Endpoint::WireSend(const transport::SockAddr& to,
                        std::span<const std::uint8_t> header,
                        std::span<const std::uint8_t> payload) {
  if (!injector_.active()) {
    // An ack, ping or pong is its header alone: a plain sendto.
    (void)(payload.empty() ? socket_.SendTo(to, header)
                           : socket_.SendTo(to, header, payload));
    return;
  }
  // The injector holds datagrams (a reorder-hold, the modeled link's
  // queue), so it gets this one flattened.
  Buffer datagram;
  datagram.reserve(header.size() + payload.size());
  datagram.insert(datagram.end(), header.begin(), header.end());
  datagram.insert(datagram.end(), payload.begin(), payload.end());
  // Each delivery carries its own destination: a released reorder-hold
  // or a modeled-link release may be bound for a different peer than
  // the packet that triggered it.
  for (FaultInjector::Delivery& d : injector_.Filter(to, std::move(datagram))) {
    (void)socket_.SendTo(d.to, d.datagram);
  }
}

void Endpoint::WireSend(const transport::SockAddr& to,
                        const Outgoing& packet) {
  WireSend(to, packet.header_span(), packet.payload.span());
}

void Endpoint::DrainModeledNetwork(TimePoint now) {
  if (injector_.delayed_pending() == 0) return;
  for (FaultInjector::Delivery& d : injector_.TakeDue(now)) {
    (void)socket_.SendTo(d.to, d.datagram);
  }
}

// --- failure detection ---------------------------------------------------

void Endpoint::WatchPeer(const transport::SockAddr& peer) {
  ds::MutexLock lock(send_mu_);
  Peer& p = peers_[peer];
  if (p.last_heard == TimePoint{}) p.last_heard = Now();
}

bool Endpoint::IsPeerDead(const transport::SockAddr& peer) const {
  ds::MutexLock lock(send_mu_);
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.dead;
}

void Endpoint::DeclarePeerDead(const transport::SockAddr& peer,
                               const char* why) {
  {
    ds::MutexLock lock(send_mu_);
    Peer& p = peers_[peer];
    if (p.dead) return;
    p.dead = true;
    // Drop the ARQ state, sent and queued packets alike: a resurrected
    // incarnation expects sequences from zero.
    p.ResetArq();
    m_peers_declared_dead_->Add();
  }
  // Receiver-side state is owned by the receiver thread — which is the
  // only caller of this function.
  recv_peers_.erase(peer);
  DS_LOG(kWarn) << "CLF: peer " << peer.ToString() << " declared dead ("
                << why << ")";
  if (on_peer_down_) on_peer_down_(peer);
}

bool Endpoint::ObservePeer(const transport::SockAddr& from,
                           std::uint32_t epoch) {
  bool resurrected = false;
  bool epoch_reset = false;
  {
    ds::MutexLock lock(send_mu_);
    Peer& p = peers_[from];
    if (!p.epoch_known) {
      p.epoch_known = true;
      p.epoch = epoch;
      // A peer condemned before any of its packets were heard (it went
      // silent before the first keepalive exchange) has no incarnation
      // on record to hold against it; the first epoch that does arrive
      // is indistinguishable from a restart, so treat it as one rather
      // than shunning the address forever.
      epoch_reset = p.dead;
    } else if (p.epoch != epoch) {
      p.epoch = epoch;
      epoch_reset = true;
    }
    if (epoch_reset) {
      // A fresh incarnation on the same address: discard every piece of
      // sequence state tied to the old one so the restarted peer is not
      // poisoned by stale numbering.
      m_epoch_resets_->Add();
      p.ResetArq();
    }
    if (p.dead) {
      if (!epoch_reset) return false;  // same incarnation stays dead
      p.dead = false;
      resurrected = true;
      m_peers_resurrected_->Add();
    }
    p.last_heard = Now();
  }
  if (epoch_reset) recv_peers_.erase(from);  // receiver thread owns this state
  if (resurrected) {
    DS_LOG(kInfo) << "CLF: peer " << from.ToString()
                  << " resurrected with epoch " << epoch;
    if (on_peer_up_) on_peer_up_(from);
  }
  return true;
}

// --- data path -----------------------------------------------------------

Status Endpoint::Send(const transport::SockAddr& to, Buffer message) {
  // Send never waits, but the shm fast path runs the peer's delivery
  // upcall on this thread, so callers must not enter it holding a lock.
  sync::AssertNoLockHeld("clf::Endpoint::Send");
  if (stopping_.load()) return CancelledError("endpoint shut down");
  if (message.size() > transport::kMaxFrame) {
    return InvalidArgumentError("clf message over the frame cap");
  }

  // Shared-memory fast path for in-process peers.
  if (options_.enable_shm_fastpath) {
    if (auto ring = ShmRegistry::Instance().Lookup(to)) {
      if (IsPeerDead(to)) return UnavailableError("peer declared dead");
      return ring->Transfer(addr_, message);
    }
  }

  // One locked section sequences the whole message, so concurrent
  // senders to the same peer never interleave fragments.
  const SharedBuffer shared(std::move(message));
  std::vector<Outgoing> admitted;
  {
    ds::MutexLock lock(send_mu_);
    if (stopping_.load()) return CancelledError("endpoint shut down");
    Peer& peer = peers_[to];
    if (peer.dead) return UnavailableError("peer declared dead");
    if (peer.last_heard == TimePoint{}) peer.last_heard = Now();
    // The first fragment's payload budget holds the length word too.
    std::size_t room = kMaxFragmentPayload - 4;
    std::size_t offset = 0;
    do {
      const std::size_t length = std::min(room, shared.size() - offset);
      Peer::Packet& packet = peer.packets.emplace_back();
      packet.message = shared;
      packet.offset = offset;
      packet.length = length;
      packet.seq = peer.next_seq++;
      offset += length;
      room = kMaxFragmentPayload;
    } while (offset < shared.size());
    AdmitLocked(peer, Now(), admitted);
    ++sending_;
  }
  for (const Outgoing& packet : admitted) WireSend(to, packet);
  ds::MutexLock lock(send_mu_);
  if (--sending_ == 0 && stopping_.load()) sends_drained_cv_.NotifyAll();
  return OkStatus();
}

void Endpoint::AdmitLocked(Peer& peer, TimePoint now,
                           std::vector<Outgoing>& out) {
  const std::size_t before = out.size();
  while (peer.on_wire < options_.window_packets &&
         peer.on_wire < peer.packets.size()) {
    Peer::Packet& packet = peer.packets[peer.on_wire++];
    packet.sent_at = now;
    packet.rto = options_.initial_rto;
    packet.resend_at = now + packet.rto;
    out.emplace_back(packet, peer.ack, epoch_);
    m_data_packets_sent_->Add();
  }
  // The admitted packets carry the ack owed to the peer: that pays it.
  if (out.size() != before && peer.acks_owed != 0) {
    peer.acks_owed = 0;
    m_acks_piggybacked_->Add();
  }
}

void Endpoint::Deliver(const transport::SockAddr& from, SharedBuffer message) {
  m_messages_delivered_->Add();
  deliver_(from, std::move(message));
}

void Endpoint::SendAck(const transport::SockAddr& to, std::uint32_t ack) {
  WireSend(to, ControlPacket(kTypeAck, ack, epoch_));
}

void Endpoint::OweAck(const transport::SockAddr& from, std::uint32_t ack,
                      std::uint32_t packets) {
  bool pay_now = false;
  {
    ds::MutexLock lock(send_mu_);
    Peer& peer = peers_[from];  // ObservePeer made the record
    peer.ack = ack;
    if (peer.acks_owed == 0) ack_debtors_.push_back(from);
    peer.acks_owed += packets;
    if (peer.acks_owed >= kAckEveryPackets) {
      peer.acks_owed = 0;
      m_acks_sent_->Add();
      pay_now = true;
    }
  }
  if (pay_now) SendAck(from, ack);
}

void Endpoint::PayOwedAcks() {
  if (ack_debtors_.empty()) return;
  std::vector<std::pair<transport::SockAddr, std::uint32_t>> acks;
  {
    ds::MutexLock lock(send_mu_);
    for (const transport::SockAddr& addr : ack_debtors_) {
      Peer& peer = peers_[addr];
      if (peer.acks_owed == 0) continue;  // paid by a data packet
      peer.acks_owed = 0;
      // Counted under the lock, so once a reply that found the debt
      // paid has left, the ack that paid it is counted too.
      m_acks_sent_->Add();
      acks.emplace_back(addr, peer.ack);
    }
  }
  ack_debtors_.clear();
  for (const auto& [addr, ack] : acks) SendAck(addr, ack);
}

void Endpoint::HandleAck(const transport::SockAddr& from, std::uint32_t ack) {
  std::vector<Outgoing> admitted;
  {
    ds::MutexLock lock(send_mu_);
    Peer& peer = peers_[from];  // ObservePeer made the record
    // An ack past the last packet sent belongs to another incarnation's
    // stream (a packet that left before this endpoint saw the restart).
    if (ack > peer.next_seq) return;
    const TimePoint now = Now();
    // Only packets on the wire can be acked.
    auto oldest = static_cast<std::uint32_t>(peer.next_seq -
                                             peer.packets.size());
    for (; peer.on_wire > 0 && oldest < ack; ++oldest) {
      const Peer::Packet& packet = peer.packets.front();
      // Karn's rule: only fresh (never retransmitted) packets yield an
      // unambiguous round-trip sample.
      if (packet.retransmits == 0) {
        if (peer.rtt == nullptr) {
          peer.rtt = &registry_.GetHistogram("clf.rtt_us." + from.ToString());
        }
        peer.rtt->Observe(ToMicros(now - packet.sent_at));
      }
      peer.packets.pop_front();
      --peer.on_wire;
    }
    AdmitLocked(peer, now, admitted);
  }
  for (const Outgoing& packet : admitted) WireSend(from, packet);
}

void Endpoint::DeliverInOrderFragment(const transport::SockAddr& from,
                                      RecvPeer& peer,
                                      std::span<const std::uint8_t> payload,
                                      bool first_fragment) {
  if (!peer.assembling) {
    if (!first_fragment || payload.size() < 4) {
      DS_LOG(kWarn) << "CLF: mid-message fragment with no message open from "
                    << from.ToString() << "; dropping";
      return;
    }
    peer.message_length = ReadU32(payload.data());
    if (peer.message_length > transport::kMaxFrame) {
      // Send refuses such a message; the rest of it drops as orphans.
      DS_LOG(kWarn) << "CLF: " << peer.message_length << "-byte message from "
                    << from.ToString() << " is over the frame cap; dropping";
      return;
    }
    peer.partial = Buffer();
    peer.assembling = true;
    payload = payload.subspan(4);
  } else if (first_fragment) {
    // Cannot happen over the ordered reliable stream; defensive reset.
    DS_LOG(kWarn) << "CLF: unexpected first-fragment mid message";
    peer.assembling = false;
    DeliverInOrderFragment(from, peer, payload, true);
    return;
  }
  // Bytes past the announced length are dropped, so the buffer never
  // grows past it.
  payload = payload.first(
      std::min(payload.size(), peer.message_length - peer.partial.size()));
  const std::size_t arrived = peer.partial.size();
  if (arrived + payload.size() > peer.partial.capacity()) {
    peer.partial.reserve(std::min<std::size_t>(
        peer.message_length,
        arrived + std::max(arrived, kReassemblyGrowth)));
  }
  peer.partial.insert(peer.partial.end(), payload.begin(), payload.end());
  if (peer.partial.size() == peer.message_length) {
    peer.assembling = false;
    Buffer message = std::move(peer.partial);
    peer.partial = Buffer();
    Deliver(from, SharedBuffer(std::move(message)));
  }
}

void Endpoint::HandleDatagram(const transport::SockAddr& from,
                              std::span<const std::uint8_t> datagram) {
  if (datagram.size() < kHeaderSize) return;
  if (ReadU16(datagram.data()) != kMagic) return;
  const std::uint8_t type = datagram[2];
  const std::uint8_t flags = datagram[3];
  const std::uint32_t seq = ReadU32(datagram.data() + 4);
  const std::uint32_t ack = ReadU32(datagram.data() + 8);
  const std::uint32_t epoch = ReadU32(datagram.data() + 12);
  auto payload = datagram.subspan(kHeaderSize);

  // Epoch/liveness bookkeeping for every packet type. A peer declared
  // dead stays dead for its incarnation: only a new epoch revives it.
  if (!ObservePeer(from, epoch)) return;

  switch (type) {
    case kTypeAck:
      HandleAck(from, ack);
      return;
    case kTypePing:
      WireSend(from, ControlPacket(kTypePong, 0, epoch_));
      return;
    case kTypePong:
      return;  // liveness already recorded above
    case kTypeData:
      break;
    default:
      return;
  }

  m_data_packets_received_->Add();
  RecvPeer& peer = recv_peers_[from];
  if (seq != peer.expected_seq) {
    if (seq < peer.expected_seq) {
      // Duplicate of something already delivered; re-ack at once so the
      // sender stops retransmitting.
      m_duplicates_discarded_->Add();
      m_acks_sent_->Add();
      SendAck(from, peer.expected_seq);
    } else {
      // Ahead of a gap: stash a copy (idempotently) until it fills.
      Buffer stored;
      stored.reserve(1 + payload.size());
      stored.push_back(flags);
      stored.insert(stored.end(), payload.begin(), payload.end());
      if (!peer.out_of_order.emplace(seq, std::move(stored)).second) {
        m_duplicates_discarded_->Add();
      }
    }
    HandleAck(from, ack);
    return;
  }
  // In order: this packet and the stashed run that follows it.
  std::uint32_t in_order_end = seq + 1;
  while (peer.out_of_order.count(in_order_end) != 0) ++in_order_end;
  // Owe the ack before delivering the run, so a reply sent from the
  // upcall carries it.
  OweAck(from, in_order_end, in_order_end - peer.expected_seq);
  // A data packet carries its sender's cumulative ack too. Applied
  // after the debt is recorded, so packets it admits carry ours.
  HandleAck(from, ack);
  ++peer.expected_seq;
  DeliverInOrderFragment(from, peer, payload,
                         (flags & kFlagFirstFragment) != 0);
  for (; peer.expected_seq != in_order_end; ++peer.expected_seq) {
    const Buffer frag =
        std::move(peer.out_of_order.extract(peer.expected_seq).mapped());
    DeliverInOrderFragment(
        from, peer,
        std::span<const std::uint8_t>(frag.data() + 1, frag.size() - 1),
        (frag[0] & kFlagFirstFragment) != 0);
  }
}

void Endpoint::RetransmitScan(TimePoint now) {
  std::vector<std::pair<transport::SockAddr, Outgoing>> to_send;
  std::vector<transport::SockAddr> to_probe;
  std::vector<transport::SockAddr> expired;  // retransmit budget exhausted
  std::vector<transport::SockAddr> silent;   // peer_timeout exceeded
  {
    ds::MutexLock lock(send_mu_);
    for (auto& [addr, peer] : peers_) {
      if (peer.dead) continue;
      // Queued packets have not been sent yet, so the scan stops at
      // the first of them.
      for (std::size_t i = 0; i < peer.on_wire; ++i) {
        Peer::Packet& packet = peer.packets[i];
        if (packet.resend_at <= now) {
          if (options_.max_retransmits > 0 &&
              packet.retransmits >= options_.max_retransmits) {
            expired.push_back(addr);
            break;
          }
          ++packet.retransmits;
          packet.rto = std::min(packet.rto * 2, options_.max_rto);
          packet.resend_at = now + packet.rto;
          // Stamped with the ack owed now, not the one it first carried.
          to_send.emplace_back(addr, Outgoing(packet, peer.ack, epoch_));
        }
      }
      if (!detection_enabled()) continue;
      if (peer.last_heard == TimePoint{}) {
        peer.last_heard = now;
        continue;
      }
      if (now - peer.last_heard >= options_.peer_timeout) {
        silent.push_back(addr);
        continue;
      }
      if (now - peer.last_heard >= options_.keepalive_interval &&
          (peer.last_probe == TimePoint{} ||
           now - peer.last_probe >= options_.keepalive_interval)) {
        peer.last_probe = now;
        to_probe.push_back(addr);
      }
    }
  }
  for (const auto& [addr, packet] : to_send) {
    m_retransmissions_->Add();
    WireSend(addr, packet);
  }
  for (const auto& addr : to_probe) {
    m_keepalive_probes_sent_->Add();
    WireSend(addr, ControlPacket(kTypePing, 0, epoch_));
  }
  for (const auto& addr : expired) {
    DeclarePeerDead(addr, "retransmit budget exhausted");
  }
  for (const auto& addr : silent) {
    DeclarePeerDead(addr, "silent past peer_timeout");
  }
  // Don't let a reorder-held packet rot while the link is idle: held
  // packets remember their destination, so the idle scan can actually
  // deliver them instead of dropping them on the floor.
  if (injector_.active()) {
    if (auto held = injector_.Flush()) {
      (void)socket_.SendTo(held->to, held->datagram);
    }
    // Release modeled-network packets whose (virtual) delivery time has
    // arrived. ReceiverLoop calls RetransmitScan at least every
    // 5ms of real time, which bounds release lag; under virtual time
    // the SimController's advance step paces this instead.
    DrainModeledNetwork(Now());
  }
}

void Endpoint::ReceiverLoop() {
  // Every upcall but the shm deliveries, and every timer entry, runs here.
  sync::DeliveryThreadScope delivery;
  // One receive buffer for the endpoint's life: each datagram is
  // handled in place, not in a buffer resized (and zero-filled) per read.
  Buffer buffer(transport::kMaxUdpDatagram);
  transport::SockAddr from;
  TimePoint next_timer = TimePoint::max();
  // Timers, retransmits and peer liveness are judged against Now().
  // Under a VirtualClock each pass registers its deadline, then drops
  // the last pass's, so a controller never finds this receiver without
  // one: it steps onto the deadline and gives the receivers real time
  // to answer each other's keepalives, which it would otherwise outrun.
  VirtualClock* registered = nullptr;
  VirtualClock::WaitToken pass = 0;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Read until the socket is empty or the wheel's next entry (as of
    // the last pass) is due, then fire the due entries and pay the acks
    // still owed: replies sent meanwhile carried the others.
    Deadline wait = Deadline::At(std::min(Now() + Millis(5), next_timer));
    VirtualClock* clock = InstalledVirtualClock();
    const VirtualClock::WaitToken next_pass =
        clock != nullptr ? clock->RegisterDeadline(wait.when()) : 0;
    if (registered != nullptr) registered->UnregisterTimedWait(pass);
    registered = clock;
    pass = next_pass;
    for (int read = 0; read < kMaxDatagramsPerDrain; ++read) {
      Result<std::size_t> n = socket_.RecvInto(buffer, from, wait);
      if (!n.ok()) {
        if (n.status().code() != StatusCode::kTimeout && !stopping_.load()) {
          DS_LOG(kWarn) << "CLF recv error: " << n.status();
        }
        break;
      }
      HandleDatagram(from, std::span<const std::uint8_t>(buffer.data(), *n));
      wait = Deadline::Poll();
    }
    const TimePoint now = Now();
    next_timer = timers_.RunDue(now);
    PayOwedAcks();
    RetransmitScan(now);
  }
  if (registered != nullptr) registered->UnregisterTimedWait(pass);
}

}  // namespace dstampede::clf
