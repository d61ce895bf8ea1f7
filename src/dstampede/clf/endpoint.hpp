// CLF: reliable, ordered, point-to-point message transport.
//
// This is the reproduction of the paper's CLF packet layer (§3.2.2): it
// gives the D-Stampede address spaces "reliable, ordered point-to-point
// packet transport ... with the illusion of an infinite packet queue",
// exploiting shared memory within the process and UDP otherwise.
//
// Mechanics: messages are fragmented into datagrams (first fragment
// carries the message length), each datagram carries a per-peer
// sequence number, the receiver acks cumulatively, the sender keeps a
// sliding window of unacked packets on the wire and retransmits on
// timeout with exponential backoff. Send never waits on the window:
// fragments past it queue on the peer and go out as acks open it.
//
// One user-space copy per side: a fragment is a slice of the sent
// message, and each wire send gathers a header built at that moment
// with the slice (only an active FaultInjector, which holds datagrams,
// gets them flattened). The receiver appends each in-order fragment
// from its receive buffer straight into the message's reassembly
// buffer, which grows with the bytes that arrive rather than to the
// length a first fragment claims, stashes only fragments that arrive
// ahead of a gap, and delivers the message as a SharedBuffer that owns
// that buffer.
//
// Acks follow delivery and ride data: the receiver records the ack it
// owes a peer before it delivers an in-order run, and every data
// packet carries the cumulative ack of the reverse stream in its
// header, so a reply sent from the delivery upcall acks the request
// it answers. A standalone ack leaves only for a debt still open once
// the socket has been read empty, every kAckEveryPackets in-order
// packets of a long stream, and at once for a duplicate.
// Delivery to the application is exactly-once and in order per peer,
// regardless of drops, duplicates or reordering underneath (see
// tests/clf_test.cpp property suite).
//
// Failure detection (cluster extension beyond the paper's §3.3 model):
// every packet carries the sender's incarnation epoch. When enabled via
// Options, the endpoint probes idle peers with keepalive pings, bounds
// retransmission attempts, and declares a peer dead once it exceeds the
// retransmit budget or stays silent past peer_timeout. Death fails
// later sends fast with kUnavailable, drops the peer's ARQ state (the
// packets on the wire and those queued behind the window) and fires
// the peer-down upcall. A restarted peer shows up with a fresh epoch:
// stale sequence state is discarded, the peer is resurrected, and the
// peer-up upcall fires.
//
// Delivery is push-only: Create takes a DeliverFn, called once per
// reassembled message in per-peer order, on the receiver thread (UDP)
// or on the sending thread (shm fast path). Both run their upcalls
// under a sync::DeliveryThreadScope, so a blocking call from an upcall
// aborts under the deadlock detector.
//
// Timers: the receiver fires the endpoint's TimerWheel (timers(), see
// common/waiter.hpp) after each pass, under the same scope, and polls
// no longer than until its next entry is due.
//
// Telemetry: Create also takes the owning space's metrics registry.
// The endpoint counts its traffic in the clf.* counters there and
// records per-peer round trips as clf.rtt_us.<addr> histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dstampede/clf/fault_injector.hpp"
#include "dstampede/clf/shm_ring.hpp"
#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/metrics.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/common/waiter.hpp"
#include "dstampede/transport/udp.hpp"

namespace dstampede::clf {

class Endpoint {
 public:
  struct Options {
    std::uint16_t port = 0;           // 0: pick a free port
    bool enable_shm_fastpath = false; // in-process peers bypass UDP
    std::size_t window_packets = 128; // max unacked packets per peer
    Duration initial_rto = Millis(10);
    Duration max_rto = Millis(320);
    FaultInjector::Config faults;     // all-zero: faithful wire
    // --- failure detection (defaults preserve the paper's model:
    // retransmit forever, never declare a peer dead) ----------------
    // Per-packet retransmission budget; exceeding it declares the
    // peer dead. 0 = unbounded.
    std::size_t max_retransmits = 0;
    // Probe a peer after this much silence. Zero disables probing.
    Duration keepalive_interval = Duration::zero();
    // Declare a watched peer dead after this much silence. Zero
    // disables silence-based death (probes alone never kill).
    Duration peer_timeout = Duration::zero();
  };

  // Fired (from the endpoint's receiver thread, outside all endpoint
  // locks) when a peer is declared dead / heard from again.
  using PeerEventCallback = std::function<void(const transport::SockAddr&)>;

  // `registry` must outlive the endpoint. The upcalls are fixed for
  // the endpoint's lifetime and run with no endpoint lock held.
  // Delivery (required) can start once the socket binds, before Create
  // returns; no upcall runs once Shutdown returns.
  static Result<std::unique_ptr<Endpoint>> Create(
      const Options& options, metrics::Registry& registry, DeliverFn deliver,
      PeerEventCallback on_peer_down = nullptr,
      PeerEventCallback on_peer_up = nullptr);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const transport::SockAddr& addr() const { return addr_; }
  // This endpoint's incarnation number, stamped on every packet.
  std::uint32_t epoch() const { return epoch_; }

  // Reliable ordered send. Never waits on the window: the fragments it
  // admits go to the wire before it returns, and the rest queue on the
  // peer until acks open the window (delivery is then guaranteed by
  // retransmission as long as both ends live). kUnavailable once the
  // peer is dead or its shm ring closed, kCancelled on shutdown,
  // kInvalidArgument over transport::kMaxFrame. The message is kept,
  // without a copy, until its last fragment is acked.
  Status Send(const transport::SockAddr& to, Buffer message);

  // --- failure detection ------------------------------------------------
  // Starts keepalive monitoring of `peer` before any traffic flows
  // (the runtime watches its whole mesh). No-op when probing is off.
  void WatchPeer(const transport::SockAddr& peer);
  bool IsPeerDead(const transport::SockAddr& peer) const;

  // The outgoing-path fault injector; tests and the ablation bench use
  // it to install deterministic partitions.
  FaultInjector& fault_injector() { return injector_; }

  // Its callbacks run on the receiver thread and must not block.
  TimerWheel& timers() { return timers_; }

  // Refuses later Sends and waits out those still writing to the
  // socket, closes the shm ring (waiting out transfers in flight),
  // stops the receiver thread and closes the socket. Unacked and queued
  // data is abandoned (the paper's CLF has no teardown handshake
  // either), and timer entries still pending never fire. Must not be
  // called from an upcall or a timer callback.
  void Shutdown();

 private:
  Endpoint(const Options& options, metrics::Registry& registry,
           DeliverFn deliver, PeerEventCallback on_peer_down,
           PeerEventCallback on_peer_up);

  // Everything the endpoint knows about one peer: the send half of its
  // ARQ stream, its liveness and its RTT histogram. Records are never
  // erased; death and epoch changes reset the ARQ part in place.
  struct Peer {
    // Data packet `seq`: bytes [offset, offset + length) of `message`.
    // The one at offset 0 is the message's first fragment, which also
    // carries its length.
    struct Packet {
      SharedBuffer message;
      std::size_t offset = 0;
      std::size_t length = 0;
      std::uint32_t seq = 0;
      TimePoint sent_at{};  // first wire send, for the RTT histogram
      TimePoint resend_at{};
      Duration rto{};
      std::size_t retransmits = 0;
    };
    // Unacked packets, oldest first, numbered next_seq - packets.size()
    // up to next_seq - 1. The first on_wire of them were sent; the rest
    // wait for the window.
    std::uint32_t next_seq = 0;
    std::deque<Packet> packets;
    std::size_t on_wire = 0;
    bool dead = false;
    bool epoch_known = false;
    std::uint32_t epoch = 0;
    TimePoint last_heard{};
    TimePoint last_probe{};
    // Resolved on the first RTT sample; Histogram::Observe is
    // lock-free, so recording under send_mu_ is safe.
    metrics::Histogram* rtt = nullptr;
    // The receive half's side of the record: the cumulative ack of the
    // peer's stream to us, stamped on every data packet sent to it, and
    // the in-order packets received since an ack last left (nonzero:
    // an ack is owed). Written by the receiver thread.
    std::uint32_t ack = 0;
    std::uint32_t acks_owed = 0;

    // Also forgets the ack: one owed to an old incarnation must never
    // ride a packet to its successor, which never sent those packets.
    void ResetArq() {
      next_seq = 0;
      packets.clear();
      on_wire = 0;
      ack = 0;
      acks_owed = 0;
    }
  };

  struct RecvPeer {
    std::uint32_t expected_seq = 0;
    // Copies of the packets that arrived ahead of a gap:
    // seq -> flags byte, then the payload.
    std::map<std::uint32_t, Buffer> out_of_order;
    // Message reassembly, into a buffer that grows as fragments arrive
    // (at most to the length the first fragment announced).
    bool assembling = false;
    std::size_t message_length = 0;
    Buffer partial;
  };

  // A data packet on its way to the wire: a header stamped with the ack
  // owed when it left, and its payload, a slice of its message.
  struct Outgoing;

  void ReceiverLoop();
  void HandleDatagram(const transport::SockAddr& from,
                      std::span<const std::uint8_t> datagram);
  void HandleAck(const transport::SockAddr& from, std::uint32_t ack);
  // Records that `from`'s stream is in order up to `ack`, `packets`
  // further than before; sends the ack at once every kAckEveryPackets.
  void OweAck(const transport::SockAddr& from, std::uint32_t ack,
              std::uint32_t packets);
  // Sends a standalone ack to every peer still owed one.
  void PayOwedAcks();
  void DeliverInOrderFragment(const transport::SockAddr& from, RecvPeer& peer,
                              std::span<const std::uint8_t> payload,
                              bool first_fragment);
  void Deliver(const transport::SockAddr& from, SharedBuffer message);
  // Writes a standalone ack; the caller counts it in clf.acks_sent.
  void SendAck(const transport::SockAddr& to, std::uint32_t ack);
  // Moves packets of `peer` from its queue onto the wire while the
  // window has room: each goes to `out`, stamped with the ack owed to
  // the peer, for the caller to write once it releases send_mu_.
  void AdmitLocked(Peer& peer, TimePoint now, std::vector<Outgoing>& out)
      DS_REQUIRES(send_mu_);
  void RetransmitScan(TimePoint now);
  // Writes one datagram, `header` then `payload`, to the socket in one
  // gathering send (a plain send when there is no payload); under an
  // active injector, flattened through it.
  void WireSend(const transport::SockAddr& to,
                std::span<const std::uint8_t> header,
                std::span<const std::uint8_t> payload = {});
  void WireSend(const transport::SockAddr& to, const Outgoing& packet);
  // Sends every modeled-network packet due at or before `now`
  // (TimePoint::max() drains the whole queue on shutdown).
  void DrainModeledNetwork(TimePoint now);

  // Tracks the sender's epoch; resets ARQ state on a new incarnation
  // and resurrects a dead peer. Returns false when the packet must be
  // ignored (same-incarnation traffic from a peer already declared
  // dead). Runs on the receiver thread.
  bool ObservePeer(const transport::SockAddr& from, std::uint32_t epoch);
  // Marks the peer dead, drops its ARQ state, fires the callback. Runs
  // on the receiver thread.
  void DeclarePeerDead(const transport::SockAddr& peer, const char* why);
  bool detection_enabled() const {
    return options_.keepalive_interval > Duration::zero() &&
           options_.peer_timeout > Duration::zero();
  }

  Options options_;
  metrics::Registry& registry_;
  // The clf.* counters, bound before the receiver starts (stable
  // addresses inside registry_).
  metrics::Counter* const m_data_packets_sent_ =
      &registry_.GetCounter("clf.data_packets_sent");
  metrics::Counter* const m_data_packets_received_ =
      &registry_.GetCounter("clf.data_packets_received");
  metrics::Counter* const m_retransmissions_ =
      &registry_.GetCounter("clf.retransmissions");
  metrics::Counter* const m_acks_sent_ = &registry_.GetCounter("clf.acks_sent");
  metrics::Counter* const m_acks_piggybacked_ =
      &registry_.GetCounter("clf.acks_piggybacked");
  metrics::Counter* const m_duplicates_discarded_ =
      &registry_.GetCounter("clf.duplicates_discarded");
  metrics::Counter* const m_messages_delivered_ =
      &registry_.GetCounter("clf.messages_delivered");
  metrics::Counter* const m_shm_messages_ =
      &registry_.GetCounter("clf.shm_messages");
  metrics::Counter* const m_keepalive_probes_sent_ =
      &registry_.GetCounter("clf.keepalive_probes_sent");
  metrics::Counter* const m_peers_declared_dead_ =
      &registry_.GetCounter("clf.peers_declared_dead");
  metrics::Counter* const m_peers_resurrected_ =
      &registry_.GetCounter("clf.peers_resurrected");
  metrics::Counter* const m_epoch_resets_ =
      &registry_.GetCounter("clf.epoch_resets");
  const DeliverFn deliver_;
  const PeerEventCallback on_peer_down_;
  const PeerEventCallback on_peer_up_;
  transport::UdpSocket socket_;
  transport::SockAddr addr_;
  std::uint32_t epoch_ = 0;

  mutable ds::Mutex send_mu_{"clf.send_mu"};
  std::unordered_map<transport::SockAddr, Peer> peers_ DS_GUARDED_BY(send_mu_);
  // Sends between their locked section and the end of their wire
  // writes; Shutdown waits for zero before it closes the socket.
  std::size_t sending_ DS_GUARDED_BY(send_mu_) = 0;
  ds::CondVar sends_drained_cv_;

  // Receiver-side state is touched only by the receiver thread; it is
  // deliberately unguarded (single-owner data, see ReceiverLoop).
  std::unordered_map<transport::SockAddr, RecvPeer> recv_peers_;
  // Peers an ack was owed to since PayOwedAcks last ran (some may have
  // been paid by a data packet meanwhile).
  std::vector<transport::SockAddr> ack_debtors_;

  FaultInjector injector_;
  std::shared_ptr<ShmRing> shm_ring_;
  TimerWheel timers_;

  std::atomic<bool> stopping_{false};
  Thread receiver_;
};

}  // namespace dstampede::clf
