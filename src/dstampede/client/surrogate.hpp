// Surrogate thread (paper §3.2.2, Fig 4): created on the cluster when
// an end device joins; all subsequent D-Stampede calls from that device
// are fielded and carried out by this surrogate against the cluster's
// address spaces. It also participates in garbage collection on the
// device's behalf: a GC-service sink collects reclamation notices for
// containers the device registered interest in, and the surrogate
// forwards them piggybacked on the next response (§3.2.4).
//
// Threading: the surrogate owns a dedicated session thread per device,
// so its container calls use the classic blocking Get/Put API — that
// parks the *surrogate's* thread (one per device by design), not a
// shared dispatcher worker. Under the hood those wrappers ride the
// same two-phase waiter machinery as suspended remote requests
// (SyncWaiter over GetAsync/PutAsync), so lifecycle cancellation —
// container close, owner shutdown, peer death — unwinds a blocked
// surrogate with the same statuses, and the reply cache sees an
// ordinary Status/ItemView result either way.
//
// Failure model: if the device vanishes without a clean Bye, the
// surrogate is left parked — its connection slots remain attached and
// its state is retained (the paper's §3.3 behaviour). On top of that,
// the session-resilience extension makes parked sessions resumable:
// the surrogate mirrors its session state (attachments, registered
// names, GC interests, last executed per-call ticket) into the name
// server's session registry, caches the last reply for idempotent
// replay, and can be re-bound to a fresh TCP connection (Adopt) or
// rebuilt from the registry on another address space (Rehydrate) when
// its original host died.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "dstampede/clf/fault_injector.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/client/protocol.hpp"
#include "dstampede/core/address_space.hpp"
#include "dstampede/transport/tcp.hpp"

namespace dstampede::client {

class Surrogate {
 public:
  enum class State { kActive, kLeft, kParked, kReaped };

  // `edge_faults` (optional) injects TCP-edge connection kills around
  // serviced requests. Session state is mirrored into the name server
  // so the session survives surrogate/host loss.
  Surrogate(std::uint64_t session_id, core::AddressSpace& host,
            transport::TcpConnection conn,
            clf::FaultInjector* edge_faults = nullptr);
  ~Surrogate();

  Surrogate(const Surrogate&) = delete;
  Surrogate& operator=(const Surrogate&) = delete;

  // Replies to the already-received Hello (the Listener reads it to
  // learn the device's preferred address space before binding).
  Status ServiceHello(std::uint64_t request_id, const HelloReq& hello);

  // Services the device until Bye, connection loss, or Stop(). Runs on
  // the thread the Listener dedicates to this surrogate.
  void Run();
  void Stop() { stopping_.store(true); }

  State state() const { return state_.load(); }
  std::uint64_t session_id() const { return session_id_; }
  // Valid once parked: when the device was last heard from.
  TimePoint parked_since() const { return parked_since_; }
  bool host_stopped() const { return host_.stopped(); }

  // --- session resumption ------------------------------------------------
  // Re-binds a parked surrogate to a fresh connection from its device
  // (same host AS; all slots still valid). Fails unless parked.
  Status Adopt(transport::TcpConnection conn);
  // Rebuilds session state from the registry record on THIS surrogate's
  // (live) host: re-attaches every recorded connection, restoring GC
  // interests and registered names. Old-slot -> new-slot remaps are
  // kept so replayed and future device calls are translated.
  Status Rehydrate(const core::SessionRecord& record);
  // Answers the already-received Resume (remaps + last ticket).
  Status ServiceResume(std::uint64_t request_id);
  // Marks a surrogate that lost its session to a migrated successor:
  // terminal kReaped without detaching anything (its host is dead) and
  // without dropping the registry record (the successor owns it now).
  void MarkSuperseded();

  // Failure-handling extension (the paper's §6 future work): the
  // surrogate tracks every connection its device attached and every
  // name it registered; Reap() releases them all — detaching the
  // connections (which un-blocks GC: items the dead device was holding
  // become reclaimable) and unregistering the names. Only legal on a
  // parked surrogate; transitions it to kReaped.
  Status Reap();

  std::uint64_t last_executed_ticket() const;

 private:
  // Executes one request frame; returns the response frame. Sets bye
  // when the device asked to leave, kill_conn when the fault injector
  // asks for the connection to be dropped instead of replying.
  Buffer HandleFrame(std::span<const std::uint8_t> frame, bool& bye,
                     bool& kill_conn);
  Buffer HandleHello(std::uint64_t request_id, const HelloReq& hello);
  Buffer ResumeReply(std::uint64_t request_id);
  void AppendNoticeTrailer(Buffer& reply);

  // The connection a slot-addressed request (kDetach, kPut, kGet,
  // kConsume, kSetFilter) names, read in one pass over its field list
  // through the slot, and where its slot word sits in the frame.
  struct SlotRef {
    std::uint64_t container_bits = 0;
    bool is_queue = false;
    core::ConnMode mode = core::ConnMode::kInputOutput;
    std::uint32_t slot = 0;
    std::size_t offset = 0;  // 0: the op names no slot
  };
  // Reads `ref` from `body`, positioned after the header of a frame of
  // `frame_size` bytes; leaves it without a slot for any other op, and
  // when a field up to the slot fails to decode.
  static Status ReadSlotRef(core::Op op, marshal::XdrDecoder& body,
                            std::size_t frame_size, SlotRef& ref);
  // The device's frame with its slot rewritten through the
  // post-migration remap table (and `ref` updated to match), or an
  // empty buffer when no remap changes the slot.
  Buffer TranslateSlots(std::span<const std::uint8_t> frame, SlotRef& ref);
  // The session bookkeeping of one executed STM op, in one switch: the
  // ticket and reply cache first, then the attachments and names Reap()
  // releases, the redo journal of a destructive read, and the mirrors
  // of what changed. `body` is positioned after the header (past the
  // slot for a slot-addressed op), `result` after the reply header.
  void AfterExecute(core::Op op, std::uint64_t ticket, const SlotRef& target,
                    marshal::XdrDecoder& body, bool ok,
                    marshal::XdrDecoder& result, const Buffer& reply);
  // Mirrors the full session record / the ticket high-water mark into
  // the name server's session registry (no-ops once the host stops).
  void MirrorSession();
  void MirrorTicket(std::uint64_t ticket, std::uint64_t container_bits);
  core::SessionRecord SnapshotRecord();
  void Park();

  struct Attachment {
    std::uint64_t container_bits;
    bool is_queue;
    // The slot on the *current* host. After a migration this differs
    // from device_slot, the number the device's Connection handle
    // carries (allocated by the original attach and never re-issued —
    // the device cannot learn new slots, so every frame it sends is
    // keyed by device_slot). The mirrored session record stores
    // device_slot: a record written by an intermediate migration must
    // still remap the device's frames, not the intermediate host's.
    std::uint32_t slot;
    std::uint32_t device_slot;
    std::uint8_t mode;
    std::string label;
  };

  std::uint64_t session_id_;
  core::AddressSpace& host_;
  transport::TcpConnection conn_;
  clf::FaultInjector* edge_faults_ = nullptr;
  std::string client_name_ = "?";
  std::uint32_t client_kind_ = 0;

  std::atomic<State> state_{State::kActive};
  std::atomic<bool> stopping_{false};

  // Host-registry instruments (stable addresses, cached at construction).
  metrics::Counter* m_replay_hits_ = nullptr;
  metrics::Counter* m_calls_ = nullptr;
  metrics::Counter* m_redo_journaled_ = nullptr;
  metrics::Counter* m_redo_replayed_ = nullptr;

  // GC interest set (bits -> is_queue) and pending notices, fed by the
  // host's GC sink on whichever thread reclaimed the items (this
  // surrogate's, another's, or a CLF delivery thread). Leaf lock: taken
  // inside the sink, so it must never be held while calling into the
  // host address space.
  ds::Mutex gc_mu_{"surrogate.gc_mu"};
  std::unordered_map<std::uint64_t, bool> gc_interest_ DS_GUARDED_BY(gc_mu_);
  std::deque<core::GcNotice> gc_pending_ DS_GUARDED_BY(gc_mu_);
  std::uint64_t gc_sink_token_ = 0;  // set in ctor, read in dtor only

  // Session state for the failure-handling extension. Never held while
  // calling into the host (ExecuteWireRequest/Session*/Connect) and
  // never nested with gc_mu_.
  mutable ds::Mutex session_mu_{"surrogate.session_mu"};
  std::vector<Attachment> attachments_ DS_GUARDED_BY(session_mu_);
  std::vector<std::string> registered_names_ DS_GUARDED_BY(session_mu_);
  // Per-call ticket machinery: highest executed device request id, and
  // the cached (pre-trailer) reply of the most recent STM call so a
  // replay after a dropped connection is answered without re-running.
  std::uint64_t last_executed_ticket_ DS_GUARDED_BY(session_mu_) = 0;
  std::uint64_t cached_reply_ticket_ DS_GUARDED_BY(session_mu_) = 0;
  Buffer cached_reply_ DS_GUARDED_BY(session_mu_);
  // Exactly-once redo log for destructive reads: the last remote-queue
  // Get reply, journaled into the session registry *before* it is sent
  // to the device (see SessionRecord::redo_ticket). Survives host
  // death, unlike cached_reply_.
  std::uint64_t redo_ticket_ DS_GUARDED_BY(session_mu_) = 0;
  Buffer redo_payload_ DS_GUARDED_BY(session_mu_);
  // Post-migration slot translation (old surrogate's slot -> ours).
  std::vector<SlotRemap> slot_remaps_ DS_GUARDED_BY(session_mu_);
  TimePoint parked_since_{};

  static constexpr std::size_t kMaxPendingNotices = 65536;
};

}  // namespace dstampede::client
