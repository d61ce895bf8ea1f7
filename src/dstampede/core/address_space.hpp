// AddressSpace: one D-Stampede runtime endpoint.
//
// The paper's computation model (Fig 2) is a dynamic graph of threads
// and channels spread over address spaces; this class is one such
// address space. It owns the channels and queues created in it, runs a
// CLF endpoint that serves peers' container ops as they arrive plus a
// dispatcher pool for their requests that may block, hosts
// (optionally) the name server, publishes GC notices, and exposes the
// location-transparent STM API: the same Connect/Put/Get/Consume calls
// work whether the container lives here or in a peer — exactly the
// paper's "uniform set of API calls".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dstampede/clf/endpoint.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/common/metrics.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread.hpp"
#include "dstampede/common/thread_pool.hpp"
#include "dstampede/common/trace.hpp"
#include "dstampede/common/waiter.hpp"
#include "dstampede/core/channel.hpp"
#include "dstampede/core/gc.hpp"
#include "dstampede/core/item.hpp"
#include "dstampede/core/name_service.hpp"
#include "dstampede/core/queue.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::core {

// A thread's binding to a channel or queue, in input and/or output
// mode. Value type; cheap to copy between the threads of one program
// but semantically owned by the connector (disconnect once).
class Connection {
 public:
  Connection() = default;

  bool valid() const { return slot_ != 0; }
  std::uint64_t container_bits() const { return container_bits_; }
  bool is_queue() const { return is_queue_; }
  ConnMode mode() const { return mode_; }
  AsId owner() const { return owner_; }
  std::uint32_t slot() const { return slot_; }

  // Normally obtained from AddressSpace::Connect or the client library;
  // public so those runtimes (and tests) can materialize handles that
  // crossed the wire.
  Connection(std::uint64_t bits, bool is_queue, ConnMode mode, AsId owner,
             std::uint32_t slot)
      : container_bits_(bits), is_queue_(is_queue), mode_(mode), owner_(owner),
        slot_(slot) {}

 private:
  std::uint64_t container_bits_ = 0;
  bool is_queue_ = false;
  ConnMode mode_ = ConnMode::kInput;
  AsId owner_ = kInvalidAsId;
  std::uint32_t slot_ = 0;
};

class AddressSpace {
 public:
  struct Options {
    AsId id = static_cast<AsId>(0);
    std::uint16_t clf_port = 0;       // 0: pick a free port
    std::size_t dispatcher_threads = 8;  // cap; workers start on demand
    bool shm_fastpath = false;        // CLF fast path for in-process peers
    clf::FaultInjector::Config faults;
    // Deadline for the runtime's own control-plane RPCs (create-on,
    // attach, detach, consume, ns ops). Data-plane Put/Get keep the
    // caller's deadline.
    Duration internal_rpc_deadline = Millis(10000);
    // --- cluster failure detection (all-zero: paper model, peers are
    // trusted to live forever; see docs "Failure model") --------------
    std::size_t clf_max_retransmits = 0;           // 0 = retransmit forever
    Duration peer_keepalive_interval = Duration::zero();
    Duration peer_timeout = Duration::zero();
    // --- name service and its replication (core/replog.hpp) ----------
    // The spaces that hold the name server. This AS holds a NameServer
    // exactly when `id` is in the list: one entry is the paper's lone
    // server, more are replicas wired into the leader-lease replication
    // log. Every AS — holder or not — uses the list to route mutations
    // to the leader and to fail reads over to a surviving replica; it
    // must be identical (and sorted) on every space of the application.
    std::vector<AsId> ns_replicas;
    Duration ns_lease = Millis(1200);
    Duration ns_heartbeat = Millis(300);
  };

  static Result<std::unique_ptr<AddressSpace>> Create(const Options& options);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  AsId id() const { return options_.id; }
  const transport::SockAddr& clf_addr() const { return endpoint_->addr(); }

  // --- topology ---------------------------------------------------------
  // Tells this AS how to reach a peer (Runtime wires the full mesh; a
  // dynamically joining AS is added to everyone).
  void AddPeer(AsId peer, const transport::SockAddr& addr);

  // --- containers ---------------------------------------------------------
  Result<ChannelId> CreateChannel(const ChannelAttr& attr = {});
  Result<QueueId> CreateQueue(const QueueAttr& attr = {});
  // Creates the container in a peer address space (the videoconf server
  // program creates the mixer channel in N_M, §4).
  Result<ChannelId> CreateChannelOn(AsId owner, const ChannelAttr& attr = {});
  Result<QueueId> CreateQueueOn(AsId owner, const QueueAttr& attr = {});

  // --- plumbing -------------------------------------------------------
  Result<Connection> Connect(ChannelId ch, ConnMode mode,
                             std::string label = {});
  Result<Connection> Connect(QueueId q, ConnMode mode, std::string label = {});
  Status Disconnect(const Connection& conn);

  // --- I/O --------------------------------------------------------------
  Status Put(const Connection& conn, Timestamp ts, Buffer payload,
             Deadline deadline = Deadline::Infinite());
  Result<ItemView> Get(const Connection& conn, GetSpec spec,
                       Deadline deadline = Deadline::Infinite());
  // Queue get (FIFO). Also works on channels as Get(Oldest).
  Result<ItemView> Get(const Connection& conn,
                       Deadline deadline = Deadline::Infinite());
  Status Consume(const Connection& conn, Timestamp ts) {
    return ConsumeAt(conn, ts, /*until=*/false);
  }
  Status ConsumeUntil(const Connection& conn, Timestamp ts) {
    return ConsumeAt(conn, ts, /*until=*/true);
  }

  // Selective-attention filter on a channel input connection (§6
  // future work, implemented): the connection only sees matching
  // items and holds no GC claim on the rest.
  Status SetFilter(const Connection& conn, const ItemFilter& filter);

  // --- handler functions (owner-side) -----------------------------------
  // The handler runs on a dispatcher worker, once per reclaimed item,
  // never on the thread that reclaimed it: that may be the CLF
  // delivery thread serving a peer's consume, and a handler that makes
  // a remote call there would wait for a reply only that thread reads.
  Status SetChannelGcHandler(ChannelId ch, GcHandler handler);
  Status SetQueueGcHandler(QueueId q, GcHandler handler);

  // --- name server --------------------------------------------------------
  Status NsRegister(const NsEntry& entry) { return ns_->Register(entry); }
  Status NsUnregister(const std::string& name) {
    return ns_->Unregister(name);
  }
  Result<NsEntry> NsLookup(const std::string& name,
                           Deadline deadline = Deadline::Poll()) {
    return ns_->Lookup(name, deadline);
  }
  Result<std::vector<NsEntry>> NsList(const std::string& prefix = "") {
    return ns_->List(prefix);
  }

  // --- end-device session registry (client resilience layer) -----------
  // Like the Ns* calls: local when this AS hosts the name server,
  // forwarded over CLF otherwise. Surrogates mirror their session state
  // through these so any listener can rehydrate a session whose TCP
  // link dropped or whose host AS died.
  Status SessionPut(const SessionRecord& record) {
    return ns_->PutSession(record);
  }
  Result<SessionRecord> SessionGet(std::uint64_t session_id) {
    return ns_->GetSession(session_id);
  }
  Status SessionDrop(std::uint64_t session_id) {
    return ns_->DropSession(session_id);
  }
  Status SessionTick(std::uint64_t session_id, std::uint64_t ticket) {
    return ns_->TickSession(session_id, ticket);
  }

  // --- threads -----------------------------------------------------------
  // POSIX-like D-Stampede threads (§3.1). The runtime tracks them so
  // JoinThreads() can wait for the computation to finish.
  ThreadId Spawn(std::string name, std::function<void()> body);
  void JoinThreads();
  std::size_t live_threads() const;

  // --- failure visibility -----------------------------------------------
  // True once the CLF layer declared this peer dead (and it has not
  // come back with a fresh incarnation).
  bool IsPeerDown(AsId peer) const;
  // Registers a callback fired (from the CLF receiver thread, outside
  // internal locks) whenever a peer AS is declared dead. The Federation
  // uses it for cluster-level fast-fail. The callback runs on a
  // delivery thread, so it must not block (sync::DeliveryThreadScope).
  // Observers cannot be removed — keep captured state alive as long as
  // this AS.
  void AddPeerDownObserver(std::function<void(AsId)> observer);
  // Counterpart fired when a dead peer comes back with a fresh
  // incarnation (CLF epoch reset): the Federation un-counts it from its
  // cluster-down bookkeeping. Same threading and lifetime rules as
  // AddPeerDownObserver.
  void AddPeerUpObserver(std::function<void(AsId)> observer);
  // True once Shutdown() began: the surrogate layer parks its devices
  // instead of letting a dying AS answer them with kCancelled.
  bool stopped() const { return stopping_.load(); }
  // The first name-server space of Options::ns_replicas (kInvalidAsId
  // if the list is empty).
  AsId name_server_as() const { return ns_->name_server_as(); }
  // The CLF endpoint's outgoing fault injector; tests and the ablation
  // bench install deterministic partitions through it.
  clf::FaultInjector& fault_injector() { return endpoint_->fault_injector(); }
  clf::Endpoint& clf_endpoint() { return *endpoint_; }

  // --- observability ------------------------------------------------------
  // This space's metrics registry and span sink (see
  // docs/OBSERVABILITY.md). Instruments live as long as the AS; every
  // counter of the space and of its CLF endpoint is one of them.
  metrics::Registry& metrics_registry() { return registry_; }
  trace::SpanSink& span_sink() { return span_sink_; }
  // JSON snapshot of this space: registry + recorded/active spans +
  // per-container space-time state (occupancy, frontier, parked
  // waiters, GC counters).
  std::string MetricsJson();
  // Snapshot of `target` — local, or fetched over CLF when the target
  // is a peer (the sys/metrics RPC, forwarded like the NS ops).
  Result<std::string> MetricsSnapshot(AsId target);
  // Registers "sys/metrics/<id>" with the name server so tools (dsctl)
  // can discover every space in the cluster.
  Status AdvertiseMetrics();
  // Registers "sys/ns/<id>": this AS hosts a name-server replica.
  // Clients and listeners list the sys/ns/ prefix to learn the replica
  // set for failover; the ad is owned by this AS, so it disappears
  // from the set when this replica dies. No-op when this AS hosts no
  // replica.
  Status AdvertiseNsReplica();

  // --- services ------------------------------------------------------------
  GcService& gc() { return gc_; }
  // Null unless this AS hosts the name server.
  NameServer* local_name_server() { return ns_->name_server(); }
  // Null unless this AS hosts a NameServer replica in a replicated
  // (ns_replicas.size() > 1) deployment.
  RepLog* replication() { return ns_->replication(); }

  // Owner-side lookup, used by surrogates and tests; null unless this
  // space holds a container of that kind under `bits`.
  std::shared_ptr<LocalChannel> FindChannel(std::uint64_t bits);
  std::shared_ptr<LocalQueue> FindQueue(std::uint64_t bits);

  // Stops the dispatcher, closes containers (waking blocked waiters),
  // fails in-flight calls. Idempotent. Does not join Spawn()ed threads;
  // call JoinThreads() for that.
  void Shutdown();

  // Serves an STM request encoded per wire.hpp for an end device, on
  // behalf of which a surrogate thread of this space fields client
  // calls (§3.2.2). It goes through the location-transparent API above,
  // so it reaches containers and name service wherever they live. The
  // request span must start at the op field.
  Buffer ExecuteWireRequest(std::span<const std::uint8_t> message);

 private:
  explicit AddressSpace(const Options& options);

  // Registers pull providers; runs once during Create, after the
  // endpoint/dispatcher/name server exist.
  void InitObservability();

  // A call waiting for its reply: the peer it went to, and where the
  // reply frame (or the transport failure) lands.
  struct OutstandingCall {
    AsId target = kInvalidAsId;
    std::shared_ptr<SyncWaiter<Result<SharedBuffer>>> reply;
  };

  // The space a CLF request came from: where its reply goes, and its id
  // (kInvalidAsId when the address is no known peer's).
  struct Peer {
    transport::SockAddr addr;
    AsId id = kInvalidAsId;
  };

  // A peer thread's attachment to one of our containers, remembered so
  // the slot can be detached if the peer dies (cluster-side analogue of
  // the surrogate's Reap).
  struct RemoteAttach {
    std::uint64_t container_bits = 0;
    bool is_queue = false;
    std::uint32_t slot = 0;
  };

  // --- the container table ----------------------------------------------
  // The container this space holds under `bits` if it is of the named
  // kind; otherwise kNotFound ("channel"/"queue"), so a handle that
  // names a queue's slot as a channel (or the reverse) finds nothing.
  Result<std::shared_ptr<LocalContainer>> FindContainer(std::uint64_t bits,
                                                        bool is_queue);
  // Every container with its id bits, copied under containers_mu_ so
  // callers can close, cancel or query them without holding it.
  using ContainerList =
      std::vector<std::pair<std::uint64_t, std::shared_ptr<LocalContainer>>>;
  ContainerList Containers();
  // Creates a container of either kind on `owner` (here, or over CLF)
  // and returns its id bits.
  Result<std::uint64_t> CreateOn(AsId owner, bool is_queue,
                                 std::size_t capacity,
                                 const std::string& debug_name);
  Result<Connection> ConnectTo(std::uint64_t bits, bool is_queue,
                               ConnMode mode, std::string label);
  Status SetGcHandler(std::uint64_t bits, bool is_queue, GcHandler handler);
  // Consume or ConsumeUntil, through the API or on a container held here.
  Status ConsumeAt(const Connection& conn, Timestamp ts, bool until);
  // Put with the payload already shared: stored as is when the
  // container is here (a decoded payload stays a slice of its message).
  Status PutItem(const Connection& conn, Timestamp ts, SharedBuffer payload,
                 Deadline deadline);
  Status ConsumeHere(std::uint64_t bits, bool is_queue, std::uint32_t slot,
                     Timestamp ts, bool until);

  // Issues one request to a peer AS and waits for its reply frame:
  // allocates the request id, encodes the header and then the op fields
  // `body` writes (into a buffer of `size_hint` bytes), sends it and
  // waits. Same shape as RepLog::SendFn, which it backs.
  using BodyFn = std::function<void(marshal::XdrEncoder&)>;
  Result<SharedBuffer> Call(AsId target, Op op, const BodyFn& body,
                            Deadline deadline, std::size_t size_hint = 0);
  // Completes, with `status`, every outstanding call whose target
  // `doomed` selects.
  void FailCalls(const std::function<bool(AsId)>& doomed,
                 const Status& status);
  Result<transport::SockAddr> PeerAddr(AsId peer) const;
  Deadline InternalDeadline() const {
    return Deadline::After(options_.internal_rpc_deadline);
  }

  // The CLF delivery upcall, on the endpoint's receiver thread (UDP)
  // or the sender's thread (shm). It decodes the header once: a reply
  // completes its call's waiter inline; a request whose op cannot
  // block is served right here by ServeRequest, and any other goes to
  // the dispatcher pool, which runs ServeRequest on a worker (or is
  // refused once the pool stops). Never waits.
  void OnMessage(const transport::SockAddr& from, SharedBuffer message);
  // Serves a peer's request under its trace context and sends the
  // reply: `body`, a slice of the delivered message, holds its op
  // fields, so a put's payload is stored as a slice of it too. Refuses
  // it once Shutdown began.
  void ServeRequest(const Peer& peer, const RequestHeader& hdr,
                    const SharedBuffer& body);
  // Serves one request: a peer's (`peer` set, from ServeRequest) or an
  // end device's (`peer` null, from ExecuteWireRequest). `body` is
  // positioned at the op fields, which each op decodes once. Returns
  // the encoded reply, or an empty buffer when Park took it over.
  Buffer Serve(const RequestHeader& hdr, marshal::XdrDecoder& body,
               const Peer* peer);
  // A peer's kPut or kGet (`Req`) runs through the two-phase waiter
  // API: the try phase runs on the thread serving the request (for
  // these ops, the one that delivered it), and when the op would
  // block, a continuation waiter (carrying a once-only DeferredReply)
  // is registered and that thread moves on — the thread that later
  // resolves the wait (putter, consumer, the CLF receiver firing its
  // deadline, peer death, close) encodes and sends the reply. Returns
  // the refusal when the container is not here, else empty.
  template <typename Req>
  Buffer Park(const RequestHeader& hdr, Req& req, const Peer& peer);

  // Fired by the CLF endpoint (its receiver thread) on peer death /
  // resurrection; translates transport addresses to AS ids and runs
  // the recovery sequence. Like OnMessage, bound at Endpoint::Create.
  void OnPeerDown(const transport::SockAddr& addr);
  void OnPeerUp(const transport::SockAddr& addr);

  Options options_;
  // Observability state is declared before (so destroyed after) every
  // component that caches instrument pointers into it: containers,
  // endpoint, dispatcher, surrogates via metrics_registry().
  metrics::Registry registry_;
  trace::SpanSink span_sink_;
  // Cached hot-path instruments (stable addresses inside registry_),
  // bound here because delivery can use them before Create returns.
  metrics::Counter* const m_dispatch_requests_ =
      &registry_.GetCounter("dispatch.requests");
  metrics::Counter* const m_dispatch_deferred_ =
      &registry_.GetCounter("dispatch.deferred");
  metrics::Counter* const m_dropped_or_expired_ =
      &registry_.GetCounter("dispatch.dropped_or_expired");
  // Calls issued through this space's API (see docs/OBSERVABILITY.md;
  // the owner's side of the work is stm.* and dispatch.*).
  metrics::Counter* const m_api_puts_ = &registry_.GetCounter("api.puts");
  metrics::Counter* const m_api_gets_ = &registry_.GetCounter("api.gets");
  metrics::Counter* const m_api_consumes_ =
      &registry_.GetCounter("api.consumes");
  metrics::Counter* const m_api_attaches_ =
      &registry_.GetCounter("api.attaches");
  metrics::Counter* const m_api_detaches_ =
      &registry_.GetCounter("api.detaches");
  metrics::Counter* const m_api_remote_calls_ =
      &registry_.GetCounter("api.remote_calls");
  metrics::Counter* const m_api_bytes_put_ =
      &registry_.GetCounter("api.bytes_put");
  metrics::Counter* const m_api_bytes_got_ =
      &registry_.GetCounter("api.bytes_got");
  // The owner's container instruments, handed to every container it
  // creates; bound before the endpoint can deliver a peer's create.
  const StmMetrics stm_metrics_{
      &registry_.GetCounter("stm.puts"), &registry_.GetCounter("stm.gets"),
      &registry_.GetCounter("stm.reclaimed_items"),
      &registry_.GetHistogram("stm.reclaim_lag_us")};
  // Its timers() hold the deadlines of parked container waiters.
  // Declared before the container table, so it outlives every channel
  // and queue holding a raw pointer to that wheel.
  std::unique_ptr<clf::Endpoint> endpoint_;
  std::unique_ptr<ThreadPool> dispatcher_;
  // Declared before the container table: each container's reclaim hook
  // publishes through it.
  GcService gc_;
  // Name server, replication log and name-service routing. Declared
  // after the endpoint and the pool its callbacks use.
  std::unique_ptr<NameService> ns_;

  mutable ds::Mutex peers_mu_{"as.peers_mu"};
  std::unordered_map<std::uint32_t, transport::SockAddr> peers_
      DS_GUARDED_BY(peers_mu_);
  std::unordered_map<transport::SockAddr, AsId> peer_by_addr_
      DS_GUARDED_BY(peers_mu_);

  // Leaf lock: held only to copy the observer list, never while firing.
  ds::Mutex peer_observers_mu_{"as.peer_observers_mu"};
  std::vector<std::function<void(AsId)>> peer_down_observers_
      DS_GUARDED_BY(peer_observers_mu_);
  std::vector<std::function<void(AsId)>> peer_up_observers_
      DS_GUARDED_BY(peer_observers_mu_);

  ds::Mutex remote_attach_mu_{"as.remote_attach_mu"};
  std::unordered_map<std::uint32_t, std::vector<RemoteAttach>>
      remote_attachments_ DS_GUARDED_BY(remote_attach_mu_);

  // A leaf: held only to look up, add or copy out containers, never
  // while calling into one or into CLF.
  ds::Mutex containers_mu_{"as.containers_mu"};
  // Both kinds, keyed by the slot of their id; each container knows
  // its kind (LocalContainer::is_queue).
  std::unordered_map<std::uint32_t, std::shared_ptr<LocalContainer>>
      containers_ DS_GUARDED_BY(containers_mu_);
  std::uint32_t next_container_slot_ DS_GUARDED_BY(containers_mu_) = 1;

  // Never held while completing a call's SyncWaiter (Call, OnMessage
  // and the recovery paths take the call out of the map first).
  ds::Mutex calls_mu_{"as.calls_mu"};
  std::unordered_map<std::uint64_t, OutstandingCall> calls_
      DS_GUARDED_BY(calls_mu_);
  std::atomic<std::uint64_t> next_request_id_{1};

  mutable ds::Mutex threads_mu_{"as.threads_mu"};
  std::vector<Thread> threads_ DS_GUARDED_BY(threads_mu_);
  std::uint32_t next_thread_slot_ DS_GUARDED_BY(threads_mu_) = 1;

  // Set once Create has finished: OnMessage serves requests inline
  // only from then on (before, endpoint_ may not be set yet, and they
  // wait on the pool, which starts last).
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace dstampede::core
