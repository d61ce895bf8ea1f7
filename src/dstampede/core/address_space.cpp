#include "dstampede/core/address_space.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <type_traits>
#include <utility>

#include "dstampede/common/json.hpp"
#include "dstampede/common/logging.hpp"

namespace dstampede::core {

namespace {

// "0123456789abcdef" for sampled contexts, "-" otherwise; used when a
// request is dropped so the warn line still names its trace.
std::string TraceTag(const trace::TraceContext& ctx) {
  if (!ctx.sampled()) return "-";
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, ctx.trace_id);
  return buf;
}

// Whether serving a peer's `op` may wait. The container ops never do
// (Park turns a put or get that would block into a waiter), so the
// thread that delivers them serves them. The name-service, session-
// registry and replication ops run consensus and lease logic, and
// kMetrics snapshots the whole space: those go to the dispatcher pool.
constexpr bool MayBlock(Op op) {
  switch (op) {
    case Op::kCreateChannel:
    case Op::kCreateQueue:
    case Op::kAttach:
    case Op::kDetach:
    case Op::kPut:
    case Op::kGet:
    case Op::kConsume:
    case Op::kSetFilter:
      return false;
    default:
      return true;
  }
}

}  // namespace

Result<std::unique_ptr<AddressSpace>> AddressSpace::Create(
    const Options& options) {
  auto as = std::unique_ptr<AddressSpace>(new AddressSpace(options));
  AddressSpace* raw = as.get();
  // Its workers reply through endpoint_, so the pool starts none before
  // Start below; requests delivered before then wait in the queue
  // (OnMessage serves none inline until started_).
  as->dispatcher_ = std::make_unique<ThreadPool>(
      options.dispatcher_threads,
      "AS" + std::to_string(AsIndex(options.id)));
  NameService::Options ns;
  ns.self = options.id;
  ns.replicas = options.ns_replicas;
  ns.lease = options.ns_lease;
  ns.heartbeat = options.ns_heartbeat;
  ns.rpc_deadline = options.internal_rpc_deadline;
  as->ns_ = std::make_unique<NameService>(
      ns, as->registry_,
      /*send=*/
      [raw](AsId target, Op op, const BodyFn& body, Deadline deadline) {
        return raw->Call(target, op, body, deadline);
      },
      /*peer_dead=*/[raw](AsId peer) { return raw->IsPeerDown(peer); });
  // Delivery starts as soon as the socket binds, so this comes after
  // everything OnMessage and the peer upcalls touch (the container
  // instruments are bound at construction).
  clf::Endpoint::Options ep_opts;
  ep_opts.port = options.clf_port;
  ep_opts.enable_shm_fastpath = options.shm_fastpath;
  ep_opts.faults = options.faults;
  ep_opts.max_retransmits = options.clf_max_retransmits;
  ep_opts.keepalive_interval = options.peer_keepalive_interval;
  ep_opts.peer_timeout = options.peer_timeout;
  DS_ASSIGN_OR_RETURN(
      as->endpoint_,
      clf::Endpoint::Create(
          ep_opts, as->registry_,
          [raw](const transport::SockAddr& from, SharedBuffer message) {
            raw->OnMessage(from, std::move(message));
          },
          [raw](const transport::SockAddr& addr) { raw->OnPeerDown(addr); },
          [raw](const transport::SockAddr& addr) { raw->OnPeerUp(addr); }));
  as->InitObservability();
  as->dispatcher_->Start();
  as->ns_->Start();
  as->started_.store(true, std::memory_order_release);
  return as;
}

void AddressSpace::InitObservability() {
  // Pull providers, evaluated at snapshot time. They read atomics or
  // take only leaf locks (containers_mu_, then each container's own
  // lock after releasing it), and this object outlives the registry's
  // users, so the raw captures are safe.
  registry_.AddProvider("dispatcher.queue_depth",
                        [this] { return static_cast<std::int64_t>(
                                     dispatcher_->pending()); });
  for (const bool is_queue : {false, true}) {
    registry_.AddProvider(
        is_queue ? "containers.queues" : "containers.channels",
        [this, is_queue] {
          ds::MutexLock lock(containers_mu_);
          return static_cast<std::int64_t>(std::count_if(
              containers_.begin(), containers_.end(), [&](const auto& entry) {
                return entry.second->is_queue() == is_queue;
              }));
        });
  }
  registry_.AddProvider("containers.parked_waiters", [this] {
    std::int64_t parked = 0;
    for (auto& [bits, container] : Containers()) {
      parked += static_cast<std::int64_t>(container->parked_get_waiters() +
                                          container->parked_put_waiters());
    }
    return parked;
  });

  // Fault-injector counters: zero in production, load-bearing in
  // simulation — a scenario that asserts on behaviour under loss wants
  // to see how much loss the modeled network actually injected.
  clf::FaultInjector* faults = &endpoint_->fault_injector();
  registry_.AddProvider("clf.fault.dropped", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().dropped);
  });
  registry_.AddProvider("clf.fault.blackholed", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().blackholed);
  });
  registry_.AddProvider("clf.fault.link_dropped", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().link_dropped);
  });
  registry_.AddProvider("clf.fault.delayed", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().delayed);
  });
  registry_.AddProvider("clf.fault.delivered", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().delivered);
  });
  registry_.AddProvider("clf.fault.delayed_pending", [faults] {
    return static_cast<std::int64_t>(faults->delayed_pending());
  });
}

AddressSpace::AddressSpace(const Options& options) : options_(options) {}

AddressSpace::~AddressSpace() {
  Shutdown();
  JoinThreads();
}

void AddressSpace::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;

  // Complete every parked waiter (kCancelled) first, so suspended
  // remote requests flush their replies while the endpoint is still
  // up and local blocked callers unwind. Close runs outside
  // containers_mu_ because it fires completions, which send over CLF.
  for (auto& [bits, container] : Containers()) container->Close();
  dispatcher_->Shutdown();
  // Fences delivery and the timers, whose waiters Close completed. Null
  // only when Create failed to bind the endpoint.
  if (endpoint_) endpoint_->Shutdown();

  // Fail calls still waiting for replies.
  FailCalls([](AsId) { return true; },
            CancelledError("address space shut down"));
  // After the orphan sweep so a ticker blocked in Call wakes promptly
  // instead of riding out its RPC deadline.
  ns_->Stop();
}

// --- topology -------------------------------------------------------------

void AddressSpace::AddPeer(AsId peer, const transport::SockAddr& addr) {
  {
    ds::MutexLock lock(peers_mu_);
    peers_[AsIndex(peer)] = addr;
    peer_by_addr_[addr] = peer;
  }
  // Start liveness monitoring before any traffic flows (no-op unless
  // failure detection is configured).
  endpoint_->WatchPeer(addr);
}

bool AddressSpace::IsPeerDown(AsId peer) const {
  auto addr = PeerAddr(peer);
  return addr.ok() && endpoint_->IsPeerDead(*addr);
}

void AddressSpace::OnPeerDown(const transport::SockAddr& addr) {
  AsId dead = kInvalidAsId;
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(addr);
    if (it == peer_by_addr_.end()) return;  // not a known peer AS
    dead = it->second;
  }
  DS_LOG(kWarn) << "AS" << AsIndex(options_.id) << ": peer AS"
                << AsIndex(dead) << " (" << addr.ToString()
                << ") declared dead; running recovery";

  // 1. Fail calls already waiting on a reply from the dead peer — the
  // reply is never coming.
  FailCalls([dead](AsId target) { return target == dead; },
            UnavailableError("peer address space declared dead"));

  // 2. Complete the dead space's parked waiters with kUnavailable —
  // their replies are undeliverable, and the records would otherwise
  // pin payloads and timers until their deadlines expire (or forever,
  // for infinite-deadline waits).
  {
    const Status gone = UnavailableError("peer address space declared dead");
    std::size_t cancelled = 0;
    for (auto& [bits, container] : Containers()) {
      cancelled += container->CancelWaitersOf(AsIndex(dead), gone);
    }
    if (cancelled != 0) {
      DS_LOG(kInfo) << "completed " << cancelled
                    << " parked waiters of dead AS" << AsIndex(dead);
    }
  }

  // 3. Detach the dead space's connections to our containers so the
  // items it alone was holding become garbage (analogue of the
  // surrogate's Reap for a vanished end device, §3.2.4).
  std::vector<RemoteAttach> attachments;
  {
    ds::MutexLock lock(remote_attach_mu_);
    auto it = remote_attachments_.find(AsIndex(dead));
    if (it != remote_attachments_.end()) {
      attachments = std::move(it->second);
      remote_attachments_.erase(it);
    }
  }
  for (const auto& att : attachments) {
    auto container = FindContainer(att.container_bits, att.is_queue);
    if (!container.ok()) continue;
    const Status detached = (*container)->Detach(att.slot);
    if (!detached.ok()) {
      DS_LOG(kWarn) << "recovery detach failed: " << detached.message();
    }
  }

  // 4. The dead space's names must not satisfy later lookups.
  ns_->OnPeerDown(dead, *dispatcher_);

  // 5. Tell higher layers (listeners, federation) so they can react
  // without polling IsPeerDown.
  std::vector<std::function<void(AsId)>> observers;
  {
    ds::MutexLock lock(peer_observers_mu_);
    observers = peer_down_observers_;
  }
  for (auto& observer : observers) observer(dead);
}

void AddressSpace::AddPeerDownObserver(std::function<void(AsId)> observer) {
  ds::MutexLock lock(peer_observers_mu_);
  peer_down_observers_.push_back(std::move(observer));
}

void AddressSpace::AddPeerUpObserver(std::function<void(AsId)> observer) {
  ds::MutexLock lock(peer_observers_mu_);
  peer_up_observers_.push_back(std::move(observer));
}

void AddressSpace::OnPeerUp(const transport::SockAddr& addr) {
  AsId peer = kInvalidAsId;
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(addr);
    if (it == peer_by_addr_.end()) return;
    peer = it->second;
  }
  DS_LOG(kInfo) << "AS" << AsIndex(options_.id) << ": peer AS"
                << AsIndex(peer) << " resurrected with a new incarnation";
  std::vector<std::function<void(AsId)>> observers;
  {
    ds::MutexLock lock(peer_observers_mu_);
    observers = peer_up_observers_;
  }
  for (auto& observer : observers) observer(peer);
}

Result<transport::SockAddr> AddressSpace::PeerAddr(AsId peer) const {
  ds::MutexLock lock(peers_mu_);
  auto it = peers_.find(AsIndex(peer));
  if (it == peers_.end()) {
    return NotFoundError("unknown peer address space");
  }
  return it->second;
}

// --- RPC plumbing ----------------------------------------------------------

Result<SharedBuffer> AddressSpace::Call(AsId target, Op op, const BodyFn& body,
                                        Deadline deadline,
                                        std::size_t size_hint) {
  // A Call blocks on the CLF round-trip; entering it with any ds::Mutex
  // held is the invariant violation behind the PR 2 Resume-reply
  // deadlock, so fail loudly under the runtime detector.
  sync::AssertBlockingAllowed("AddressSpace::Call");
  if (stopping_.load()) return CancelledError("address space shut down");
  m_api_remote_calls_->Add();
  DS_ASSIGN_OR_RETURN(transport::SockAddr addr, PeerAddr(target));

  const std::uint64_t id = next_request_id_.fetch_add(1);
  marshal::XdrEncoder enc(size_hint);
  EncodeRequestHeader(enc, op, id);
  body(enc);
  auto reply = std::make_shared<SyncWaiter<Result<SharedBuffer>>>();
  {
    ds::MutexLock lock(calls_mu_);
    calls_.emplace(id, OutstandingCall{target, reply});
  }
  Status sent = endpoint_->Send(addr, enc.Take());
  if (!sent.ok()) {
    ds::MutexLock lock(calls_mu_);
    calls_.erase(id);
    return sent;
  }

  // The callee may legitimately block right up to the wire deadline;
  // allow transport slack on top before declaring the call lost.
  Deadline wait = deadline.infinite()
                      ? deadline
                      : Deadline::After(deadline.remaining() + Millis(5000));
  if (!reply->AwaitUntil(wait)) {
    ds::MutexLock lock(calls_mu_);
    calls_.erase(id);
    return TimeoutError("rpc call");
  }
  return reply->TakeResult();
}

void AddressSpace::FailCalls(const std::function<bool(AsId)>& doomed,
                             const Status& status) {
  std::vector<std::shared_ptr<SyncWaiter<Result<SharedBuffer>>>> failed;
  {
    ds::MutexLock lock(calls_mu_);
    for (auto it = calls_.begin(); it != calls_.end();) {
      if (doomed(it->second.target)) {
        failed.push_back(std::move(it->second.reply));
        it = calls_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& reply : failed) reply->Complete(status);
}

void AddressSpace::OnMessage(const transport::SockAddr& from,
                             SharedBuffer message) {
  marshal::XdrDecoder peek(message);
  auto hdr = DecodeRequestHeader(peek);
  if (!hdr.ok()) {
    DS_LOG(kWarn) << "AS" << AsIndex(options_.id) << ": undecodable frame from "
                  << from.ToString();
    return;
  }
  if (hdr->op == Op::kReply) {
    std::shared_ptr<SyncWaiter<Result<SharedBuffer>>> reply;
    {
      ds::MutexLock lock(calls_mu_);
      auto node = calls_.extract(hdr->request_id);
      if (node.empty()) return;  // late: the call timed out or failed
      reply = std::move(node.mapped().reply);
    }
    reply->Complete(std::move(message));
    return;
  }
  // Attribute the request to the sending address space (for attachment
  // bookkeeping); requests from unknown addresses stay anonymous.
  Peer peer{from, kInvalidAsId};
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(from);
    if (it != peer_by_addr_.end()) peer.id = it->second;
  }
  m_dispatch_requests_->Add();
  SharedBuffer body =
      message.Slice(message.size() - peek.remaining(), peek.remaining());
  if (!MayBlock(hdr->op) && started_.load(std::memory_order_acquire)) {
    ServeRequest(peer, *hdr, body);
    return;
  }
  auto task = [this, peer, hdr = *hdr, body = std::move(body)] {
    ServeRequest(peer, hdr, body);
  };
  if (!dispatcher_->Submit(std::move(task))) {
    // Refused on the delivering thread.
    m_dropped_or_expired_->Add();
    DS_LOG(kWarn) << "AS" << AsIndex(options_.id)
                  << ": dispatcher rejected request " << hdr->request_id
                  << " (shutting down), trace=" << TraceTag(hdr->trace);
    (void)endpoint_->Send(
        from, EncodeStatusReply(hdr->request_id,
                                UnavailableError("dispatcher shutting down")));
  }
}

void AddressSpace::ServeRequest(const Peer& peer, const RequestHeader& hdr,
                                const SharedBuffer& body) {
  // The caller's context rides the whole execution of this request:
  // spans opened below parent onto it and every outgoing
  // EncodeRequestHeader re-emits it (trace propagation).
  trace::ScopedContext tracing(hdr.trace);
  if (stopping_.load()) {
    m_dropped_or_expired_->Add();
    DS_LOG(kWarn) << "dropping request " << hdr.request_id
                  << " (address space shutting down), trace="
                  << TraceTag(hdr.trace);
    (void)endpoint_->Send(
        peer.addr,
        EncodeStatusReply(hdr.request_id,
                          UnavailableError("address space shutting down")));
    return;
  }
  marshal::XdrDecoder fields(body);
  Buffer reply = Serve(hdr, fields, &peer);
  if (!reply.empty()) (void)endpoint_->Send(peer.addr, std::move(reply));
}

Buffer AddressSpace::ExecuteWireRequest(
    std::span<const std::uint8_t> message) {
  marshal::XdrDecoder body(message);
  auto hdr = DecodeRequestHeader(body);
  if (!hdr.ok()) return Buffer();  // cannot even address a reply
  return Serve(*hdr, body, /*peer=*/nullptr);
}

namespace {

// Container ids embed their owner AS (ids.hpp); channels and queues
// share the handle layout so either tag works for extraction.
AsId OwnerOf(std::uint64_t container_bits) {
  return ChannelId::FromBits(container_bits).owner();
}

}  // namespace

template <typename Req>
Buffer AddressSpace::Park(const RequestHeader& hdr, Req& req,
                          const Peer& peer) {
  const std::uint64_t id = hdr.request_id;
  auto container = FindContainer(req.container_bits, req.is_queue);
  if (!container.ok()) return EncodeStatusReply(id, container.status());
  // Reply exactly once from whichever thread resolves the waiter
  // (putter, consumer, the receiver firing its deadline, peer-death,
  // close, shutdown).
  auto reply =
      std::make_shared<DeferredReply>([this, to = peer.addr](Buffer encoded) {
        if (!encoded.empty()) (void)endpoint_->Send(to, std::move(encoded));
      });
  // The suspension itself is a span: it starts here (request arrives,
  // try phase may park it) and ends — possibly on the producer's
  // thread or the CLF receiver — when the continuation fires. Shared
  // because the completions are copyable std::functions.
  auto parked = std::make_shared<trace::PendingSpan>(
      &span_sink_, "owner.parked", hdr.trace);
  auto finish = [this, id, reply, parked, op = hdr.op, tctx = hdr.trace](
                    const Status& status, Buffer encoded) {
    parked->Finish();
    if (status.code() == StatusCode::kTimeout) {
      m_dropped_or_expired_->Add();
      DS_LOG(kWarn) << "parked " << (op == Op::kPut ? "put " : "get ") << id
                    << " expired at deadline, trace=" << TraceTag(tctx);
    }
    (void)reply->Complete(std::move(encoded));
  };
  // The waiter carries the caller's AS index, so OnPeerDown can cancel
  // it; a request from an unknown address carries the no-origin
  // sentinel and completes only by deadline, close or shutdown.
  std::uint64_t waiter = 0;
  if constexpr (std::is_same_v<Req, PutReq>) {
    waiter = (*container)->PutAsync(
        req.ts, std::move(req.payload),
        DecodeDeadline(req.deadline_ms),
        [finish, id](Status st) { finish(st, EncodeStatusReply(id, st)); },
        AsIndex(peer.id));
  } else {
    waiter = (*container)->GetAsync(
        req.slot, req.spec, DecodeDeadline(req.deadline_ms),
        [finish, id](Result<ItemView> item) {
          finish(item.status(), item.ok()
                                    ? EncodeItemReply(id, *item)
                                    : EncodeStatusReply(id, item.status()));
        },
        AsIndex(peer.id));
  }
  if (waiter != 0) m_dispatch_deferred_->Add();
  return Buffer();
}

Buffer AddressSpace::Serve(const RequestHeader& hdr, marshal::XdrDecoder& body,
                           const Peer* peer) {
  // Who asked picks the handler, by this one rule. A peer's request is
  // served on this space's own state — its containers, name-server
  // replica, replication log and registry — or refused: it is never
  // re-issued through the public API, so it is never forwarded and
  // never counts in api.*. An end device's frame goes through the
  // location-transparent public API, which routes it to whichever
  // space owns the state; the replica-internal and session-registry ops
  // have no public device API, so a device is refused them.
  const std::uint64_t id = hdr.request_id;
  switch (hdr.op) {
    case Op::kCreateChannel:
    case Op::kCreateQueue: {
      auto req = Decode<CreateReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      return EncodeReply(
          id,
          CreateOn(options_.id, hdr.op == Op::kCreateQueue,
                   static_cast<std::size_t>(req->capacity), req->debug_name),
          [](marshal::XdrEncoder& enc, std::uint64_t bits) {
            enc.PutU64(bits);
          });
    }
    case Op::kAttach: {
      auto req = Decode<AttachReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      auto encode_slot = [](marshal::XdrEncoder& enc, const Connection& conn) {
        enc.PutU32(conn.slot());
      };
      if (peer == nullptr) {
        return EncodeReply(id,
                           ConnectTo(req->container_bits, req->is_queue,
                                     req->mode, req->label),
                           encode_slot);
      }
      auto container = FindContainer(req->container_bits, req->is_queue);
      if (!container.ok()) return EncodeStatusReply(id, container.status());
      const Connection conn(req->container_bits, req->is_queue, req->mode,
                            options_.id,
                            (*container)->Attach(req->mode, req->label));
      // Remember which peer holds the slot so its connections can be
      // detached (and its items reclaimed) if it dies.
      if (peer->id != kInvalidAsId) {
        ds::MutexLock lock(remote_attach_mu_);
        remote_attachments_[AsIndex(peer->id)].push_back(
            {req->container_bits, req->is_queue, conn.slot()});
      }
      return EncodeReply(id, Result<Connection>(conn), encode_slot);
    }
    case Op::kDetach: {
      auto req = Decode<DetachReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (peer == nullptr) {
        return EncodeStatusReply(
            id, Disconnect(Connection(req->container_bits, req->is_queue,
                                      ConnMode::kInputOutput,
                                      OwnerOf(req->container_bits),
                                      req->slot)));
      }
      auto container = FindContainer(req->container_bits, req->is_queue);
      if (!container.ok()) return EncodeStatusReply(id, container.status());
      const Status status = (*container)->Detach(req->slot);
      if (status.ok() && peer->id != kInvalidAsId) {
        ds::MutexLock lock(remote_attach_mu_);
        std::erase_if(remote_attachments_[AsIndex(peer->id)],
                      [&](const RemoteAttach& att) {
                        return att.container_bits == req->container_bits &&
                               att.is_queue == req->is_queue &&
                               att.slot == req->slot;
                      });
      }
      return EncodeStatusReply(id, status);
    }
    case Op::kPut: {
      auto req = Decode<PutReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (peer != nullptr) {
        if (!CanOutput(req->mode)) {
          return EncodeStatusReply(
              id, PermissionDeniedError("connection is input-only"));
        }
        return Park(hdr, *req, *peer);
      }
      const Connection conn(req->container_bits, req->is_queue, req->mode,
                            OwnerOf(req->container_bits), req->slot);
      return EncodeStatusReply(
          id, PutItem(conn, req->ts, std::move(req->payload),
                      DecodeDeadline(req->deadline_ms)));
    }
    case Op::kGet: {
      auto req = Decode<GetReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (peer != nullptr) return Park(hdr, *req, *peer);
      const Connection conn(req->container_bits, req->is_queue, req->mode,
                            OwnerOf(req->container_bits), req->slot);
      Result<ItemView> item =
          Get(conn, req->spec, DecodeDeadline(req->deadline_ms));
      if (!item.ok()) return EncodeStatusReply(id, item.status());
      return EncodeItemReply(id, *item);
    }
    case Op::kConsume: {
      auto req = Decode<ConsumeReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (peer != nullptr) {
        return EncodeStatusReply(
            id, ConsumeHere(req->container_bits, req->is_queue, req->slot,
                            req->ts, req->until));
      }
      const Connection conn(req->container_bits, req->is_queue, req->mode,
                            OwnerOf(req->container_bits), req->slot);
      return EncodeStatusReply(id, ConsumeAt(conn, req->ts, req->until));
    }
    case Op::kSetFilter: {
      auto req = Decode<SetFilterReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (peer != nullptr) {
        auto ch = FindChannel(req->container_bits);
        return EncodeStatusReply(id, ch ? ch->SetFilter(req->slot, req->filter)
                                        : NotFoundError("channel"));
      }
      const Connection conn(req->container_bits, /*is_queue=*/false,
                            ConnMode::kInput, OwnerOf(req->container_bits),
                            req->slot);
      return EncodeStatusReply(id, SetFilter(conn, req->filter));
    }
    case Op::kMetrics: {
      auto req = Decode<MetricsReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      const AsId target = static_cast<AsId>(req->target_as);
      Result<std::string> snapshot =
          FailedPreconditionError("not this space's metrics");
      if (peer == nullptr) {
        snapshot = MetricsSnapshot(target);  // local, or from the target
      } else if (target == options_.id) {
        snapshot = MetricsJson();
      }
      return EncodeReply(id, snapshot,
                         [](marshal::XdrEncoder& enc, const std::string& json) {
                           enc.PutString(json);
                         });
    }
    case Op::kRepAppend:
    case Op::kRepFetch:
      if (peer == nullptr) {
        return EncodeStatusReply(
            id, PermissionDeniedError("replica-internal op"));
      }
      return ns_->Serve(hdr, body, /*from_peer=*/true);
    case Op::kSessionPut:
    case Op::kSessionGet:
    case Op::kSessionDrop:
    case Op::kSessionTick:
      // Surrogates and listeners reach the registry through Session*;
      // a device could otherwise read, forge or drop any session.
      if (peer == nullptr) {
        return EncodeStatusReply(
            id, PermissionDeniedError("session-registry op"));
      }
      return ns_->Serve(hdr, body, /*from_peer=*/true);
    case Op::kNsRegister:
    case Op::kNsUnregister:
    case Op::kNsLookup:
    case Op::kNsList:
      return ns_->Serve(hdr, body, /*from_peer=*/peer != nullptr);
    case Op::kReply:
      break;
  }
  return EncodeStatusReply(id, InternalError("unknown op"));
}

// --- containers --------------------------------------------------------------

Result<ChannelId> AddressSpace::CreateChannel(const ChannelAttr& attr) {
  return CreateChannelOn(options_.id, attr);
}

Result<QueueId> AddressSpace::CreateQueue(const QueueAttr& attr) {
  return CreateQueueOn(options_.id, attr);
}

Result<ChannelId> AddressSpace::CreateChannelOn(AsId owner,
                                                const ChannelAttr& attr) {
  DS_ASSIGN_OR_RETURN(std::uint64_t bits,
                      CreateOn(owner, /*is_queue=*/false, attr.capacity_items,
                               attr.debug_name));
  return ChannelId::FromBits(bits);
}

Result<QueueId> AddressSpace::CreateQueueOn(AsId owner, const QueueAttr& attr) {
  DS_ASSIGN_OR_RETURN(std::uint64_t bits,
                      CreateOn(owner, /*is_queue=*/true, attr.capacity_items,
                               attr.debug_name));
  return QueueId::FromBits(bits);
}

Result<std::uint64_t> AddressSpace::CreateOn(AsId owner, bool is_queue,
                                             std::size_t capacity,
                                             const std::string& debug_name) {
  if (owner == options_.id) {
    if (stopping_.load()) return CancelledError("address space shut down");
    std::uint32_t slot = 0;
    {
      ds::MutexLock lock(containers_mu_);
      slot = next_container_slot_++;
    }
    const std::uint64_t bits = ChannelId(options_.id, slot).bits();
    // Every reclaimed item leaves through here, on the reclaiming thread.
    ReclaimHook on_reclaim = [gc = &gc_, bits,
                              is_queue](const ReclaimedItems& freed) {
      gc->Publish(bits, is_queue, freed);
    };
    std::shared_ptr<LocalContainer> container;
    if (is_queue) {
      container = std::make_shared<LocalQueue>(QueueAttr{capacity, debug_name},
                                               &endpoint_->timers(),
                                               std::move(on_reclaim));
    } else {
      container = std::make_shared<LocalChannel>(
          ChannelAttr{capacity, debug_name}, &endpoint_->timers(),
          std::move(on_reclaim));
    }
    container->set_metrics(stm_metrics_);
    ds::MutexLock lock(containers_mu_);
    containers_.emplace(slot, std::move(container));
    return bits;
  }
  CreateReq req;
  req.capacity = capacity;
  req.debug_name = debug_name;
  return DecodeReply(
      Call(owner, is_queue ? Op::kCreateQueue : Op::kCreateChannel,
           BodyOf(req), InternalDeadline()),
      [](marshal::XdrDecoder& dec) { return dec.GetU64(); });
}

Result<std::shared_ptr<LocalContainer>> AddressSpace::FindContainer(
    std::uint64_t bits, bool is_queue) {
  // Channel and queue ids share one layout (ids.hpp) and one slot
  // counter, so the slot alone finds the container; its kind must
  // still match the handle's.
  const ChannelId id = ChannelId::FromBits(bits);
  if (id.owner() == options_.id) {
    ds::MutexLock lock(containers_mu_);
    auto it = containers_.find(id.slot());
    if (it != containers_.end() && it->second->is_queue() == is_queue) {
      return it->second;
    }
  }
  return NotFoundError(is_queue ? "queue" : "channel");
}

AddressSpace::ContainerList AddressSpace::Containers() {
  ContainerList out;
  ds::MutexLock lock(containers_mu_);
  out.reserve(containers_.size());
  for (auto& [slot, container] : containers_) {
    out.emplace_back(ChannelId(options_.id, slot).bits(), container);
  }
  return out;
}

std::shared_ptr<LocalChannel> AddressSpace::FindChannel(std::uint64_t bits) {
  return std::static_pointer_cast<LocalChannel>(
      FindContainer(bits, /*is_queue=*/false).value_or(nullptr));
}

std::shared_ptr<LocalQueue> AddressSpace::FindQueue(std::uint64_t bits) {
  return std::static_pointer_cast<LocalQueue>(
      FindContainer(bits, /*is_queue=*/true).value_or(nullptr));
}

// --- plumbing ----------------------------------------------------------------

Result<Connection> AddressSpace::Connect(ChannelId ch, ConnMode mode,
                                         std::string label) {
  return ConnectTo(ch.bits(), /*is_queue=*/false, mode, std::move(label));
}

Result<Connection> AddressSpace::Connect(QueueId q, ConnMode mode,
                                         std::string label) {
  return ConnectTo(q.bits(), /*is_queue=*/true, mode, std::move(label));
}

Result<Connection> AddressSpace::ConnectTo(std::uint64_t bits, bool is_queue,
                                           ConnMode mode, std::string label) {
  m_api_attaches_->Add();
  if (label.empty()) label = "thread@AS" + std::to_string(AsIndex(options_.id));
  const AsId owner = OwnerOf(bits);
  if (owner == options_.id) {
    DS_ASSIGN_OR_RETURN(auto container, FindContainer(bits, is_queue));
    return Connection(bits, is_queue, mode, owner,
                      container->Attach(mode, std::move(label)));
  }
  AttachReq req;
  req.container_bits = bits;
  req.is_queue = is_queue;
  req.mode = mode;
  req.label = std::move(label);
  DS_ASSIGN_OR_RETURN(
      std::uint32_t slot,
      DecodeReply(Call(owner, Op::kAttach, BodyOf(req), InternalDeadline()),
                  [](marshal::XdrDecoder& dec) { return dec.GetU32(); }));
  return Connection(bits, is_queue, mode, owner, slot);
}

Status AddressSpace::Disconnect(const Connection& conn) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  m_api_detaches_->Add();
  if (conn.owner() == options_.id) {
    DS_ASSIGN_OR_RETURN(auto container,
                        FindContainer(conn.container_bits(), conn.is_queue()));
    return container->Detach(conn.slot());
  }
  DetachReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.slot = conn.slot();
  return ReplyStatus(
      Call(conn.owner(), Op::kDetach, BodyOf(req), InternalDeadline()));
}

// --- I/O ------------------------------------------------------------------------

Status AddressSpace::Put(const Connection& conn, Timestamp ts, Buffer payload,
                         Deadline deadline) {
  return PutItem(conn, ts, SharedBuffer(std::move(payload)), deadline);
}

Status AddressSpace::PutItem(const Connection& conn, Timestamp ts,
                             SharedBuffer payload, Deadline deadline) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  m_api_puts_->Add();
  m_api_bytes_put_->Add(payload.size());
  if (!CanOutput(conn.mode())) {
    return PermissionDeniedError("connection is input-only");
  }
  if (conn.owner() == options_.id) {
    // The owner serving the op is a span of its own; for a blocking
    // put (channel at capacity) its duration is the block time.
    // Inactive (a TLS read) when the calling context is unsampled.
    trace::ScopedSpan serve(&span_sink_, "owner.serve");
    DS_ASSIGN_OR_RETURN(auto container,
                        FindContainer(conn.container_bits(), conn.is_queue()));
    return container->Put(ts, std::move(payload), deadline);
  }
  PutReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.deadline_ms = EncodeDeadline(deadline);
  req.payload = std::move(payload);
  return ReplyStatus(Call(conn.owner(), Op::kPut, BodyOf(req), deadline,
                          req.payload.size() + 96));
}

Result<ItemView> AddressSpace::Get(const Connection& conn, GetSpec spec,
                                   Deadline deadline) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  m_api_gets_->Add();
  Result<ItemView> item = InternalError("unset");
  if (conn.owner() == options_.id) {
    // Owner-side serving span; for a blocking get the duration is the
    // time parked waiting for the producer.
    trace::ScopedSpan serve(&span_sink_, "owner.serve");
    DS_ASSIGN_OR_RETURN(auto container,
                        FindContainer(conn.container_bits(), conn.is_queue()));
    item = container->Get(conn.slot(), spec, deadline);
  } else {
    GetReq req;
    req.container_bits = conn.container_bits();
    req.is_queue = conn.is_queue();
    req.mode = conn.mode();
    req.slot = conn.slot();
    req.spec = spec;
    req.deadline_ms = EncodeDeadline(deadline);
    item = DecodeReply(Call(conn.owner(), Op::kGet, BodyOf(req), deadline),
                       Decode<ItemView, marshal::XdrDecoder>);
  }
  if (item.ok()) m_api_bytes_got_->Add(item->payload.size());
  return item;
}

Result<ItemView> AddressSpace::Get(const Connection& conn, Deadline deadline) {
  return Get(conn, GetSpec::Oldest(), deadline);
}

Status AddressSpace::ConsumeAt(const Connection& conn, Timestamp ts,
                               bool until) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  m_api_consumes_->Add();
  if (until && conn.is_queue()) {
    return InvalidArgumentError("consume-until is channel-only");
  }
  if (conn.owner() == options_.id) {
    return ConsumeHere(conn.container_bits(), conn.is_queue(), conn.slot(), ts,
                       until);
  }
  ConsumeReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.until = until;
  return ReplyStatus(
      Call(conn.owner(), Op::kConsume, BodyOf(req), InternalDeadline()));
}

Status AddressSpace::ConsumeHere(std::uint64_t bits, bool is_queue,
                                 std::uint32_t slot, Timestamp ts,
                                 bool until) {
  if (until && is_queue) {
    return InvalidArgumentError("consume-until is channel-only");
  }
  DS_ASSIGN_OR_RETURN(auto container, FindContainer(bits, is_queue));
  if (!until) return container->Consume(slot, ts);
  return static_cast<LocalChannel&>(*container).ConsumeUntil(slot, ts);
}

Status AddressSpace::SetFilter(const Connection& conn,
                               const ItemFilter& filter) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  if (conn.is_queue()) {
    return InvalidArgumentError("filters apply to channels");
  }
  if (conn.owner() == options_.id) {
    auto ch = FindChannel(conn.container_bits());
    return ch ? ch->SetFilter(conn.slot(), filter) : NotFoundError("channel");
  }
  SetFilterReq req;
  req.container_bits = conn.container_bits();
  req.slot = conn.slot();
  req.filter = filter;
  return ReplyStatus(
      Call(conn.owner(), Op::kSetFilter, BodyOf(req), InternalDeadline()));
}

// --- handler functions -----------------------------------------------------------

Status AddressSpace::SetChannelGcHandler(ChannelId ch, GcHandler handler) {
  return SetGcHandler(ch.bits(), /*is_queue=*/false, std::move(handler));
}

Status AddressSpace::SetQueueGcHandler(QueueId q, GcHandler handler) {
  return SetGcHandler(q.bits(), /*is_queue=*/true, std::move(handler));
}

Status AddressSpace::SetGcHandler(std::uint64_t bits, bool is_queue,
                                  GcHandler handler) {
  auto container = FindContainer(bits, is_queue);
  if (!container.ok()) {
    return FailedPreconditionError(
        "GC handlers install at the owner address space");
  }
  // Off the reclaiming thread, onto the pool (see SetChannelGcHandler).
  // Once the pool has stopped the space is shutting down: the
  // reclaiming thread runs it then, and a remote call it makes fails
  // at once.
  (*container)->set_gc_handler(
      [this, handler = std::move(handler)](Timestamp ts,
                                           const SharedBuffer& payload) {
        if (!dispatcher_->Submit([handler, ts, payload] {
              handler(ts, payload);
            })) {
          handler(ts, payload);
        }
      });
  return OkStatus();
}

// --- observability ---------------------------------------------------------------

std::string AddressSpace::MetricsJson() {
  // Copy the container table, then query each container outside
  // containers_mu_ (each query takes only the container's own lock).
  const ContainerList containers = Containers();

  std::string out;
  out += "{\"as\":" + std::to_string(AsIndex(options_.id));
  out += ",\"registry\":";
  registry_.WriteJson(out);
  out += ",\"spans\":";
  span_sink_.WriteJson(out);
  // Each kind keeps its own array and occupancy fields.
  for (const bool queues : {false, true}) {
    out += queues ? "],\"queues\":[" : ",\"channels\":[";
    bool first = true;
    for (const auto& [bits, container] : containers) {
      if (container->is_queue() != queues) continue;
      if (!first) out += ',';
      first = false;
      out += "{\"id\":" + std::to_string(bits);
      out += ",\"name\":";
      if (queues) {
        const auto& q = static_cast<const LocalQueue&>(*container);
        json::AppendQuoted(out, q.attr().debug_name);
        out += ",\"queued_items\":" + std::to_string(q.queued_items());
        out += ",\"in_flight\":" + std::to_string(q.in_flight_items());
      } else {
        const auto& ch = static_cast<const LocalChannel&>(*container);
        json::AppendQuoted(out, ch.attr().debug_name);
        out += ",\"live_items\":" + std::to_string(ch.live_items());
        const Timestamp frontier = ch.timestamp_frontier();
        out += ",\"frontier\":" +
               std::to_string(frontier == kInvalidTimestamp ? -1 : frontier);
      }
      out += ",\"parked_gets\":" +
             std::to_string(container->parked_get_waiters());
      out += ",\"parked_puts\":" +
             std::to_string(container->parked_put_waiters());
      out += ",\"total_puts\":" + std::to_string(container->total_puts());
      out += ",\"reclaimed\":" + std::to_string(container->total_reclaimed());
      out += '}';
    }
  }
  out += "]}";
  return out;
}

Result<std::string> AddressSpace::MetricsSnapshot(AsId target) {
  if (target == options_.id) return MetricsJson();
  MetricsReq req;
  req.target_as = AsIndex(target);
  return DecodeReply(
      Call(target, Op::kMetrics, BodyOf(req), InternalDeadline()),
      [](marshal::XdrDecoder& dec) { return dec.GetString(); });
}

Status AddressSpace::AdvertiseMetrics() {
  NsEntry entry;
  entry.name = "sys/metrics/" + std::to_string(AsIndex(options_.id));
  entry.kind = NsEntry::Kind::kOther;
  entry.id_bits = AsIndex(options_.id);
  entry.meta = "sys/metrics snapshot endpoint; clf=" +
               endpoint_->addr().ToString();
  entry.owner_as = options_.id;
  return NsRegister(entry);
}

Status AddressSpace::AdvertiseNsReplica() {
  if (local_name_server() == nullptr) return OkStatus();
  NsEntry entry;
  entry.name = "sys/ns/" + std::to_string(AsIndex(options_.id));
  entry.kind = NsEntry::Kind::kOther;
  entry.id_bits = AsIndex(options_.id);
  entry.meta = "name-server replica; clf=" + endpoint_->addr().ToString();
  entry.owner_as = options_.id;
  return NsRegister(entry);
}

// --- threads -----------------------------------------------------------------------

ThreadId AddressSpace::Spawn(std::string name, std::function<void()> body) {
  ds::MutexLock lock(threads_mu_);
  const std::uint32_t slot = next_thread_slot_++;
  // The advisory name becomes the thread's log prefix; "" inherits
  // this address space's context.
  threads_.emplace_back(Thread(std::move(name), std::move(body)));
  return ThreadId(options_.id, slot);
}

void AddressSpace::JoinThreads() {
  for (;;) {
    std::vector<Thread> batch;
    {
      ds::MutexLock lock(threads_mu_);
      if (threads_.empty()) return;
      batch.swap(threads_);
    }
    for (auto& t : batch) {
      if (t.joinable()) t.join();
    }
  }
}

std::size_t AddressSpace::live_threads() const {
  ds::MutexLock lock(threads_mu_);
  return threads_.size();
}

}  // namespace dstampede::core
