#include "dstampede/core/address_space.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
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

}  // namespace

Result<std::unique_ptr<AddressSpace>> AddressSpace::Create(
    const Options& options) {
  auto as = std::unique_ptr<AddressSpace>(new AddressSpace(options));
  AddressSpace* raw = as.get();
  as->wheel_ = std::make_unique<TimerWheel>();
  // Its workers reply through endpoint_, so they start after it exists;
  // requests delivered before then wait in the queue.
  as->dispatcher_ = std::make_unique<ThreadPool>(
      options.dispatcher_threads,
      "AS" + std::to_string(AsIndex(options.id)));
  as->gc_ = std::make_unique<GcService>(options.gc_interval,
                                        [raw] { return raw->Containers(); });
  const bool is_ns_replica =
      std::find(options.ns_replicas.begin(), options.ns_replicas.end(),
                options.id) != options.ns_replicas.end();
  if (options.host_name_server || is_ns_replica) {
    as->name_server_ = std::make_unique<NameServer>();
  }
  if (!options.ns_replicas.empty()) {
    as->ns_as_ = options.ns_replicas.front();
  } else if (options.host_name_server) {
    as->ns_as_ = options.id;
  }
  if (is_ns_replica && options.ns_replicas.size() > 1) {
    RepLog::Options ro;
    ro.self = options.id;
    ro.replicas = options.ns_replicas;
    std::sort(ro.replicas.begin(), ro.replicas.end());
    ro.lease = options.ns_lease;
    ro.heartbeat = options.ns_heartbeat;
    ro.rpc_deadline = std::max<Duration>(options.ns_heartbeat * 2, Millis(50));
    as->replog_ = std::make_unique<RepLog>(
        ro,
        /*apply=*/
        [raw](const Buffer& entry) {
          auto m = DecodeNsMutation(entry);
          if (!m.ok()) {
            DS_LOG(kWarn) << "undecodable replicated ns mutation: "
                          << m.status().message();
            return;
          }
          // Re-applied entries may report their usual app error
          // (duplicate register, tick of a dropped session); state
          // still converges, so only the appender cares.
          (void)raw->name_server_->Apply(*m);
        },
        /*send=*/
        [raw](AsId target, Op op,
              const std::function<void(marshal::XdrEncoder&)>& body,
              Deadline deadline) -> Result<Buffer> {
          marshal::XdrEncoder enc;
          EncodeRequestHeader(enc, op, raw->next_request_id_.fetch_add(1));
          body(enc);
          return raw->Call(target, enc.Take(), deadline);
        },
        /*peer_dead=*/[raw](AsId peer) { return raw->IsPeerDown(peer); });
    as->replog_->set_on_became_leader([raw] { raw->OnBecameNsLeader(); });
  }
  // Delivery starts as soon as the socket binds, so this comes after
  // everything OnMessage and the peer upcalls touch.
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
          [raw](const transport::SockAddr& from, Buffer message) {
            raw->OnMessage(from, std::move(message));
          },
          [raw](const transport::SockAddr& addr) { raw->OnPeerDown(addr); },
          [raw](const transport::SockAddr& addr) { raw->OnPeerUp(addr); }));
  as->InitObservability();
  as->gc_->Start();
  as->dispatcher_->Start();
  if (as->replog_) as->replog_->Start();
  return as;
}

void AddressSpace::InitObservability() {
  // Hot-path instruments, cached once: registry addresses are stable
  // for the registry's lifetime, so the fast paths hit only atomics.
  stm_metrics_.puts = &registry_.GetCounter("stm.puts");
  stm_metrics_.gets = &registry_.GetCounter("stm.gets");
  stm_metrics_.reclaimed = &registry_.GetCounter("stm.reclaimed_items");
  stm_metrics_.reclaim_lag_us = &registry_.GetHistogram("stm.reclaim_lag_us");

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

  if (name_server_) {
    NameServer* ns = name_server_.get();
    registry_.AddProvider("ns.entries", [ns] {
      return static_cast<std::int64_t>(ns->size());
    });
    registry_.AddProvider("ns.sessions", [ns] {
      return static_cast<std::int64_t>(ns->session_count());
    });
    registry_.AddProvider("ns.lookups", [ns] {
      return static_cast<std::int64_t>(ns->total_lookups());
    });
    registry_.AddProvider("ns.purged_entries", [ns] {
      return static_cast<std::int64_t>(ns->total_purged());
    });
  }
  if (replog_) {
    RepLog* rl = replog_.get();
    registry_.AddProvider("ns.leader_changes", [rl] {
      return static_cast<std::int64_t>(rl->leader_changes());
    });
    registry_.AddProvider("ns.log_appends", [rl] {
      return static_cast<std::int64_t>(rl->log_appends());
    });
    registry_.AddProvider("ns.replica_lag", [rl] {
      return static_cast<std::int64_t>(rl->replica_lag());
    });
    registry_.AddProvider("ns.replog.is_leader",
                          [rl] { return rl->IsLeader() ? 1 : 0; });
    registry_.AddProvider("ns.replog.term", [rl] {
      return static_cast<std::int64_t>(rl->term());
    });
  }
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
  // Join the timer wheel before tearing down what its callbacks touch
  // (containers, endpoint). New waiters cannot register: the containers
  // are closed.
  if (wheel_) wheel_->Shutdown();
  gc_->Stop();
  dispatcher_->Shutdown();
  // Fences delivery. Null only when Create failed to bind the endpoint.
  if (endpoint_) endpoint_->Shutdown();

  // Fail calls still waiting for replies.
  std::vector<std::shared_ptr<PendingCall>> orphans;
  {
    ds::MutexLock lock(calls_mu_);
    for (auto& [id, call] : calls_) orphans.push_back(call);
    calls_.clear();
  }
  for (auto& call : orphans) {
    ds::MutexLock lock(call->mu);
    call->done = true;
    call->status = CancelledError("address space shut down");
    call->cv.NotifyAll();
  }
  // After the orphan sweep so a ticker blocked in Call wakes promptly
  // instead of riding out its RPC deadline.
  if (replog_) replog_->Stop();
}

// --- topology -------------------------------------------------------------

void AddressSpace::AddPeer(AsId peer, const transport::SockAddr& addr) {
  {
    ds::MutexLock lock(peers_mu_);
    peers_[AsIndex(peer)] = addr;
    peer_by_addr_[addr] = peer;
    dead_peers_.erase(AsIndex(peer));  // re-adding re-admits
  }
  // Start liveness monitoring before any traffic flows (no-op unless
  // failure detection is configured).
  endpoint_->WatchPeer(addr);
}

bool AddressSpace::IsPeerDown(AsId peer) const {
  ds::MutexLock lock(peers_mu_);
  return dead_peers_.count(AsIndex(peer)) != 0;
}

void AddressSpace::OnPeerDown(const transport::SockAddr& addr) {
  AsId dead = kInvalidAsId;
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(addr);
    if (it == peer_by_addr_.end()) return;  // not a known peer AS
    dead = it->second;
    dead_peers_.insert(AsIndex(dead));
  }
  DS_LOG(kWarn) << "AS" << AsIndex(options_.id) << ": peer AS"
                << AsIndex(dead) << " (" << addr.ToString()
                << ") declared dead; running recovery";

  // 1. Fail calls already waiting on a reply from the dead peer — the
  // reply is never coming.
  std::vector<std::shared_ptr<PendingCall>> doomed;
  {
    ds::MutexLock lock(calls_mu_);
    for (auto it = calls_.begin(); it != calls_.end();) {
      if (it->second->target == dead) {
        doomed.push_back(it->second);
        it = calls_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& call : doomed) {
    ds::MutexLock lock(call->mu);
    call->done = true;
    call->status = UnavailableError("peer address space declared dead");
    call->cv.NotifyAll();
  }

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

  // 4. If we host the name server, the dead space's names must not
  // satisfy later lookups. (Session records are NOT purged: a session
  // hosted on the dead space is exactly what a listener needs to
  // migrate that session to a live space.) Replicated deployments feed
  // the liveness signal to the replication log (election input) and
  // let the leader drive the purge through the log, so every replica
  // converges on the same post-recovery state; the purge runs on the
  // dispatcher pool because appending blocks on replica RPCs and this
  // callback runs on the CLF receiver thread.
  if (replog_) {
    replog_->OnPeerDown(dead);
    (void)dispatcher_->Submit([this, dead] {
      if (!replog_->IsLeader()) return;  // the leader's own signal purges
      NsMutation purge;
      purge.kind = NsMutation::Kind::kPurgeOwner;
      purge.owner = dead;
      Status s = replog_->Append(EncodeNsMutation(purge));
      if (!s.ok()) {
        DS_LOG(kWarn) << "replicated purge of AS" << AsIndex(dead)
                      << " names failed: " << s.message();
      }
    });
  } else if (name_server_) {
    const std::size_t purged = name_server_->PurgeOwner(dead);
    if (purged != 0) {
      DS_LOG(kInfo) << "purged " << purged << " name-server entries of AS"
                    << AsIndex(dead);
    }
  }

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
    if (dead_peers_.erase(AsIndex(peer)) == 0) return;  // was never down
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

void AddressSpace::SetNameServerAs(AsId ns) { ns_as_ = ns; }

Result<transport::SockAddr> AddressSpace::PeerAddr(AsId peer) const {
  ds::MutexLock lock(peers_mu_);
  auto it = peers_.find(AsIndex(peer));
  if (it == peers_.end()) {
    return NotFoundError("unknown peer address space");
  }
  return it->second;
}

// --- RPC plumbing ----------------------------------------------------------

Result<Buffer> AddressSpace::Call(AsId target, Buffer request,
                                  Deadline deadline) {
  // A Call blocks on the CLF round-trip; entering it with any ds::Mutex
  // held is the invariant violation behind the PR 2 Resume-reply
  // deadlock, so fail loudly under the runtime detector.
  sync::AssertBlockingAllowed("AddressSpace::Call");
  if (stopping_.load()) return CancelledError("address space shut down");
  m_api_remote_calls_->Add();
  DS_ASSIGN_OR_RETURN(transport::SockAddr addr, PeerAddr(target));
  if (IsPeerDown(target)) {
    return UnavailableError("peer address space declared dead");
  }

  // The request id sits after the 4-byte op field.
  marshal::XdrDecoder peek(request);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeRequestHeader(peek));

  auto pending = std::make_shared<PendingCall>();
  pending->target = target;
  {
    ds::MutexLock lock(calls_mu_);
    calls_[hdr.request_id] = pending;
  }
  Status sent = endpoint_->Send(addr, request);
  if (!sent.ok()) {
    ds::MutexLock lock(calls_mu_);
    calls_.erase(hdr.request_id);
    return sent;
  }

  // The callee may legitimately block right up to the wire deadline;
  // allow transport slack on top before declaring the call lost.
  Deadline wait = deadline.infinite()
                      ? deadline
                      : Deadline::After(deadline.remaining() + Millis(5000));
  ds::MutexLock lock(pending->mu);
  while (!pending->done) {
    if (!pending->cv.WaitUntil(pending->mu, wait) && !pending->done) {
      lock.Unlock();
      ds::MutexLock erase_lock(calls_mu_);
      calls_.erase(hdr.request_id);
      return TimeoutError("rpc call");
    }
  }
  if (!pending->status.ok()) return pending->status;
  return std::move(pending->response);
}

void AddressSpace::OnMessage(const transport::SockAddr& from,
                             Buffer message) {
  marshal::XdrDecoder peek(message);
  auto hdr = DecodeRequestHeader(peek);
  if (!hdr.ok()) {
    DS_LOG(kWarn) << "AS" << AsIndex(options_.id) << ": undecodable frame from "
                  << from.ToString();
    return;
  }
  if (hdr->op != Op::kReply) {
    DispatchRequest(from, *hdr, std::move(message));
    return;
  }
  std::shared_ptr<PendingCall> call;
  {
    ds::MutexLock lock(calls_mu_);
    auto node = calls_.extract(hdr->request_id);
    if (node.empty()) return;  // late: the call timed out or failed
    call = std::move(node.mapped());
  }
  ds::MutexLock lock(call->mu);
  call->done = true;
  call->response = std::move(message);
  call->cv.NotifyAll();
}

void AddressSpace::DispatchRequest(const transport::SockAddr& from,
                                   const RequestHeader& hdr, Buffer message) {
  // Attribute the request to the sending address space (for attachment
  // bookkeeping); requests from unknown addresses stay anonymous.
  AsId origin = kInvalidAsId;
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(from);
    if (it != peer_by_addr_.end()) origin = it->second;
  }
  const std::uint64_t request_id = hdr.request_id;
  const trace::TraceContext tctx = hdr.trace;
  m_dispatch_requests_->Add();
  auto task = [this, from, origin, request_id, tctx,
               msg = std::move(message)]() {
    // The caller's context rides the whole execution of this request:
    // spans opened below parent onto it and every outgoing
    // EncodeRequestHeader re-emits it (trace propagation).
    trace::ScopedContext tracing(tctx);
    if (stopping_.load()) {
      m_dropped_or_expired_->Add();
      DS_LOG(kWarn) << "dropping request " << request_id
                    << " (address space shutting down), trace="
                    << TraceTag(tctx);
      (void)endpoint_->Send(
          from, EncodeStatusReply(
                    request_id,
                    UnavailableError("address space shutting down")));
      return;
    }
    // Blocking container ops suspend into a waiter instead of parking
    // this worker; everything else is served synchronously.
    if (ServeDeferred(msg, origin, from)) return;
    Buffer reply = ProcessRequest(msg, origin);
    if (!reply.empty()) {
      (void)endpoint_->Send(from, reply);
    }
  };
  if (!dispatcher_->Submit(std::move(task))) {
    // Refused on the delivering thread; this Send is the one wait the
    // delivery path allows, and Endpoint::Shutdown releases it.
    m_dropped_or_expired_->Add();
    DS_LOG(kWarn) << "AS" << AsIndex(options_.id)
                  << ": dispatcher rejected request " << request_id
                  << " (shutting down), trace=" << TraceTag(tctx);
    (void)endpoint_->Send(
        from, EncodeStatusReply(
                  request_id, UnavailableError("dispatcher shutting down")));
  }
}

namespace {

// Container ids embed their owner AS (ids.hpp); channels and queues
// share the handle layout so either tag works for extraction.
AsId OwnerOf(std::uint64_t container_bits) {
  return ChannelId::FromBits(container_bits).owner();
}

}  // namespace

bool AddressSpace::ServeDeferred(std::span<const std::uint8_t> message,
                                 AsId origin, const transport::SockAddr& from) {
  marshal::XdrDecoder dec(message);
  auto hdr = DecodeRequestHeader(dec);
  if (!hdr.ok()) return false;
  if (hdr->op != Op::kGet && hdr->op != Op::kPut) return false;
  const std::uint64_t id = hdr->request_id;

  // Tag remote waiters with the caller's AS index so OnPeerDown can
  // cancel them; anonymous callers (end devices via a surrogate that is
  // not a registered peer) share the no-origin sentinel and are only
  // completed by deadline, container close, or shutdown.
  const std::uint32_t origin_tag =
      origin == kInvalidAsId ? kNoWaiterOrigin : AsIndex(origin);
  // Reply exactly once from whichever thread resolves the waiter
  // (putter, consumer, timer wheel, peer-death, close, shutdown).
  auto reply = std::make_shared<DeferredReply>(
      id, [this, from](Buffer encoded) {
        if (!encoded.empty()) (void)endpoint_->Send(from, encoded);
      });

  if (hdr->op == Op::kGet) {
    auto req = GetReq::Decode(dec);
    if (!req.ok()) return false;  // sync path emits the decode error
    if (OwnerOf(req->container_bits) != options_.id) return false;
    m_dispatch_deferred_->Add();
    // The suspension itself is a span: it starts here (request arrives,
    // try phase may park it) and ends — possibly on the producer's or
    // the timer wheel's thread — when the continuation fires. Shared
    // because GetCompletion is a copyable std::function.
    auto parked = std::make_shared<trace::PendingSpan>(
        &span_sink_, "owner.parked", hdr->trace);
    auto done = [this, id, reply, parked,
                 tctx = hdr->trace](Result<ItemView> item) {
      parked->Finish();
      if (!item.ok()) {
        if (item.status().code() == StatusCode::kTimeout) {
          m_dropped_or_expired_->Add();
          DS_LOG(kWarn) << "parked get " << id
                        << " expired at deadline, trace=" << TraceTag(tctx);
        }
        (void)reply->Complete(EncodeStatusReply(id, item.status()));
        return;
      }
      (void)reply->Complete(EncodeItemReply(id, *item));
    };
    auto container = FindContainer(req->container_bits, req->is_queue);
    if (!container.ok()) {
      (void)reply->Complete(EncodeStatusReply(id, container.status()));
      return true;
    }
    (*container)->GetAsync(req->slot, req->spec,
                           DecodeDeadline(req->deadline_ms), std::move(done),
                           origin_tag);
    return true;
  }

  auto req = PutReq::Decode(dec);
  if (!req.ok()) return false;
  if (OwnerOf(req->container_bits) != options_.id) return false;
  m_dispatch_deferred_->Add();
  if (!CanOutput(req->mode)) {
    (void)reply->Complete(EncodeStatusReply(
        id, PermissionDeniedError("connection is input-only")));
    return true;
  }
  auto parked = std::make_shared<trace::PendingSpan>(
      &span_sink_, "owner.parked", hdr->trace);
  auto done = [this, id, reply, parked, tctx = hdr->trace](Status st) {
    parked->Finish();
    if (st.code() == StatusCode::kTimeout) {
      m_dropped_or_expired_->Add();
      DS_LOG(kWarn) << "parked put " << id
                    << " expired at deadline, trace=" << TraceTag(tctx);
    }
    (void)reply->Complete(EncodeStatusReply(id, st));
  };
  auto container = FindContainer(req->container_bits, req->is_queue);
  if (!container.ok()) {
    (void)reply->Complete(EncodeStatusReply(id, container.status()));
    return true;
  }
  (*container)->PutAsync(req->ts, SharedBuffer(std::move(req->payload)),
                         DecodeDeadline(req->deadline_ms), std::move(done),
                         origin_tag);
  return true;
}

Buffer AddressSpace::ProcessRequest(std::span<const std::uint8_t> message,
                                    AsId origin) {
  marshal::XdrDecoder dec(message);
  auto hdr = DecodeRequestHeader(dec);
  if (!hdr.ok()) return Buffer();  // cannot even address a reply
  const std::uint64_t id = hdr->request_id;

  switch (hdr->op) {
    case Op::kCreateChannel:
    case Op::kCreateQueue: {
      auto req = CreateReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      auto created =
          CreateOn(options_.id, hdr->op == Op::kCreateQueue,
                   static_cast<std::size_t>(req->capacity), req->debug_name);
      if (!created.ok()) return EncodeStatusReply(id, created.status());
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      enc.PutU64(*created);
      return enc.Take();
    }
    case Op::kAttach: {
      auto req = AttachReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      Result<Connection> conn = ConnectTo(req->container_bits, req->is_queue,
                                          req->mode, req->label);
      if (!conn.ok()) return EncodeStatusReply(id, conn.status());
      // Remember which peer holds the slot so its connections can be
      // detached (and its items reclaimed) if it dies.
      if (origin != kInvalidAsId && conn->owner() == options_.id) {
        ds::MutexLock lock(remote_attach_mu_);
        remote_attachments_[AsIndex(origin)].push_back(
            {req->container_bits, req->is_queue, conn->slot()});
      }
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      enc.PutU32(conn->slot());
      return enc.Take();
    }
    case Op::kDetach: {
      auto req = DetachReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      const Connection conn(req->container_bits, req->is_queue,
                            ConnMode::kInputOutput,
                            OwnerOf(req->container_bits), req->slot);
      Status status = Disconnect(conn);
      if (status.ok() && origin != kInvalidAsId) {
        ds::MutexLock lock(remote_attach_mu_);
        auto it = remote_attachments_.find(AsIndex(origin));
        if (it != remote_attachments_.end()) {
          auto& atts = it->second;
          for (auto att = atts.begin(); att != atts.end(); ++att) {
            if (att->container_bits == req->container_bits &&
                att->is_queue == req->is_queue && att->slot == req->slot) {
              atts.erase(att);
              break;
            }
          }
        }
      }
      return EncodeStatusReply(id, status);
    }
    case Op::kPut: {
      auto req = PutReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      // Rebuild the caller's connection and run through the public,
      // location-transparent API: surrogates route client calls to
      // containers owned by any address space this way.
      const Connection conn(req->container_bits, req->is_queue, req->mode,
                            OwnerOf(req->container_bits), req->slot);
      Status status = Put(conn, req->ts, std::move(req->payload),
                          DecodeDeadline(req->deadline_ms));
      return EncodeStatusReply(id, status);
    }
    case Op::kGet: {
      auto req = GetReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      const Connection conn(req->container_bits, req->is_queue, req->mode,
                            OwnerOf(req->container_bits), req->slot);
      Result<ItemView> item =
          Get(conn, req->spec, DecodeDeadline(req->deadline_ms));
      if (!item.ok()) return EncodeStatusReply(id, item.status());
      return EncodeItemReply(id, *item);
    }
    case Op::kConsume: {
      auto req = ConsumeReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      const Connection conn(req->container_bits, req->is_queue, req->mode,
                            OwnerOf(req->container_bits), req->slot);
      Status status = req->until ? ConsumeUntil(conn, req->ts)
                                 : Consume(conn, req->ts);
      return EncodeStatusReply(id, status);
    }
    case Op::kSetFilter: {
      auto req = SetFilterReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      const Connection conn(req->container_bits, /*is_queue=*/false,
                            ConnMode::kInput, OwnerOf(req->container_bits),
                            req->slot);
      return EncodeStatusReply(id, SetFilter(conn, req->filter));
    }
    // Name-server ops. A request from a peer AS (origin known) was
    // routed here by that peer's failover wrapper, so a replica serves
    // it or answers with a "leader=<id>" redirect — never forwards
    // onward (no replica-to-replica chains). A request with no origin
    // came from an end device via a surrogate on this AS: the public
    // wrapper routes it, retries and all.
    case Op::kNsRegister: {
      auto entry = DecodeNsEntry(dec);
      if (!entry.ok()) return EncodeStatusReply(id, entry.status());
      if (replog_ && origin != kInvalidAsId) {
        NsMutation m;
        m.kind = NsMutation::Kind::kRegister;
        m.entry = *entry;
        if (m.entry.owner_as == kInvalidAsId) m.entry.owner_as = options_.id;
        return EncodeStatusReply(id, ServeNsMutation(m));
      }
      return EncodeStatusReply(id, NsRegister(*entry));
    }
    case Op::kNsUnregister: {
      auto req = NsLookupReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (replog_ && origin != kInvalidAsId) {
        NsMutation m;
        m.kind = NsMutation::Kind::kUnregister;
        m.name = req->name;
        return EncodeStatusReply(id, ServeNsMutation(m));
      }
      return EncodeStatusReply(id, NsUnregister(req->name));
    }
    case Op::kNsLookup: {
      auto req = NsLookupReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (replog_ && origin != kInvalidAsId && !replog_->LeaseFresh()) {
        return EncodeStatusReply(id, StaleNsError());
      }
      auto entry = NsLookup(req->name, DecodeDeadline(req->deadline_ms));
      if (!entry.ok()) return EncodeStatusReply(id, entry.status());
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      EncodeNsEntry(enc, *entry);
      return enc.Take();
    }
    case Op::kNsList: {
      auto req = NsLookupReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (replog_ && origin != kInvalidAsId && !replog_->LeaseFresh()) {
        return EncodeStatusReply(id, StaleNsError());
      }
      auto entries = NsList(req->name);
      if (!entries.ok()) return EncodeStatusReply(id, entries.status());
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      enc.PutU32(static_cast<std::uint32_t>(entries->size()));
      for (const auto& entry : *entries) EncodeNsEntry(enc, entry);
      return enc.Take();
    }
    case Op::kSessionPut: {
      auto rec = DecodeSessionRecord(dec);
      if (!rec.ok()) return EncodeStatusReply(id, rec.status());
      if (replog_ && origin != kInvalidAsId) {
        NsMutation m;
        m.kind = NsMutation::Kind::kPutSession;
        m.session = *rec;
        return EncodeStatusReply(id, ServeNsMutation(m));
      }
      return EncodeStatusReply(id, SessionPut(*rec));
    }
    case Op::kSessionGet: {
      auto req = SessionIdReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (replog_ && origin != kInvalidAsId && !replog_->LeaseFresh()) {
        return EncodeStatusReply(id, StaleNsError());
      }
      auto rec = SessionGet(req->session_id);
      if (!rec.ok()) return EncodeStatusReply(id, rec.status());
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      EncodeSessionRecord(enc, *rec);
      return enc.Take();
    }
    case Op::kSessionDrop: {
      auto req = SessionIdReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (replog_ && origin != kInvalidAsId) {
        NsMutation m;
        m.kind = NsMutation::Kind::kDropSession;
        m.session_id = req->session_id;
        return EncodeStatusReply(id, ServeNsMutation(m));
      }
      return EncodeStatusReply(id, SessionDrop(req->session_id));
    }
    case Op::kSessionTick: {
      auto req = SessionTickReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (replog_ && origin != kInvalidAsId) {
        NsMutation m;
        m.kind = NsMutation::Kind::kTickSession;
        m.session_id = req->session_id;
        m.ticket = req->ticket;
        return EncodeStatusReply(id, ServeNsMutation(m));
      }
      return EncodeStatusReply(id, SessionTick(req->session_id, req->ticket));
    }
    // Control-plane replication (replica-internal; see core/replog.hpp).
    case Op::kRepAppend: {
      auto req = RepAppendReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (!replog_) {
        return EncodeStatusReply(id,
                                 FailedPreconditionError("not an ns replica"));
      }
      RepAppendAck ack;
      const Status st = replog_->HandleAppend(*req, ack);
      // The ack body rides along even on rejection: it carries this
      // replica's term, which is how a deposed leader learns to step
      // down.
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, st);
      ack.Encode(enc);
      return enc.Take();
    }
    case Op::kRepFetch: {
      auto req = RepFetchReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (!replog_) {
        return EncodeStatusReply(id,
                                 FailedPreconditionError("not an ns replica"));
      }
      const RepFetchResp resp = replog_->HandleFetch(*req);
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      resp.Encode(enc);
      return enc.Take();
    }
    case Op::kMetrics: {
      auto req = MetricsReq::Decode(dec);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      // Serve locally or forward to the target space (same pattern as
      // the NS ops), so a surrogate can introspect any space for its
      // end device and dsctl can fan out from one peer.
      auto snapshot = MetricsSnapshot(static_cast<AsId>(req->target_as));
      if (!snapshot.ok()) return EncodeStatusReply(id, snapshot.status());
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      enc.PutString(*snapshot);
      return enc.Take();
    }
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
    std::shared_ptr<LocalContainer> container;
    if (is_queue) {
      container = std::make_shared<LocalQueue>(QueueAttr{capacity, debug_name},
                                               wheel_.get());
    } else {
      container = std::make_shared<LocalChannel>(
          ChannelAttr{capacity, debug_name}, wheel_.get());
    }
    container->set_metrics(stm_metrics_);
    ds::MutexLock lock(containers_mu_);
    const std::uint32_t slot = next_container_slot_++;
    containers_.emplace(slot, std::move(container));
    return ChannelId(options_.id, slot).bits();
  }
  CreateReq req;
  req.capacity = capacity;
  req.debug_name = debug_name;
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, is_queue ? Op::kCreateQueue : Op::kCreateChannel,
                      next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(Buffer reply,
                      Call(owner, enc.Take(), InternalDeadline()));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  return dec.GetU64();
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

GcService::ContainerList AddressSpace::Containers() {
  GcService::ContainerList out;
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
  req.label = label;
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kAttach, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(Buffer reply,
                      Call(owner, enc.Take(), InternalDeadline()));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  DS_ASSIGN_OR_RETURN(std::uint32_t slot, dec.GetU32());
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
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kDetach, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(
      Buffer reply,
      Call(conn.owner(), enc.Take(), InternalDeadline()));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  return hdr.status;
}

// --- I/O ------------------------------------------------------------------------

Status AddressSpace::Put(const Connection& conn, Timestamp ts, Buffer payload,
                         Deadline deadline) {
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
    return container->Put(ts, SharedBuffer(std::move(payload)), deadline);
  }
  PutReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.deadline_ms = EncodeDeadline(deadline);
  req.payload = std::move(payload);
  marshal::XdrEncoder enc(req.payload.size() + 96);
  EncodeRequestHeader(enc, Op::kPut, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(Buffer reply, Call(conn.owner(), enc.Take(), deadline));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  return hdr.status;
}

Result<ItemView> AddressSpace::Get(const Connection& conn, GetSpec spec,
                                   Deadline deadline) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  m_api_gets_->Add();
  if (conn.owner() == options_.id) {
    // Owner-side serving span; for a blocking get the duration is the
    // time parked waiting for the producer.
    trace::ScopedSpan serve(&span_sink_, "owner.serve");
    DS_ASSIGN_OR_RETURN(auto container,
                        FindContainer(conn.container_bits(), conn.is_queue()));
    Result<ItemView> item = container->Get(conn.slot(), spec, deadline);
    if (item.ok()) {
      m_api_bytes_got_->Add(item->payload.size());
    }
    return item;
  }
  GetReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.spec = spec;
  req.deadline_ms = EncodeDeadline(deadline);
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kGet, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(Buffer reply, Call(conn.owner(), enc.Take(), deadline));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  ItemView view;
  DS_ASSIGN_OR_RETURN(view.timestamp, dec.GetI64());
  DS_ASSIGN_OR_RETURN(Buffer payload, dec.GetOpaque());
  view.payload = SharedBuffer(std::move(payload));
  m_api_bytes_got_->Add(view.payload.size());
  return view;
}

Result<ItemView> AddressSpace::Get(const Connection& conn, Deadline deadline) {
  return Get(conn, GetSpec::Oldest(), deadline);
}

Status AddressSpace::Consume(const Connection& conn, Timestamp ts) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  m_api_consumes_->Add();
  if (conn.owner() == options_.id) {
    DS_ASSIGN_OR_RETURN(auto container,
                        FindContainer(conn.container_bits(), conn.is_queue()));
    return container->Consume(conn.slot(), ts);
  }
  ConsumeReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = conn.is_queue();
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.until = false;
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kConsume, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(
      Buffer reply,
      Call(conn.owner(), enc.Take(), InternalDeadline()));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  return hdr.status;
}

Status AddressSpace::ConsumeUntil(const Connection& conn, Timestamp ts) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  m_api_consumes_->Add();
  if (conn.is_queue()) {
    return InvalidArgumentError("consume-until is channel-only");
  }
  if (conn.owner() == options_.id) {
    auto ch = FindChannel(conn.container_bits());
    return ch ? ch->ConsumeUntil(conn.slot(), ts) : NotFoundError("channel");
  }
  ConsumeReq req;
  req.container_bits = conn.container_bits();
  req.is_queue = false;
  req.mode = conn.mode();
  req.slot = conn.slot();
  req.ts = ts;
  req.until = true;
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kConsume, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(
      Buffer reply,
      Call(conn.owner(), enc.Take(), InternalDeadline()));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  return hdr.status;
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
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kSetFilter, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(
      Buffer reply,
      Call(conn.owner(), enc.Take(), InternalDeadline()));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  return hdr.status;
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
  (*container)->set_gc_handler(std::move(handler));
  return OkStatus();
}

// --- name server ------------------------------------------------------------------

namespace {

// A follower's routing redirect (as opposed to a definitive
// kUnavailable like "replication lost quorum", which must surface).
bool IsNsRedirect(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message().rfind("not leader", 0) == 0;
}

Op MutationOp(NsMutation::Kind kind) {
  switch (kind) {
    case NsMutation::Kind::kRegister: return Op::kNsRegister;
    case NsMutation::Kind::kUnregister: return Op::kNsUnregister;
    case NsMutation::Kind::kPutSession: return Op::kSessionPut;
    case NsMutation::Kind::kDropSession: return Op::kSessionDrop;
    case NsMutation::Kind::kTickSession: return Op::kSessionTick;
    case NsMutation::Kind::kPurgeOwner: break;  // log-only, never routed
  }
  return Op::kReply;
}

void EncodeMutationBody(marshal::XdrEncoder& enc, const NsMutation& m) {
  switch (m.kind) {
    case NsMutation::Kind::kRegister:
      EncodeNsEntry(enc, m.entry);
      return;
    case NsMutation::Kind::kUnregister: {
      NsLookupReq req;
      req.name = m.name;
      req.Encode(enc);
      return;
    }
    case NsMutation::Kind::kPutSession:
      EncodeSessionRecord(enc, m.session);
      return;
    case NsMutation::Kind::kDropSession: {
      SessionIdReq req;
      req.session_id = m.session_id;
      req.Encode(enc);
      return;
    }
    case NsMutation::Kind::kTickSession: {
      SessionTickReq req;
      req.session_id = m.session_id;
      req.ticket = m.ticket;
      req.Encode(enc);
      return;
    }
    case NsMutation::Kind::kPurgeOwner:
      return;
  }
}

}  // namespace

std::vector<AsId> AddressSpace::NsTargets() const {
  if (!options_.ns_replicas.empty()) return options_.ns_replicas;
  if (ns_as_ != kInvalidAsId) return {ns_as_};
  return {};
}

void AddressSpace::NoteNsLeader(AsId leader) {
  ds::MutexLock lock(ns_route_mu_);
  ns_leader_hint_ = leader;
}

Status AddressSpace::StaleNsError() const {
  const AsId leader = replog_->leader();
  return UnavailableError(
      "ns lease stale; leader=" +
      (leader == kInvalidAsId ? std::string("none")
                              : std::to_string(AsIndex(leader))));
}

Status AddressSpace::ServeNsMutation(const NsMutation& m) {
  if (!replog_) {
    return name_server_ ? name_server_->Apply(m)
                        : FailedPreconditionError("not an ns replica");
  }
  return replog_->Append(EncodeNsMutation(m));
}

Result<Buffer> AddressSpace::CallNsService(
    const std::function<Buffer(std::uint64_t request_id)>& make_request,
    Deadline deadline) {
  std::vector<AsId> targets = NsTargets();
  if (targets.empty()) {
    return FailedPreconditionError("no name-server address space set");
  }
  // The last replica that answered definitively (usually the leader)
  // goes first; the rest keep replica order for deterministic rotation.
  {
    ds::MutexLock lock(ns_route_mu_);
    auto it = std::find(targets.begin(), targets.end(), ns_leader_hint_);
    if (it != targets.end()) std::rotate(targets.begin(), it, it + 1);
  }
  Status last = UnavailableError("name service unavailable");
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (AsId target : targets) {
      if (target == options_.id) continue;  // local paths already failed
      if (IsPeerDown(target)) {
        last = UnavailableError("ns replica declared dead");
        continue;
      }
      auto reply =
          Call(target, make_request(next_request_id_.fetch_add(1)), deadline);
      if (!reply.ok()) {
        last = reply.status();
        continue;  // transport failure: rotate
      }
      marshal::XdrDecoder dec(*reply);
      auto hdr = DecodeResponseHeader(dec);
      if (!hdr.ok()) {
        last = hdr.status();
        continue;
      }
      if (hdr->status.code() == StatusCode::kUnavailable) {
        // Redirect ("not leader"), stale lease, or lost quorum: note
        // any leader hint for future calls and keep rotating.
        last = hdr->status;
        const AsId hint = RepLog::LeaderHintFromMessage(hdr->status.message());
        if (hint != kInvalidAsId) NoteNsLeader(hint);
        continue;
      }
      // Definitive answer — ok or an application error (kNotFound,
      // kAlreadyExists, ...) that retrying elsewhere would not change.
      NoteNsLeader(target);
      return reply;
    }
    if (!deadline.infinite() && deadline.expired()) break;
    if (round + 1 < kRounds) SleepFor(Millis(100));  // let an election settle
  }
  return last;
}

Status AddressSpace::MutateNs(const NsMutation& m) {
  if (replog_) {
    Status s = replog_->Append(EncodeNsMutation(m));
    if (!IsNsRedirect(s)) return s;
    // This replica is a follower: fall through and route to the leader.
  } else if (name_server_) {
    return name_server_->Apply(m);
  }
  auto reply = CallNsService(
      [&m](std::uint64_t request_id) {
        marshal::XdrEncoder enc;
        EncodeRequestHeader(enc, MutationOp(m.kind), request_id);
        EncodeMutationBody(enc, m);
        return enc.Take();
      },
      InternalDeadline());
  if (!reply.ok()) return reply.status();
  marshal::XdrDecoder dec(*reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  return hdr.status;
}

Status AddressSpace::NsRegister(const NsEntry& entry) {
  m_api_ns_ops_->Add();
  // Stamp ownership before the entry crosses the wire: recovery purges
  // a dead space's names by this field. Entries arriving with ownership
  // already set (forwarded registrations) keep it; entries from end
  // devices get their host AS, since the host is what can die.
  NsMutation m;
  m.kind = NsMutation::Kind::kRegister;
  m.entry = entry;
  if (m.entry.owner_as == kInvalidAsId) m.entry.owner_as = options_.id;
  return MutateNs(m);
}

Status AddressSpace::NsUnregister(const std::string& name) {
  m_api_ns_ops_->Add();
  NsMutation m;
  m.kind = NsMutation::Kind::kUnregister;
  m.name = name;
  return MutateNs(m);
}

Result<NsEntry> AddressSpace::NsLookup(const std::string& name,
                                       Deadline deadline) {
  m_api_ns_ops_->Add();
  // Reads are served from the local replica while its lease view is
  // fresh — this is the payoff of replication: lookups keep working on
  // any survivor without a round trip.
  if (name_server_ && (!replog_ || replog_->LeaseFresh())) {
    return name_server_->Lookup(name, deadline);
  }
  NsLookupReq req;
  req.name = name;
  req.deadline_ms = EncodeDeadline(deadline);
  auto reply = CallNsService(
      [&req](std::uint64_t request_id) {
        marshal::XdrEncoder enc;
        EncodeRequestHeader(enc, Op::kNsLookup, request_id);
        req.Encode(enc);
        return enc.Take();
      },
      deadline);
  if (!reply.ok()) {
    if (name_server_) {
      // Degraded read: every peer replica is unreachable (we may be
      // the only survivor). A possibly-stale local answer beats total
      // refusal; docs/FAILURES.md spells out the trade.
      DS_LOG(kWarn) << "AS" << AsIndex(options_.id) << ": ns failover lost ("
                    << reply.status().message()
                    << "); serving stale local replica";
      return name_server_->Lookup(name, deadline);
    }
    return reply.status();
  }
  marshal::XdrDecoder dec(*reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  return DecodeNsEntry(dec);
}

Result<std::vector<NsEntry>> AddressSpace::NsList(const std::string& prefix) {
  m_api_ns_ops_->Add();
  if (name_server_ && (!replog_ || replog_->LeaseFresh())) {
    return name_server_->List(prefix);
  }
  NsLookupReq req;
  req.name = prefix;
  auto reply = CallNsService(
      [&req](std::uint64_t request_id) {
        marshal::XdrEncoder enc;
        EncodeRequestHeader(enc, Op::kNsList, request_id);
        req.Encode(enc);
        return enc.Take();
      },
      InternalDeadline());
  if (!reply.ok()) {
    if (name_server_) return name_server_->List(prefix);  // degraded read
    return reply.status();
  }
  marshal::XdrDecoder dec(*reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  DS_ASSIGN_OR_RETURN(std::uint32_t count, dec.GetCount(kMinNsEntryBytes));
  std::vector<NsEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(NsEntry entry, DecodeNsEntry(dec));
    out.push_back(std::move(entry));
  }
  return out;
}

void AddressSpace::OnBecameNsLeader() {
  std::vector<AsId> dead;
  {
    ds::MutexLock lock(peers_mu_);
    dead.reserve(dead_peers_.size());
    for (std::uint32_t idx : dead_peers_) dead.push_back(static_cast<AsId>(idx));
  }
  for (AsId peer : dead) {
    NsMutation purge;
    purge.kind = NsMutation::Kind::kPurgeOwner;
    purge.owner = peer;
    Status s = replog_->Append(EncodeNsMutation(purge));
    if (!s.ok()) {
      DS_LOG(kWarn) << "post-election purge of AS" << AsIndex(peer)
                    << " names failed: " << s.message();
    }
  }
}

// --- end-device session registry -----------------------------------------------

Status AddressSpace::SessionPut(const SessionRecord& record) {
  m_api_ns_ops_->Add();
  NsMutation m;
  m.kind = NsMutation::Kind::kPutSession;
  m.session = record;
  return MutateNs(m);
}

Result<SessionRecord> AddressSpace::SessionGet(std::uint64_t session_id) {
  m_api_ns_ops_->Add();
  if (name_server_ && (!replog_ || replog_->LeaseFresh())) {
    return name_server_->GetSession(session_id);
  }
  SessionIdReq req;
  req.session_id = session_id;
  auto reply = CallNsService(
      [&req](std::uint64_t request_id) {
        marshal::XdrEncoder enc;
        EncodeRequestHeader(enc, Op::kSessionGet, request_id);
        req.Encode(enc);
        return enc.Take();
      },
      InternalDeadline());
  if (!reply.ok()) {
    if (name_server_) return name_server_->GetSession(session_id);  // degraded
    return reply.status();
  }
  marshal::XdrDecoder dec(*reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  return DecodeSessionRecord(dec);
}

Status AddressSpace::SessionDrop(std::uint64_t session_id) {
  m_api_ns_ops_->Add();
  NsMutation m;
  m.kind = NsMutation::Kind::kDropSession;
  m.session_id = session_id;
  return MutateNs(m);
}

Status AddressSpace::SessionTick(std::uint64_t session_id,
                                 std::uint64_t ticket) {
  m_api_ns_ops_->Add();
  NsMutation m;
  m.kind = NsMutation::Kind::kTickSession;
  m.session_id = session_id;
  m.ticket = ticket;
  return MutateNs(m);
}

// --- observability ---------------------------------------------------------------

std::string AddressSpace::MetricsJson() {
  // Copy the container table, then query each container outside
  // containers_mu_ (each query takes only the container's own lock).
  const GcService::ContainerList containers = Containers();

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
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kMetrics, next_request_id_.fetch_add(1));
  req.Encode(enc);
  DS_ASSIGN_OR_RETURN(Buffer reply,
                      Call(target, enc.Take(), InternalDeadline()));
  marshal::XdrDecoder dec(reply);
  DS_ASSIGN_OR_RETURN(auto hdr, DecodeResponseHeader(dec));
  if (!hdr.status.ok()) return hdr.status;
  return dec.GetString();
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
  if (!name_server_) return OkStatus();
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
