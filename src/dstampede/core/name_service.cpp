#include "dstampede/core/name_service.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "dstampede/common/logging.hpp"

namespace dstampede::core {

namespace {

// A follower's routing redirect (as opposed to a definitive
// kUnavailable like "replication lost quorum", which must surface).
bool IsRedirect(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message().rfind("not leader", 0) == 0;
}

// The ops that route a mutation to the leader, with the kind each
// carries. kPurgeOwner is log-only and never routed.
constexpr std::pair<Op, NsMutation::Kind> kMutationOps[] = {
    {Op::kNsRegister, NsMutation::Kind::kRegister},
    {Op::kNsUnregister, NsMutation::Kind::kUnregister},
    {Op::kSessionPut, NsMutation::Kind::kPutSession},
    {Op::kSessionDrop, NsMutation::Kind::kDropSession},
    {Op::kSessionTick, NsMutation::Kind::kTickSession},
};

// A routed mutation's request body: its fields, and for kNsUnregister
// the (unused) deadline NsLookupReq carries after the name.
void EncodeMutationBody(marshal::XdrEncoder& enc, const NsMutation& m) {
  EncodeNsMutationFields(enc, m);
  if (m.kind == NsMutation::Kind::kUnregister) enc.PutI64(0);
}

// The inverse: the mutation a request of one of kMutationOps carries.
Result<NsMutation> DecodeMutationBody(Op op, marshal::XdrDecoder& dec) {
  NsMutation m;
  for (const auto& [mutation_op, kind] : kMutationOps) {
    if (mutation_op == op) m.kind = kind;
  }
  DS_RETURN_IF_ERROR(DecodeNsMutationFields(dec, m));
  if (m.kind == NsMutation::Kind::kUnregister) {
    DS_RETURN_IF_ERROR(dec.GetI64().status());
  }
  return m;
}

}  // namespace

NameService::NameService(const Options& options, metrics::Registry& registry,
                         RepLog::SendFn send, RepLog::PeerDeadFn peer_dead)
    : options_(options),
      send_(std::move(send)),
      peer_dead_(std::move(peer_dead)),
      m_api_ns_ops_(&registry.GetCounter("api.ns_ops")) {
  const bool is_replica =
      std::find(options.replicas.begin(), options.replicas.end(),
                options.self) != options.replicas.end();
  if (is_replica) name_server_ = std::make_unique<NameServer>();
  if (is_replica && options.replicas.size() > 1) {
    RepLog::Options ro;
    ro.self = options.self;
    ro.replicas = options.replicas;
    std::sort(ro.replicas.begin(), ro.replicas.end());
    ro.lease = options.lease;
    ro.heartbeat = options.heartbeat;
    ro.rpc_deadline = std::max<Duration>(options.heartbeat * 2, Millis(50));
    replog_ = std::make_unique<RepLog>(
        ro,
        /*apply=*/
        [this](const Buffer& entry) {
          auto m = DecodeNsMutation(entry);
          if (!m.ok()) {
            DS_LOG(kWarn) << "undecodable replicated ns mutation: "
                          << m.status().message();
            return;
          }
          // Re-applied entries may report their usual app error
          // (duplicate register, tick of a dropped session); state
          // still converges, so only the appender cares.
          (void)name_server_->Apply(*m);
        },
        send_, peer_dead_);
    replog_->set_on_became_leader([this] { OnBecameLeader(); });
  }

  if (name_server_) {
    NameServer* ns = name_server_.get();
    registry.AddProvider("ns.entries", [ns] {
      return static_cast<std::int64_t>(ns->size());
    });
    registry.AddProvider("ns.sessions", [ns] {
      return static_cast<std::int64_t>(ns->session_count());
    });
    registry.AddProvider("ns.lookups", [ns] {
      return static_cast<std::int64_t>(ns->total_lookups());
    });
    registry.AddProvider("ns.purged_entries", [ns] {
      return static_cast<std::int64_t>(ns->total_purged());
    });
  }
  if (replog_) {
    RepLog* rl = replog_.get();
    registry.AddProvider("ns.leader_changes", [rl] {
      return static_cast<std::int64_t>(rl->leader_changes());
    });
    registry.AddProvider("ns.log_appends", [rl] {
      return static_cast<std::int64_t>(rl->log_appends());
    });
    registry.AddProvider("ns.replica_lag", [rl] {
      return static_cast<std::int64_t>(rl->replica_lag());
    });
    registry.AddProvider("ns.replog.is_leader",
                         [rl] { return rl->IsLeader() ? 1 : 0; });
    registry.AddProvider("ns.replog.term", [rl] {
      return static_cast<std::int64_t>(rl->term());
    });
  }
}

void NameService::Start() {
  if (replog_) replog_->Start();
}

void NameService::Stop() {
  if (replog_) replog_->Stop();
}

// --- the public calls ---------------------------------------------------

Status NameService::Register(const NsEntry& entry) {
  NsMutation m;
  m.kind = NsMutation::Kind::kRegister;
  m.entry = entry;
  return Mutate(std::move(m));
}

Status NameService::Unregister(const std::string& name) {
  NsMutation m;
  m.kind = NsMutation::Kind::kUnregister;
  m.name = name;
  return Mutate(std::move(m));
}

Result<NsEntry> NameService::Lookup(const std::string& name,
                                    Deadline deadline) {
  m_api_ns_ops_->Add();
  // Reads are served from the local replica while its lease view is
  // fresh — this is the payoff of replication: lookups keep working on
  // any survivor without a round trip.
  auto local = [&] { return name_server_->Lookup(name, deadline); };
  if (ReadsLocally()) return local();
  NsLookupReq req;
  req.name = name;
  req.deadline_ms = EncodeDeadline(deadline);
  return RouteRead(Op::kNsLookup, BodyOf(req), deadline, local,
                   Decode<NsEntry, marshal::XdrDecoder>);
}

Result<std::vector<NsEntry>> NameService::List(const std::string& prefix) {
  m_api_ns_ops_->Add();
  auto local = [&] {
    return Result<std::vector<NsEntry>>(name_server_->List(prefix));
  };
  if (ReadsLocally()) return local();
  NsLookupReq req;
  req.name = prefix;
  return RouteRead(Op::kNsList, BodyOf(req),
                   Deadline::After(options_.rpc_deadline), local,
                   Decode<std::vector<NsEntry>, marshal::XdrDecoder>);
}

Status NameService::PutSession(const SessionRecord& record) {
  NsMutation m;
  m.kind = NsMutation::Kind::kPutSession;
  m.session = record;
  return Mutate(std::move(m));
}

Result<SessionRecord> NameService::GetSession(std::uint64_t session_id) {
  m_api_ns_ops_->Add();
  auto local = [&] { return name_server_->GetSession(session_id); };
  if (ReadsLocally()) return local();
  SessionIdReq req;
  req.session_id = session_id;
  return RouteRead(Op::kSessionGet, BodyOf(req),
                   Deadline::After(options_.rpc_deadline), local,
                   Decode<SessionRecord, marshal::XdrDecoder>);
}

Status NameService::DropSession(std::uint64_t session_id) {
  NsMutation m;
  m.kind = NsMutation::Kind::kDropSession;
  m.session_id = session_id;
  return Mutate(std::move(m));
}

Status NameService::TickSession(std::uint64_t session_id,
                                std::uint64_t ticket) {
  NsMutation m;
  m.kind = NsMutation::Kind::kTickSession;
  m.session_id = session_id;
  m.ticket = ticket;
  return Mutate(std::move(m));
}

// --- routing ------------------------------------------------------------

Status NameService::MutateHere(const NsMutation& m) {
  if (replog_) return replog_->Append(EncodeNsMutation(m));
  if (name_server_) return name_server_->Apply(m);
  return FailedPreconditionError("not an ns replica");
}

Status NameService::Mutate(NsMutation m) {
  m_api_ns_ops_->Add();
  // Stamp ownership before the entry crosses the wire: recovery purges
  // a dead space's names by this field. Entries arriving with ownership
  // already set (forwarded registrations) keep it; entries from end
  // devices get their host AS, since the host is what can die.
  if (m.kind == NsMutation::Kind::kRegister &&
      m.entry.owner_as == kInvalidAsId) {
    m.entry.owner_as = options_.self;
  }
  if (name_server_) {
    Status s = MutateHere(m);
    // A follower's redirect falls through to route to the leader.
    if (!IsRedirect(s)) return s;
  }
  Op op = Op::kReply;
  for (const auto& [mutation_op, kind] : kMutationOps) {
    if (kind == m.kind) op = mutation_op;
  }
  return ReplyStatus(Route(
      op, [&m](marshal::XdrEncoder& enc) { EncodeMutationBody(enc, m); },
      Deadline::After(options_.rpc_deadline)));
}

template <typename Local>
auto NameService::ServeRead(Local local) -> decltype(local()) {
  if (!name_server_) return FailedPreconditionError("not an ns replica");
  if (replog_ && !replog_->LeaseFresh()) {
    const AsId leader = replog_->leader();
    return UnavailableError(
        "ns lease stale; leader=" +
        (leader == kInvalidAsId ? std::string("none")
                                : std::to_string(AsIndex(leader))));
  }
  return local();
}

template <typename Local, typename Decode>
auto NameService::RouteRead(Op op, const BodyFn& body, Deadline deadline,
                            Local local, Decode decode) -> decltype(local()) {
  auto reply = Route(op, body, deadline);
  if (reply.ok() || !name_server_) return DecodeReply(reply, decode);
  // Degraded read: every peer replica is unreachable (we may be the
  // only survivor). A possibly-stale local answer beats total refusal;
  // docs/FAILURES.md spells out the trade.
  DS_LOG(kWarn) << "AS" << AsIndex(options_.self) << ": ns failover lost ("
                << reply.status().message()
                << "); serving stale local replica";
  return local();
}

void NameService::NoteLeader(AsId leader) {
  ds::MutexLock lock(route_mu_);
  leader_hint_ = leader;
}

Result<SharedBuffer> NameService::Route(Op op, const BodyFn& body,
                                        Deadline deadline) {
  std::vector<AsId> targets = options_.replicas;
  if (targets.empty()) {
    return FailedPreconditionError("no name-server address space set");
  }
  // The last replica that answered definitively (usually the leader)
  // goes first; the rest keep replica order for deterministic rotation.
  {
    ds::MutexLock lock(route_mu_);
    auto it = std::find(targets.begin(), targets.end(), leader_hint_);
    if (it != targets.end()) std::rotate(targets.begin(), it, it + 1);
  }
  Status last = UnavailableError("name service unavailable");
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (AsId target : targets) {
      if (target == options_.self) continue;  // local paths already failed
      if (peer_dead_(target)) {
        last = UnavailableError("ns replica declared dead");
        continue;
      }
      auto reply = send_(target, op, body, deadline);
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
        if (hint != kInvalidAsId) NoteLeader(hint);
        continue;
      }
      // Definitive answer — ok or an application error (kNotFound,
      // kAlreadyExists, ...) that retrying elsewhere would not change.
      NoteLeader(target);
      return reply;
    }
    if (!deadline.infinite() && deadline.expired()) break;
    if (round + 1 < kRounds) SleepFor(Millis(100));  // let an election settle
  }
  return last;
}

// --- serving ------------------------------------------------------------

Buffer NameService::Serve(const RequestHeader& hdr, marshal::XdrDecoder& body,
                          bool from_peer) {
  const std::uint64_t id = hdr.request_id;
  switch (hdr.op) {
    case Op::kNsLookup: {
      auto req = Decode<NsLookupReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      const Deadline deadline = DecodeDeadline(req->deadline_ms);
      auto local = [&] { return name_server_->Lookup(req->name, deadline); };
      return EncodeReply(
          id, from_peer ? ServeRead(local) : Lookup(req->name, deadline),
          Encode<marshal::XdrEncoder, NsEntry>);
    }
    case Op::kNsList: {
      auto req = Decode<NsLookupReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      auto local = [&] {
        return Result<std::vector<NsEntry>>(name_server_->List(req->name));
      };
      return EncodeReply(id, from_peer ? ServeRead(local) : List(req->name),
                         Encode<marshal::XdrEncoder, std::vector<NsEntry>>);
    }
    case Op::kSessionGet: {
      auto req = Decode<SessionIdReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      auto local = [&] { return name_server_->GetSession(req->session_id); };
      return EncodeReply(id, ServeRead(local),
                         Encode<marshal::XdrEncoder, SessionRecord>);
    }
    case Op::kRepAppend: {
      auto req = Decode<RepAppendReq>(body);
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
      Encode(enc, ack);
      return enc.Take();
    }
    case Op::kRepFetch: {
      auto req = Decode<RepFetchReq>(body);
      if (!req.ok()) return EncodeStatusReply(id, req.status());
      if (!replog_) {
        return EncodeStatusReply(id,
                                 FailedPreconditionError("not an ns replica"));
      }
      const RepFetchResp resp = replog_->HandleFetch(*req);
      marshal::XdrEncoder enc;
      EncodeResponseHeader(enc, id, OkStatus());
      Encode(enc, resp);
      return enc.Take();
    }
    case Op::kNsRegister:
    case Op::kNsUnregister:
    case Op::kSessionPut:
    case Op::kSessionDrop:
    case Op::kSessionTick: {
      auto m = DecodeMutationBody(hdr.op, body);
      if (!m.ok()) return EncodeStatusReply(id, m.status());
      return EncodeStatusReply(
          id, from_peer ? MutateHere(*m) : Mutate(std::move(*m)));
    }
    default:
      return EncodeStatusReply(id, InternalError("unknown op"));
  }
}

// --- failure handling ---------------------------------------------------

void NameService::OnPeerDown(AsId dead, ThreadPool& pool) {
  if (replog_) {
    // The death is an election input; the leader drives the purge
    // through the log, so every replica converges on the same state.
    replog_->OnPeerDown(dead);
    (void)pool.Submit([this, dead] {
      if (!replog_->IsLeader()) return;  // the leader's own signal purges
      AppendPurge(dead, "replicated purge");
    });
  } else if (name_server_) {
    const std::size_t purged = name_server_->PurgeOwner(dead);
    if (purged != 0) {
      DS_LOG(kInfo) << "purged " << purged << " name-server entries of AS"
                    << AsIndex(dead);
    }
  }
}

void NameService::AppendPurge(AsId dead, const char* what) {
  NsMutation purge;
  purge.kind = NsMutation::Kind::kPurgeOwner;
  purge.owner = dead;
  Status s = replog_->Append(EncodeNsMutation(purge));
  if (!s.ok()) {
    DS_LOG(kWarn) << what << " of AS" << AsIndex(dead)
                  << " names failed: " << s.message();
  }
}

void NameService::OnBecameLeader() {
  std::set<AsId> dead;
  for (const NsEntry& entry : name_server_->List()) {
    if (peer_dead_(entry.owner_as)) dead.insert(entry.owner_as);
  }
  for (AsId owner : dead) AppendPurge(owner, "post-election purge");
}

}  // namespace dstampede::core
