// NameService: one address space's name-service and session routing.
//
// It owns the space's NameServer replica (if it hosts one), the
// replication log over it (RepLog, when several spaces host replicas)
// and the hint of which replica leads. It answers the space's public
// Ns* and Session* calls: a read comes from the local replica while
// its lease view is fresh, a mutation is appended when this replica
// leads, and everything else goes to the replica set with hint-guided
// failover. It also serves the name-service, session and replication
// requests that reach the space. Like RepLog, it reaches peers through
// two callbacks of its space: send a request, and is a peer dead.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dstampede/common/metrics.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/common/thread_pool.hpp"
#include "dstampede/core/name_server.hpp"
#include "dstampede/core/replog.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::core {

class NameService {
 public:
  // The name-service fields of AddressSpace::Options.
  struct Options {
    AsId self = kInvalidAsId;
    // The spaces that hold the name server: one is the lone server, more
    // are replicas behind the replication log.
    std::vector<AsId> replicas;
    Duration lease = Millis(1200);
    Duration heartbeat = Millis(300);
    // Deadline of routed calls that carry none of their own.
    Duration rpc_deadline = Millis(10000);
  };

  // Registers the ns.* providers and api.ns_ops with `registry`, which
  // must outlive this object.
  NameService(const Options& options, metrics::Registry& registry,
              RepLog::SendFn send, RepLog::PeerDeadFn peer_dead);

  NameService(const NameService&) = delete;
  NameService& operator=(const NameService&) = delete;

  // Start and stop the replication log's ticker, if there is one.
  void Start();
  void Stop();

  // The first space of the replica list (kInvalidAsId if it is empty).
  AsId name_server_as() const {
    return options_.replicas.empty() ? kInvalidAsId
                                     : options_.replicas.front();
  }
  NameServer* name_server() { return name_server_.get(); }
  RepLog* replication() { return replog_.get(); }

  // The calls behind AddressSpace's Ns* and Session*; each counts once
  // in api.ns_ops.
  Status Register(const NsEntry& entry);
  Status Unregister(const std::string& name);
  Result<NsEntry> Lookup(const std::string& name, Deadline deadline);
  Result<std::vector<NsEntry>> List(const std::string& prefix);
  Status PutSession(const SessionRecord& record);
  Result<SessionRecord> GetSession(std::uint64_t session_id);
  Status DropSession(std::uint64_t session_id);
  Status TickSession(std::uint64_t session_id, std::uint64_t ticket);

  // Serves one name-service, session or replication request; `body` is
  // positioned at its op fields. A peer's request is served by this
  // space's replica or refused: a follower answers a mutation with the
  // "not leader; leader=<id>" redirect and a read with kUnavailable
  // while its lease is stale, so the caller's failover loop retries
  // elsewhere; nothing is forwarded between replicas. An end device's
  // name-service request goes through the calls above, which route it;
  // AddressSpace refuses its session and replication requests.
  Buffer Serve(const RequestHeader& hdr, marshal::XdrDecoder& body,
               bool from_peer);

  // Recovery for a dead peer: its names must stop satisfying lookups,
  // while its session records stay for a listener to migrate. A replica
  // feeds the death to the election and, as leader, appends the purge
  // on `pool`, because appending blocks on replica RPCs.
  void OnPeerDown(AsId dead, ThreadPool& pool);

 private:
  using BodyFn = std::function<void(marshal::XdrEncoder&)>;

  bool ReadsLocally() const {
    return name_server_ && (!replog_ || replog_->LeaseFresh());
  }
  // A peer's read: `local()` while this replica may answer, else the
  // refusal that sends the peer elsewhere.
  template <typename Local>
  auto ServeRead(Local local) -> decltype(local());
  // A read routed to the replicas, with `local()` as the degraded
  // answer when none can be reached.
  template <typename Local, typename Decode>
  auto RouteRead(Op op, const BodyFn& body, Deadline deadline, Local local,
                 Decode decode) -> decltype(local());
  // A mutation on this space's own replica: appended by the leader (a
  // follower returns the redirect), applied by a lone name server,
  // refused where no replica lives.
  Status MutateHere(const NsMutation& m);
  // The calls' mutation path: here if possible, else routed.
  Status Mutate(NsMutation m);
  // One bounded failover loop: tries the last known leader first, then
  // rotates through the replica set, following "leader=<id>" hints and
  // pausing between rounds so an election can settle. Returns the raw
  // reply frame of the first definitive answer.
  Result<SharedBuffer> Route(Op op, const BodyFn& body, Deadline deadline);
  void NoteLeader(AsId leader);
  // Appends a purge of `dead`'s names; `what` names it in the warning
  // logged if the append fails.
  void AppendPurge(AsId dead, const char* what);
  // Election callback: the new leader re-drives the purge of every dead
  // owner's names, so purges the old leader issued, or died before
  // issuing, are not lost.
  void OnBecameLeader();

  const Options options_;
  const RepLog::SendFn send_;
  const RepLog::PeerDeadFn peer_dead_;
  metrics::Counter* const m_api_ns_ops_;
  std::unique_ptr<NameServer> name_server_;
  // Declared after name_server_, which its apply callback writes.
  std::unique_ptr<RepLog> replog_;
  // The last replica that answered a routed call definitively (usually
  // the leader). Leaf lock.
  mutable ds::Mutex route_mu_{"ns_service.route_mu"};
  AsId leader_hint_ DS_GUARDED_BY(route_mu_) = kInvalidAsId;
};

}  // namespace dstampede::core
