// Federation: one D-Stampede application spanning multiple clusters.
//
// The paper's current system supports "only one cluster involved in an
// application" (§3.3) and names multi-cluster support as the first item
// of future work (§6): "extend the D-Stampede system to support
// multiple heterogeneous clusters connected to a plethora of end
// devices participating in the same D-Stampede application". This class
// implements that extension:
//
//   * every cluster gets a disjoint AsId range, so container ids stay
//     system-wide unique across the federation;
//   * all address spaces of all clusters are wired into one CLF mesh —
//     a channel created in cluster B is reachable from a thread (or an
//     end device's surrogate) in cluster A with the same calls;
//   * cluster 0's first address space hosts the one name server, which
//     every address space (and thus every end device) resolves against;
//   * clusters may be heterogeneous: each has its own size, dispatcher
//     width and CLF fast path, and each can run its own Listener for
//     the end devices near it.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "dstampede/common/sync.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede::core {

class Federation {
 public:
  // Per-cluster knobs ("heterogeneous clusters").
  struct ClusterSpec {
    std::size_t num_address_spaces = 1;
    std::size_t dispatcher_threads = 8;
    bool shm_fastpath = false;
  };

  struct Options {
    std::vector<ClusterSpec> clusters;
    // AsId range reserved per cluster; cluster i uses
    // [i*stride, (i+1)*stride). Plenty for any realistic cluster.
    std::uint32_t as_id_stride = 4096;
    // Failure detection across the federation mesh (must be symmetric,
    // so these are federation-wide rather than per-cluster). All-zero
    // keeps the fail-free model; see Runtime::Options.
    std::size_t clf_max_retransmits = 0;
    Duration peer_keepalive_interval = Duration::zero();
    Duration peer_timeout = Duration::zero();
    Duration internal_rpc_deadline = Millis(10000);
    // Control-plane HA: number of NameServer replicas hosted by the
    // first `ns_replicas` spaces of cluster 0 (clamped to its size).
    // 1 keeps the paper's single name server. Every other cluster's
    // spaces route name-service calls across the replica set.
    std::size_t ns_replicas = 1;
    Duration ns_lease = Millis(1200);
    Duration ns_heartbeat = Millis(300);
  };

  static Result<std::unique_ptr<Federation>> Create(const Options& options);
  ~Federation() { Shutdown(); }

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  std::size_t size() const { return clusters_.size(); }
  Runtime& cluster(std::size_t i) { return *clusters_.at(i); }

  // Adds an address space to cluster `i`, wired to the entire
  // federation (all clusters learn it; it learns everyone).
  Result<AddressSpace*> AddAddressSpace(std::size_t i);

  // Edge fast-fail: true once CLF failure detection has declared every
  // address space of cluster `i` dead. Federated lookups and data calls
  // against a dead cluster already fail kUnavailable immediately (the
  // sender's peer table short-circuits them); this accessor lets
  // gateways and listeners skip a dead cluster without issuing a call.
  // A space that comes back with a fresh CLF incarnation is un-counted,
  // so a recovered cluster is reported live again. Requires failure
  // detection to be enabled in Options.
  // Note: cluster-down is a data-plane notion (every space dead). The
  // control plane has its own, replication-aware availability check
  // below — with a replicated name server, losing the bootstrap NS
  // space no longer means losing the name service.
  bool IsClusterDown(std::size_t i) const;
  // How many address spaces of cluster `i` are currently declared dead.
  std::size_t DeadSpacesIn(std::size_t i) const;
  // Control-plane availability, consulting the replicated view: true
  // once a majority of the name-server replica set is dead (the
  // survivors can no longer elect or renew a lease). Unreplicated:
  // true once the single NS space is dead.
  bool IsNameServiceDown() const;
  // The federation's name-server replica set (cluster 0).
  const std::vector<AsId>& ns_replica_ids() const { return ns_replica_ids_; }

  void Shutdown();

 private:
  Federation() = default;
  void NotePeerDown(AsId dead);
  void NotePeerUp(AsId alive);

  Options options_;
  std::vector<std::unique_ptr<Runtime>> clusters_;
  // Cluster 0's NameServer replica spaces ({AS 0} when unreplicated).
  std::vector<AsId> ns_replica_ids_;

  // Dead-peer bookkeeping, fed by every address space's PeerDown and
  // PeerUp observers (cluster index -> set of dead AS indices within
  // it; a revived incarnation is erased again).
  mutable ds::Mutex down_mu_{"federation.down_mu"};
  std::vector<std::set<std::uint32_t>> down_ DS_GUARDED_BY(down_mu_);
};

}  // namespace dstampede::core
