#include "dstampede/core/federation.hpp"

#include <algorithm>

namespace dstampede::core {

Result<std::unique_ptr<Federation>> Federation::Create(
    const Options& options) {
  if (options.clusters.empty()) {
    return InvalidArgumentError("federation needs at least one cluster");
  }
  for (const ClusterSpec& spec : options.clusters) {
    if (spec.num_address_spaces == 0 ||
        spec.num_address_spaces > options.as_id_stride) {
      return InvalidArgumentError("cluster size must fit the AsId stride");
    }
  }

  auto fed = std::unique_ptr<Federation>(new Federation());
  fed->options_ = options;

  // The name server lives in cluster 0's first spaces (one: the lone
  // server, or a replica set clamped to its size); every other cluster
  // gets the list verbatim so its spaces route and fail over across it.
  const std::size_t replica_count =
      std::min(std::max<std::size_t>(options.ns_replicas, 1),
               options.clusters.front().num_address_spaces);
  for (std::size_t r = 0; r < replica_count; ++r) {
    fed->ns_replica_ids_.push_back(
        static_cast<AsId>(static_cast<std::uint32_t>(r)));
  }

  for (std::size_t i = 0; i < options.clusters.size(); ++i) {
    const ClusterSpec& spec = options.clusters[i];
    Runtime::Options rt_opts;
    rt_opts.num_address_spaces = spec.num_address_spaces;
    rt_opts.dispatcher_threads = spec.dispatcher_threads;
    rt_opts.shm_fastpath = spec.shm_fastpath;
    rt_opts.first_as_id =
        static_cast<std::uint32_t>(i) * options.as_id_stride;
    if (i == 0) {
      rt_opts.ns_replicas = replica_count;
      rt_opts.ns_lease = options.ns_lease;
      rt_opts.ns_heartbeat = options.ns_heartbeat;
    } else {
      rt_opts.ns_replica_ids = fed->ns_replica_ids_;
    }
    rt_opts.clf_max_retransmits = options.clf_max_retransmits;
    rt_opts.peer_keepalive_interval = options.peer_keepalive_interval;
    rt_opts.peer_timeout = options.peer_timeout;
    rt_opts.internal_rpc_deadline = options.internal_rpc_deadline;
    DS_ASSIGN_OR_RETURN(auto runtime, Runtime::Create(rt_opts));
    fed->clusters_.push_back(std::move(runtime));
  }
  fed->down_.resize(fed->clusters_.size());

  // Cross-cluster mesh: every AS of every cluster learns every AS of
  // every other cluster (intra-cluster wiring was done by Runtime).
  for (std::size_t a = 0; a < fed->clusters_.size(); ++a) {
    for (std::size_t b = a + 1; b < fed->clusters_.size(); ++b) {
      Runtime& ra = *fed->clusters_[a];
      Runtime& rb = *fed->clusters_[b];
      for (std::size_t i = 0; i < ra.size(); ++i) {
        for (std::size_t j = 0; j < rb.size(); ++j) {
          ra.as(i).AddPeer(rb.as(j).id(), rb.as(j).clf_addr());
          rb.as(j).AddPeer(ra.as(i).id(), ra.as(i).clf_addr());
        }
      }
    }
  }

  // Edge fast-fail: every address space reports dead peers to the
  // federation so whole-cluster outages are visible (IsClusterDown),
  // and revived peers (fresh CLF incarnations) so a recovered cluster
  // is not shunned forever. The raw pointer is safe: the federation
  // owns the runtimes, and Shutdown() stops their failure detectors
  // before members die.
  Federation* raw = fed.get();
  for (auto& cluster : fed->clusters_) {
    for (std::size_t i = 0; i < cluster->size(); ++i) {
      cluster->as(i).AddPeerDownObserver(
          [raw](AsId dead) { raw->NotePeerDown(dead); });
      cluster->as(i).AddPeerUpObserver(
          [raw](AsId alive) { raw->NotePeerUp(alive); });
    }
  }
  return fed;
}

void Federation::NotePeerDown(AsId dead) {
  const std::uint32_t index = AsIndex(dead);
  const std::size_t cluster = index / options_.as_id_stride;
  ds::MutexLock lock(down_mu_);
  if (cluster >= down_.size()) return;
  down_[cluster].insert(index % options_.as_id_stride);
}

void Federation::NotePeerUp(AsId alive) {
  const std::uint32_t index = AsIndex(alive);
  const std::size_t cluster = index / options_.as_id_stride;
  ds::MutexLock lock(down_mu_);
  if (cluster >= down_.size()) return;
  down_[cluster].erase(index % options_.as_id_stride);
}

bool Federation::IsClusterDown(std::size_t i) const {
  if (i >= clusters_.size()) return false;
  ds::MutexLock lock(down_mu_);
  return down_[i].size() >= clusters_[i]->size();
}

std::size_t Federation::DeadSpacesIn(std::size_t i) const {
  if (i >= clusters_.size()) return 0;
  ds::MutexLock lock(down_mu_);
  return down_[i].size();
}

bool Federation::IsNameServiceDown() const {
  if (clusters_.empty()) return true;
  ds::MutexLock lock(down_mu_);
  if (ns_replica_ids_.size() <= 1) {
    return down_[0].count(0) != 0;  // single NS: AS 0 of cluster 0
  }
  std::size_t dead = 0;
  for (AsId replica : ns_replica_ids_) {
    if (down_[0].count(AsIndex(replica) % options_.as_id_stride) != 0) {
      ++dead;
    }
  }
  // A majority must survive to elect a leader or renew the lease.
  const std::size_t quorum = ns_replica_ids_.size() / 2 + 1;
  return ns_replica_ids_.size() - dead < quorum;
}

Result<AddressSpace*> Federation::AddAddressSpace(std::size_t i) {
  if (i >= clusters_.size()) return InvalidArgumentError("no such cluster");
  DS_ASSIGN_OR_RETURN(AddressSpace * space, clusters_[i]->AddAddressSpace());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (c == i) continue;  // Runtime wired its own cluster already
    Runtime& other = *clusters_[c];
    for (std::size_t j = 0; j < other.size(); ++j) {
      other.as(j).AddPeer(space->id(), space->clf_addr());
      space->AddPeer(other.as(j).id(), other.as(j).clf_addr());
    }
  }
  space->AddPeerDownObserver([this](AsId dead) { NotePeerDown(dead); });
  space->AddPeerUpObserver([this](AsId alive) { NotePeerUp(alive); });
  return space;
}

void Federation::Shutdown() {
  for (auto& cluster : clusters_) {
    if (cluster) cluster->Shutdown();
  }
}

}  // namespace dstampede::core
