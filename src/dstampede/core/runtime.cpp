#include "dstampede/core/runtime.hpp"

#include <algorithm>

#include "dstampede/common/logging.hpp"

namespace dstampede::core {

Result<std::unique_ptr<Runtime>> Runtime::Create(const Options& options) {
  if (options.num_address_spaces == 0) {
    return InvalidArgumentError("need at least one address space");
  }
  auto rt = std::unique_ptr<Runtime>(new Runtime());
  rt->options_ = options;
  for (std::size_t i = 0; i < options.num_address_spaces; ++i) {
    DS_ASSIGN_OR_RETURN(AddressSpace * unused, rt->AddAddressSpace());
    (void)unused;
  }
  return rt;
}

Result<AddressSpace*> Runtime::AddAddressSpace() {
  AddressSpace::Options as_opts;
  as_opts.id = static_cast<AsId>(options_.first_as_id +
                                 static_cast<std::uint32_t>(spaces_.size()));
  as_opts.dispatcher_threads = options_.dispatcher_threads;
  as_opts.shm_fastpath = options_.shm_fastpath;
  // Every space — name-server holder or not — carries the replica list
  // so its name-service calls route to the leader and fail over on
  // replica death. Spaces added dynamically later use the same (fixed)
  // list. Without another cluster's list, the name server lives in this
  // cluster's first spaces.
  const bool own_ns = options_.ns_replica_ids.empty();
  if (own_ns) {
    const std::size_t replica_count =
        std::min(std::max<std::size_t>(options_.ns_replicas, 1),
                 std::max<std::size_t>(options_.num_address_spaces, 1));
    for (std::size_t i = 0; i < replica_count; ++i) {
      as_opts.ns_replicas.push_back(
          static_cast<AsId>(options_.first_as_id +
                            static_cast<std::uint32_t>(i)));
    }
  } else {
    as_opts.ns_replicas = options_.ns_replica_ids;
  }
  as_opts.ns_lease = options_.ns_lease;
  as_opts.ns_heartbeat = options_.ns_heartbeat;
  as_opts.faults = options_.faults;
  as_opts.internal_rpc_deadline = options_.internal_rpc_deadline;
  as_opts.clf_max_retransmits = options_.clf_max_retransmits;
  as_opts.peer_keepalive_interval = options_.peer_keepalive_interval;
  as_opts.peer_timeout = options_.peer_timeout;
  DS_ASSIGN_OR_RETURN(auto space, AddressSpace::Create(as_opts));

  // Full mesh: everyone learns the newcomer; the newcomer learns everyone.
  for (auto& existing : spaces_) {
    existing->AddPeer(space->id(), space->clf_addr());
    space->AddPeer(existing->id(), existing->clf_addr());
  }
  // Advertise the sys/metrics endpoint so tools (dsctl) can discover
  // every space through the name server. Only when this cluster hosts
  // its own NS: a federation-secondary cluster may not be able to
  // reach its NS yet, and a blocking registration here would stall
  // cluster bring-up.
  if (own_ns) {
    Status advertised = space->AdvertiseMetrics();
    if (!advertised.ok()) {
      DS_LOG(kWarn) << "sys/metrics advertisement failed: "
                    << advertised.message();
    }
    // Replica spaces also advertise sys/ns/<id>, which is how clients
    // and listeners discover the replica set for failover (each ad is
    // owned by its replica, so a dead replica's ad is purged and the
    // advertised set tracks the live membership).
    if (space->local_name_server() != nullptr) {
      advertised = space->AdvertiseNsReplica();
      if (!advertised.ok()) {
        DS_LOG(kWarn) << "sys/ns advertisement failed: "
                      << advertised.message();
      }
    }
  }
  spaces_.push_back(std::move(space));
  return spaces_.back().get();
}

void Runtime::Shutdown() {
  for (auto& space : spaces_) {
    if (space) space->Shutdown();
  }
}

}  // namespace dstampede::core
