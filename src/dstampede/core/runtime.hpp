// Runtime: bootstraps the cluster ("body" of the Octopus).
//
// Mirrors the server-program startup of §4: it creates k address
// spaces, wires the full CLF peer mesh between them, and designates
// address space 0 to host the name server. Address spaces can also be
// added dynamically (a joining component, §2's dynamic start/stop).
//
// In the paper each address space is a process on a cluster node; here
// each is an in-process runtime endpoint with its own CLF port, so the
// identical wire protocol runs between them (DESIGN.md, substitutions).
#pragma once

#include <memory>
#include <vector>

#include "dstampede/core/address_space.hpp"

namespace dstampede::core {

class Runtime {
 public:
  struct Options {
    std::size_t num_address_spaces = 1;
    std::size_t dispatcher_threads = 8;
    bool shm_fastpath = false;
    clf::FaultInjector::Config faults;
    // Multi-cluster support (Federation): the base of this cluster's
    // AsId range. A standalone cluster keeps the default.
    std::uint32_t first_as_id = 0;
    // Control-plane HA: the first `ns_replicas` spaces each host a
    // NameServer replica behind the leader-lease replication log
    // (core/replog.hpp); 1 keeps the paper's single name server in
    // the cluster's first space. Clamped to the cluster size. Only
    // meaningful when this cluster hosts the name server.
    std::size_t ns_replicas = 1;
    Duration ns_lease = Millis(1200);
    Duration ns_heartbeat = Millis(300);
    // Federation: the name-server list of *another* cluster. When set,
    // every space of this cluster routes its name-service calls across
    // it, hosts no name server of its own and advertises nothing.
    std::vector<AsId> ns_replica_ids;
    // Control-plane RPC deadline for every address space (see
    // AddressSpace::Options::internal_rpc_deadline).
    Duration internal_rpc_deadline = Millis(10000);
    // Cluster failure detection; all-zero keeps the paper's fail-free
    // model. See AddressSpace::Options.
    std::size_t clf_max_retransmits = 0;
    Duration peer_keepalive_interval = Duration::zero();
    Duration peer_timeout = Duration::zero();
  };

  static Result<std::unique_ptr<Runtime>> Create(const Options& options);
  ~Runtime() { Shutdown(); }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  std::size_t size() const { return spaces_.size(); }
  AddressSpace& as(std::size_t i) { return *spaces_.at(i); }

  // Dynamically adds one more address space, wired to all existing
  // ones (and they to it). Returns the new space.
  Result<AddressSpace*> AddAddressSpace();

  // Stops every address space. Idempotent.
  void Shutdown();

 private:
  Runtime() = default;

  Options options_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
};

}  // namespace dstampede::core
