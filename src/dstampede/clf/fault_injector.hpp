// Deterministic packet-fault injection and network modeling for CLF.
//
// CLF promises reliable, ordered delivery over an unreliable datagram
// layer; the property tests drive it through this injector, which can
// drop, duplicate and reorder outgoing datagrams under a seeded RNG.
//
// On top of the probabilistic faults, the injector implements a
// deterministic partition ("blackhole") mode: every datagram toward a
// chosen peer set is dropped, optionally only inside a time window.
// Crashes and network partitions become reproducible in tests and in
// bench_ablation's failure-detection tables.
//
// The third layer is a *modeled network*: per-link latency / jitter /
// bandwidth / loss profiles (LinkProfile). A datagram surviving the
// probabilistic faults is assigned a delivery time — serialization
// delay from the link's bandwidth (with per-link back-to-back queuing
// via busy_until), plus base latency, plus seeded-RNG jitter — and
// parked in a delayed-delivery queue keyed on (due time, sequence).
// The endpoint's retransmit scan drains TakeDue(Now()); under an
// installed VirtualClock the due times are virtual, so a simulated
// slow WAN runs at full speed and releases packets deterministically
// in (virtual time, enqueue order). See docs/SIMULATION.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/transport/socket.hpp"

namespace dstampede::clf {

class FaultInjector {
 public:
  struct Config {
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;
    double reorder_probability = 0.0;
    // TCP-edge fault: probability that a surrogate kills the device's
    // connection around the next request it services (reconnect churn
    // for stress tests). Consulted via TakeConnectionKill, not Filter.
    double connection_kill_probability = 0.0;
    std::uint64_t seed = 1;
  };

  // Shape of one directed link (this endpoint -> one peer). All-zero
  // (the default) means "not modeled": packets pass through untimed.
  struct LinkProfile {
    Duration latency = Duration::zero();   // one-way propagation delay
    Duration jitter = Duration::zero();    // uniform [0, jitter) extra
    double loss = 0.0;                     // per-packet loss probability
    std::int64_t bandwidth_bps = 0;        // 0 = infinite (no serialization)

    bool modeled() const {
      return latency != Duration::zero() || jitter != Duration::zero() ||
             loss > 0.0 || bandwidth_bps > 0;
    }
  };

  // A datagram bound for a specific destination. Filter/TakeDue/Flush
  // return these so a released reorder-hold or a matured delayed packet
  // keeps its own destination instead of inheriting the caller's.
  struct Delivery {
    transport::SockAddr to;
    Buffer datagram;
  };

  // Totals across all links (see also PerLinkCounters).
  struct Counters {
    std::uint64_t dropped = 0;       // probabilistic drops
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t blackholed = 0;    // partition drops
    std::uint64_t link_dropped = 0;  // modeled-link loss
    std::uint64_t delayed = 0;       // parked in the delivery queue
    std::uint64_t delivered = 0;     // released from the delivery queue
  };
  struct LinkCounters {
    std::uint64_t delivered = 0;  // immediate + released-from-queue
    std::uint64_t dropped = 0;    // modeled-link loss only
    std::uint64_t delayed = 0;
  };

  FaultInjector() : FaultInjector(Config{}) {}
  explicit FaultInjector(const Config& config);

  // Given one datagram about to go on the wire to `to`, returns the
  // datagrams that should actually be sent now (possibly none, possibly
  // several: duplicates or a previously held-back packet). Datagrams
  // toward a partitioned peer are blackholed before the probabilistic
  // faults run, and the link model may park survivors in the
  // delayed-delivery queue (drain with TakeDue) instead of returning
  // them. Thread-safe.
  std::vector<Delivery> Filter(const transport::SockAddr& to, Buffer datagram);

  // Releases any held-back packet (the endpoint's idle/shutdown path
  // calls this so reordered packets are not stranded forever).
  std::optional<Delivery> Flush();

  // --- modeled network -------------------------------------------------
  void SetLinkProfile(const transport::SockAddr& peer,
                      const LinkProfile& profile);
  // Profile applied to links with no specific profile.
  void SetDefaultLinkProfile(const LinkProfile& profile);
  void ClearLinkProfiles();

  // Removes and returns every delayed packet due at or before `now`,
  // ordered by (due time, enqueue sequence). Pass TimePoint::max() to
  // drain everything (shutdown).
  std::vector<Delivery> TakeDue(TimePoint now);
  // Due time of the earliest parked packet, if any.
  std::optional<TimePoint> NextDeliveryTime() const;
  std::size_t delayed_pending() const {
    return delayed_count_.load(std::memory_order_relaxed);
  }

  // --- partition / blackhole mode ------------------------------------
  // Drops every datagram toward `peer` until `until` passes (the
  // default window never closes: a hard partition until Heal).
  void Partition(const transport::SockAddr& peer,
                 TimePoint until = TimePoint::max());
  // Convenience: partition for a bounded window from now.
  void PartitionFor(const transport::SockAddr& peer, Duration window);
  void Heal(const transport::SockAddr& peer);
  void HealAll();
  // True while a (non-expired) partition toward `peer` is installed.
  bool IsPartitioned(const transport::SockAddr& peer);

  // --- connection-kill mode (TCP edge) --------------------------------
  // The CLF faults above act on cluster datagrams; this mode acts on
  // the client/surrogate TCP edge. A surrogate consults
  // TakeConnectionKill at two points around each request it services:
  //   kBeforeExecute — drop the link before the op runs (the client
  //     replays an unacked call; it must not be lost);
  //   kAfterExecute  — run the op, then drop the link before the reply
  //     is sent (the client replays an *executed* call; it must not be
  //     applied twice).
  enum class KillPoint : std::uint8_t { kBeforeExecute = 0, kAfterExecute = 1 };

  // Arms `n` deterministic kills at `point` (consumed one per request).
  void ArmConnectionKill(std::size_t n,
                         KillPoint point = KillPoint::kBeforeExecute);
  // Returns true if the surrogate should kill the connection now:
  // either an armed kill for this point is pending, or the seeded RNG
  // fires under connection_kill_probability (probabilistic kills all
  // trigger at `point == kBeforeExecute` consults).
  bool TakeConnectionKill(KillPoint point);

  std::uint64_t connections_killed() const {
    return connections_killed_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    ds::MutexLock lock(mu_);
    return counters_.dropped;
  }
  std::uint64_t duplicated() const {
    ds::MutexLock lock(mu_);
    return counters_.duplicated;
  }
  std::uint64_t reordered() const {
    ds::MutexLock lock(mu_);
    return counters_.reordered;
  }
  std::uint64_t blackholed() const {
    ds::MutexLock lock(mu_);
    return counters_.blackholed;
  }
  // Snapshot of the aggregate counters / per-link counters.
  Counters TotalCounters() const;
  std::unordered_map<transport::SockAddr, LinkCounters> PerLinkCounters() const;
  // One-line human-readable counter dump for test-failure diagnostics,
  // e.g. "dropped=3 dup=0 reorder=1 blackholed=12 link_dropped=4
  // delayed=87 delivered=83 pending=4 links=2".
  std::string Summary() const;

  bool active() const {
    return config_.drop_probability > 0 || config_.duplicate_probability > 0 ||
           config_.reorder_probability > 0 ||
           partition_count_.load(std::memory_order_relaxed) > 0 ||
           links_modeled_.load(std::memory_order_relaxed);
  }

 private:
  bool Chance(double p) DS_REQUIRES(mu_);
  // Lazily expires a time-windowed partition; caller holds mu_.
  bool IsPartitionedLocked(const transport::SockAddr& peer) DS_REQUIRES(mu_);
  // Probabilistic drop/duplicate/reorder stage. Emits surviving
  // packets with their own destinations (a released held packet keeps
  // the destination it was captured with).
  std::vector<Delivery> FilterLocked(const transport::SockAddr& to,
                                     Buffer datagram) DS_REQUIRES(mu_);
  // Link-model stage: loss, then delivery-time assignment. Returns the
  // packet if it should ship immediately, nullopt if dropped or parked.
  std::optional<Delivery> ModelLinkLocked(Delivery d) DS_REQUIRES(mu_);
  const LinkProfile* ProfileForLocked(const transport::SockAddr& to) const
      DS_REQUIRES(mu_);

  Config config_;
  // Leaf lock: taken inside the endpoint's send path with clf.send_mu
  // held; must never wrap a call back into the endpoint.
  mutable ds::Mutex mu_{"fault_injector.mu"};
  std::mt19937_64 rng_ DS_GUARDED_BY(mu_);
  std::uniform_real_distribution<double> unit_ DS_GUARDED_BY(mu_){0.0, 1.0};
  std::optional<Delivery> held_ DS_GUARDED_BY(mu_);
  std::unordered_map<transport::SockAddr, TimePoint> partitions_
      DS_GUARDED_BY(mu_);
  // Mirrors partitions_.size() so active() stays lock-free.
  std::atomic<std::size_t> partition_count_{0};

  // --- modeled network state ---
  std::unordered_map<transport::SockAddr, LinkProfile> link_profiles_
      DS_GUARDED_BY(mu_);
  std::optional<LinkProfile> default_profile_ DS_GUARDED_BY(mu_);
  // (due, seq) -> packet; seq keeps same-instant deliveries in enqueue
  // order so a seeded run releases packets in a reproducible order.
  std::map<std::pair<TimePoint, std::uint64_t>, Delivery> delayed_
      DS_GUARDED_BY(mu_);
  std::uint64_t delay_seq_ DS_GUARDED_BY(mu_) = 0;
  // Per-link "transmitter busy until": serialization delays queue
  // back-to-back instead of overlapping.
  std::unordered_map<transport::SockAddr, TimePoint> busy_until_
      DS_GUARDED_BY(mu_);
  std::unordered_map<transport::SockAddr, LinkCounters> link_counters_
      DS_GUARDED_BY(mu_);
  // Mirror flags so active()/delayed_pending() stay lock-free.
  std::atomic<bool> links_modeled_{false};
  std::atomic<std::size_t> delayed_count_{0};

  Counters counters_ DS_GUARDED_BY(mu_);
  std::size_t armed_kills_before_ DS_GUARDED_BY(mu_) = 0;
  std::size_t armed_kills_after_ DS_GUARDED_BY(mu_) = 0;
  // Fast path: lets TakeConnectionKill skip the lock entirely when no
  // kill can possibly fire (the common, fault-free case).
  std::atomic<bool> kills_possible_{false};
  std::atomic<std::uint64_t> connections_killed_{0};
};

}  // namespace dstampede::clf
