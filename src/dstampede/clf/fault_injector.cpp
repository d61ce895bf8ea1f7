#include "dstampede/clf/fault_injector.hpp"

#include <algorithm>
#include <cstdio>

namespace dstampede::clf {

FaultInjector::FaultInjector(const Config& config)
    : config_(config), rng_(config.seed) {
  kills_possible_.store(config.connection_kill_probability > 0.0,
                        std::memory_order_relaxed);
}

bool FaultInjector::Chance(double p) {
  if (p <= 0.0) return false;
  return unit_(rng_) < p;
}

std::vector<FaultInjector::Delivery> FaultInjector::Filter(
    const transport::SockAddr& to, Buffer datagram) {
  ds::MutexLock lock(mu_);
  if (IsPartitionedLocked(to)) {
    ++counters_.blackholed;
    return {};
  }
  std::vector<Delivery> out;
  for (Delivery& d : FilterLocked(to, std::move(datagram))) {
    if (std::optional<Delivery> now = ModelLinkLocked(std::move(d))) {
      out.push_back(std::move(*now));
    }
  }
  return out;
}

std::vector<FaultInjector::Delivery> FaultInjector::FilterLocked(
    const transport::SockAddr& to, Buffer datagram) {
  auto release_held = [&](std::vector<Delivery>& out) {
    if (!held_) return;
    out.push_back(std::move(*held_));
    held_.reset();
  };

  std::vector<Delivery> out;

  if (Chance(config_.drop_probability)) {
    ++counters_.dropped;
    // Still release a held packet so reordering can't mask the drop.
    release_held(out);
    return out;
  }

  if (Chance(config_.reorder_probability) && !held_) {
    // Hold this one back; it will ship after the next packet.
    ++counters_.reordered;
    held_ = Delivery{to, std::move(datagram)};
    return out;
  }

  const bool dup = Chance(config_.duplicate_probability);
  out.push_back(Delivery{to, datagram});  // copy kept if duplicating
  if (dup) {
    ++counters_.duplicated;
    out.push_back(Delivery{to, datagram});
  }
  release_held(out);
  return out;
}

const FaultInjector::LinkProfile* FaultInjector::ProfileForLocked(
    const transport::SockAddr& to) const {
  auto it = link_profiles_.find(to);
  if (it != link_profiles_.end()) return &it->second;
  if (default_profile_) return &*default_profile_;
  return nullptr;
}

std::optional<FaultInjector::Delivery> FaultInjector::ModelLinkLocked(
    Delivery d) {
  const LinkProfile* profile = ProfileForLocked(d.to);
  if (profile == nullptr || !profile->modeled()) {
    ++link_counters_[d.to].delivered;
    ++counters_.delivered;
    return d;
  }
  LinkCounters& lc = link_counters_[d.to];
  if (Chance(profile->loss)) {
    ++lc.dropped;
    ++counters_.link_dropped;
    return std::nullopt;
  }
  const TimePoint now = Now();
  Duration serialization = Duration::zero();
  if (profile->bandwidth_bps > 0) {
    const auto bits = static_cast<std::int64_t>(d.datagram.size()) * 8;
    serialization = std::chrono::nanoseconds(
        (bits * 1'000'000'000) / profile->bandwidth_bps);
  }
  // Back-to-back serialization: the link transmits one packet at a
  // time, so a burst queues behind the transmitter, not in parallel.
  TimePoint start = now;
  auto busy = busy_until_.find(d.to);
  if (busy != busy_until_.end() && busy->second > start) start = busy->second;
  const TimePoint tx_done = start + serialization;
  busy_until_[d.to] = tx_done;

  Duration jitter = Duration::zero();
  if (profile->jitter > Duration::zero()) {
    jitter = std::chrono::duration_cast<Duration>(unit_(rng_) *
                                                  profile->jitter);
  }
  const TimePoint due = tx_done + profile->latency + jitter;
  if (due <= now) {
    ++lc.delivered;
    ++counters_.delivered;
    return d;
  }
  delayed_.emplace(std::make_pair(due, delay_seq_++), std::move(d));
  delayed_count_.store(delayed_.size(), std::memory_order_relaxed);
  ++lc.delayed;
  ++counters_.delayed;
  return std::nullopt;
}

std::optional<FaultInjector::Delivery> FaultInjector::Flush() {
  ds::MutexLock lock(mu_);
  std::optional<Delivery> out = std::move(held_);
  held_.reset();
  return out;
}

void FaultInjector::SetLinkProfile(const transport::SockAddr& peer,
                                   const LinkProfile& profile) {
  ds::MutexLock lock(mu_);
  link_profiles_[peer] = profile;
  links_modeled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::SetDefaultLinkProfile(const LinkProfile& profile) {
  ds::MutexLock lock(mu_);
  default_profile_ = profile;
  links_modeled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::ClearLinkProfiles() {
  ds::MutexLock lock(mu_);
  link_profiles_.clear();
  default_profile_.reset();
  busy_until_.clear();
  // Packets already parked still deliver; keep the flag up until the
  // queue drains so the endpoint keeps scanning it.
  links_modeled_.store(!delayed_.empty(), std::memory_order_relaxed);
}

std::vector<FaultInjector::Delivery> FaultInjector::TakeDue(TimePoint now) {
  ds::MutexLock lock(mu_);
  std::vector<Delivery> out;
  auto it = delayed_.begin();
  while (it != delayed_.end() && it->first.first <= now) {
    ++link_counters_[it->second.to].delivered;
    ++counters_.delivered;
    out.push_back(std::move(it->second));
    it = delayed_.erase(it);
  }
  delayed_count_.store(delayed_.size(), std::memory_order_relaxed);
  if (delayed_.empty() && link_profiles_.empty() && !default_profile_) {
    links_modeled_.store(false, std::memory_order_relaxed);
  }
  return out;
}

std::optional<TimePoint> FaultInjector::NextDeliveryTime() const {
  ds::MutexLock lock(mu_);
  if (delayed_.empty()) return std::nullopt;
  return delayed_.begin()->first.first;
}

void FaultInjector::ArmConnectionKill(std::size_t n, KillPoint point) {
  ds::MutexLock lock(mu_);
  if (point == KillPoint::kBeforeExecute) {
    armed_kills_before_ += n;
  } else {
    armed_kills_after_ += n;
  }
  kills_possible_.store(true, std::memory_order_relaxed);
}

bool FaultInjector::TakeConnectionKill(KillPoint point) {
  if (!kills_possible_.load(std::memory_order_relaxed)) return false;
  ds::MutexLock lock(mu_);
  std::size_t& armed = point == KillPoint::kBeforeExecute
                           ? armed_kills_before_
                           : armed_kills_after_;
  bool fire = false;
  if (armed > 0) {
    --armed;
    fire = true;
  } else if (point == KillPoint::kBeforeExecute &&
             Chance(config_.connection_kill_probability)) {
    fire = true;
  }
  if (fire) connections_killed_.fetch_add(1, std::memory_order_relaxed);
  if (armed_kills_before_ == 0 && armed_kills_after_ == 0 &&
      config_.connection_kill_probability <= 0.0) {
    kills_possible_.store(false, std::memory_order_relaxed);
  }
  return fire;
}

void FaultInjector::Partition(const transport::SockAddr& peer,
                              TimePoint until) {
  ds::MutexLock lock(mu_);
  partitions_[peer] = until;
  partition_count_.store(partitions_.size(), std::memory_order_relaxed);
}

void FaultInjector::PartitionFor(const transport::SockAddr& peer,
                                 Duration window) {
  Partition(peer, Now() + window);
}

void FaultInjector::Heal(const transport::SockAddr& peer) {
  ds::MutexLock lock(mu_);
  partitions_.erase(peer);
  partition_count_.store(partitions_.size(), std::memory_order_relaxed);
}

void FaultInjector::HealAll() {
  ds::MutexLock lock(mu_);
  partitions_.clear();
  partition_count_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::IsPartitioned(const transport::SockAddr& peer) {
  ds::MutexLock lock(mu_);
  return IsPartitionedLocked(peer);
}

bool FaultInjector::IsPartitionedLocked(const transport::SockAddr& peer) {
  auto it = partitions_.find(peer);
  if (it == partitions_.end()) return false;
  if (it->second != TimePoint::max() && Now() >= it->second) {
    partitions_.erase(it);  // window closed: the link heals itself
    partition_count_.store(partitions_.size(), std::memory_order_relaxed);
    return false;
  }
  return true;
}

FaultInjector::Counters FaultInjector::TotalCounters() const {
  ds::MutexLock lock(mu_);
  return counters_;
}

std::unordered_map<transport::SockAddr, FaultInjector::LinkCounters>
FaultInjector::PerLinkCounters() const {
  ds::MutexLock lock(mu_);
  return link_counters_;
}

std::string FaultInjector::Summary() const {
  ds::MutexLock lock(mu_);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "dropped=%llu dup=%llu reorder=%llu blackholed=%llu "
                "link_dropped=%llu delayed=%llu delivered=%llu pending=%zu "
                "links=%zu",
                static_cast<unsigned long long>(counters_.dropped),
                static_cast<unsigned long long>(counters_.duplicated),
                static_cast<unsigned long long>(counters_.reordered),
                static_cast<unsigned long long>(counters_.blackholed),
                static_cast<unsigned long long>(counters_.link_dropped),
                static_cast<unsigned long long>(counters_.delayed),
                static_cast<unsigned long long>(counters_.delivered),
                delayed_.size(), link_counters_.size());
  return buf;
}

}  // namespace dstampede::clf
