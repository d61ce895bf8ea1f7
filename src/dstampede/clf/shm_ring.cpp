#include "dstampede/clf/shm_ring.hpp"

#include <cstring>

namespace dstampede::clf {

Status ShmRing::Transfer(const transport::SockAddr& from,
                         std::span<const std::uint8_t> message) {
  Buffer assembled;
  assembled.reserve(message.size());
  {
    ds::MutexLock lock(mu_);
    if (closed_) return UnavailableError("shm peer shut down");
    ++in_flight_;
    std::size_t off = 0;
    while (off < message.size()) {
      const std::size_t n = std::min(kChunk, message.size() - off);
      std::memcpy(staging_, message.data() + off, n);
      assembled.insert(assembled.end(), staging_, staging_ + n);
      off += n;
    }
  }
  deliver_(from, SharedBuffer(std::move(assembled)));
  ds::MutexLock lock(mu_);
  if (--in_flight_ == 0 && closed_) drained_cv_.NotifyAll();
  return OkStatus();
}

void ShmRing::Close() {
  ds::MutexLock lock(mu_);
  closed_ = true;
  while (in_flight_ != 0) drained_cv_.Wait(mu_);
}

ShmRegistry& ShmRegistry::Instance() {
  static auto* registry = new ShmRegistry();
  return *registry;
}

void ShmRegistry::Register(const transport::SockAddr& addr,
                           std::shared_ptr<ShmRing> ring) {
  ds::MutexLock lock(mu_);
  rings_[addr] = std::move(ring);
}

void ShmRegistry::Unregister(const transport::SockAddr& addr) {
  ds::MutexLock lock(mu_);
  rings_.erase(addr);
}

std::shared_ptr<ShmRing> ShmRegistry::Lookup(const transport::SockAddr& addr) {
  ds::MutexLock lock(mu_);
  auto it = rings_.find(addr);
  return it == rings_.end() ? nullptr : it->second;
}

}  // namespace dstampede::clf
