#include "dstampede/common/waiter.hpp"

#include <vector>

namespace dstampede {

TimerWheel::TimerId TimerWheel::Schedule(Deadline deadline,
                                         std::function<void()> fn) {
  if (deadline.infinite()) return 0;
  const TimePoint when = deadline.when();
  ds::MutexLock lock(mu_);
  const TimerId id = next_id_++;
  entries_.emplace(std::make_pair(when, id), std::move(fn));
  index_.emplace(id, when);
  return id;
}

bool TimerWheel::Cancel(TimerId id) {
  if (id == 0) return false;
  std::function<void()> dropped;
  {
    ds::MutexLock lock(mu_);
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    auto entry = entries_.find(std::make_pair(it->second, id));
    if (entry != entries_.end()) {
      dropped = std::move(entry->second);
      entries_.erase(entry);
    }
    index_.erase(it);
  }
  // `dropped` (and whatever its captures own) is destroyed here,
  // outside the wheel lock.
  return true;
}

TimePoint TimerWheel::RunDue(TimePoint now) {
  std::vector<std::function<void()>> due;
  {
    ds::MutexLock lock(mu_);
    while (!entries_.empty() && entries_.begin()->first.first <= now) {
      due.push_back(std::move(entries_.begin()->second));
      index_.erase(entries_.begin()->first.second);
      entries_.erase(entries_.begin());
    }
    // Nearly every call finds nothing due: one lock, no callbacks.
    if (due.empty()) {
      return entries_.empty() ? TimePoint::max()
                              : entries_.begin()->first.first;
    }
  }
  for (auto& fn : due) fn();
  ds::MutexLock lock(mu_);
  return entries_.empty() ? TimePoint::max() : entries_.begin()->first.first;
}

std::size_t TimerWheel::pending() const {
  ds::MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace dstampede
