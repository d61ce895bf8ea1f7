// Worker pool used by each address space's dispatcher.
//
// The CLF delivery upcall serves a peer's container ops itself (they
// never block), and hands the requests that may (name service,
// replication, the metrics snapshot) to a pool worker, so the thread
// that delivers messages never waits. User GC handlers run here too.
//
// Workers start on demand: none at Start, and Submit starts one only
// when the queued tasks outnumber the idle workers, up to num_threads.
// Starting one is a thread start on the submitting thread, never a
// wait. A started worker stays until Shutdown. The cap still matters
// because tasks may block (a replicated name-service mutation waits on
// its followers, a GC handler may call a peer); a space that never
// sees such work never pays for the threads.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "dstampede/common/sync.hpp"

namespace dstampede {

class ThreadPool {
 public:
  // `name`, when set, becomes each worker's per-thread log context
  // (see logging.hpp), so dispatcher log lines carry their address
  // space.
  explicit ThreadPool(std::size_t num_threads, std::string name = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Lets Submit start workers, and starts them for the tasks already
  // queued. Until then Submit only queues, so an owner can accept work
  // before everything its tasks touch exists. Call once.
  void Start();

  // Enqueues work, starting a worker if no idle one is left for it;
  // returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  // Stops accepting work, drains the queue, joins workers. Idempotent.
  void Shutdown();
  // Tasks queued but not yet picked up (dispatcher queue depth).
  std::size_t pending() const {
    ds::MutexLock lock(mu_);
    return queue_.size();
  }
  // Started workers not running a task.
  std::size_t idle() const {
    ds::MutexLock lock(mu_);
    return idle_;
  }

 private:
  // Starts workers until they cover the queue or reach the cap.
  void StartWorkersLocked() DS_REQUIRES(mu_);
  void WorkerLoop();

  mutable ds::Mutex mu_{"thread_pool.mu"};
  ds::CondVar cv_;
  std::deque<std::function<void()>> queue_ DS_GUARDED_BY(mu_);
  bool started_ DS_GUARDED_BY(mu_) = false;
  bool stopping_ DS_GUARDED_BY(mu_) = false;
  // Started workers not running a task: waiting for one, or not yet
  // at their first wait.
  std::size_t idle_ DS_GUARDED_BY(mu_) = 0;
  const std::size_t num_threads_;
  std::string name_;
  std::vector<std::thread> workers_ DS_GUARDED_BY(mu_);
};

// Counts in-flight operations so shutdown can wait for them to drain.
class WaitGroup {
 public:
  void Add(int n = 1) {
    ds::MutexLock lock(mu_);
    count_ += n;
  }
  void Done() {
    ds::MutexLock lock(mu_);
    if (--count_ == 0) cv_.NotifyAll();
  }
  void Wait() {
    ds::MutexLock lock(mu_);
    while (count_ != 0) cv_.Wait(mu_);
  }

 private:
  ds::Mutex mu_{"wait_group.mu"};
  ds::CondVar cv_;
  int count_ DS_GUARDED_BY(mu_) = 0;
};

}  // namespace dstampede
