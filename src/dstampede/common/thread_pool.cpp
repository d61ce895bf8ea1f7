#include "dstampede/common/thread_pool.hpp"

#include "dstampede/common/logging.hpp"

namespace dstampede {

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : num_threads_(num_threads), name_(std::move(name)) {}

void ThreadPool::Start() {
  ds::MutexLock lock(mu_);
  started_ = true;
  StartWorkersLocked();
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    ds::MutexLock lock(mu_);
    if (stopping_) return false;
    queue_.push_back(std::move(task));
    if (started_) StartWorkersLocked();
  }
  cv_.NotifyOne();
  return true;
}

void ThreadPool::StartWorkersLocked() {
  while (!stopping_ && workers_.size() < num_threads_ &&
         queue_.size() > idle_) {
    ++idle_;  // it can take a task from its start
    workers_.emplace_back([this] {
      if (!name_.empty()) SetThreadLogContext(name_);
      WorkerLoop();
    });
  }
}

void ThreadPool::Shutdown() {
  std::vector<std::thread> workers;
  {
    ds::MutexLock lock(mu_);
    // No worker starts once stopping_ is set, so these are all of them;
    // a second caller finds none left to join.
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.NotifyAll();
  for (auto& worker : workers) worker.join();
}

void ThreadPool::WorkerLoop() {
  bool ran = false;
  for (;;) {
    std::function<void()> task;
    {
      ds::MutexLock lock(mu_);
      if (ran) ++idle_;
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      --idle_;
    }
    task();
    ran = true;
  }
}

}  // namespace dstampede
