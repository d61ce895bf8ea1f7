#include "dstampede/common/thread_pool.hpp"

#include "dstampede/common/logging.hpp"

namespace dstampede {

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : num_threads_(num_threads), name_(std::move(name)) {}

void ThreadPool::Start() {
  workers_.reserve(num_threads_);
  for (std::size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] {
      if (!name_.empty()) SetThreadLogContext(name_);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    ds::MutexLock lock(mu_);
    if (stopping_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  return true;
}

void ThreadPool::Shutdown() {
  {
    ds::MutexLock lock(mu_);
    // If another caller already initiated shutdown, workers may still
    // be joining; fall through — join() below is idempotent per thread.
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      ds::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace dstampede
