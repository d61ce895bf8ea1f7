// The process's thread count, for tests that pin how many threads a
// component starts and joins.
#pragma once

#include <fstream>
#include <string>
#include <thread>

#include "dstampede/common/clock.hpp"

namespace dstampede {

// "Threads:" of /proc/self/status.
inline int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// The thread count once it reads `want`, or whatever it reads after
// 5 s: a joined thread stays counted for a moment while it exits.
inline int ThreadCountOnceItReads(int want) {
  const TimePoint give_up = Now() + Millis(5000);
  int count = ThreadCount();
  while (count != want && Now() < give_up) {
    std::this_thread::sleep_for(Millis(1));
    count = ThreadCount();
  }
  return count;
}

// The count before a test starts any thread. A sanitizer runtime
// starts its helper thread with the process's first thread; let that
// happen, and the thread that set it off exit, first.
inline int BaselineThreadCount() {
  std::thread([] {}).join();
  std::this_thread::sleep_for(Millis(5));
  return ThreadCount();
}

}  // namespace dstampede
