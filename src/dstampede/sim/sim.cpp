#include "dstampede/sim/sim.hpp"

#include <cstdio>
#include <cstdlib>

namespace dstampede::sim {

std::uint64_t SimController::SeedFromEnv(std::uint64_t fallback) {
  const char* e = std::getenv("DSTAMPEDE_SIM_SEED");
  if (e == nullptr || e[0] == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(e, &end, 10);
  if (end == e) return fallback;
  return static_cast<std::uint64_t>(v);
}

SimController::SimController(std::uint64_t seed) : seed_(seed), rng_(seed) {
  clock_.Install();
  Record("sim.start seed=" + std::to_string(seed_));
}

SimController::~SimController() { clock_.Uninstall(); }

Duration SimController::UniformDuration(Duration lo, Duration hi) {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>((hi - lo).count());
  return lo + Duration(static_cast<Duration::rep>(rng_() % (span + 1)));
}

std::uint64_t SimController::UniformInt(std::uint64_t lo, std::uint64_t hi) {
  if (hi <= lo) return lo;
  return lo + rng_() % (hi - lo + 1);
}

void SimController::RunFor(Duration d) {
  Record("sim.run_for us=" + std::to_string(ToMicros(d)));
  // Coarse driving: a 50-space cluster registers periodic timers every
  // couple of virtual milliseconds, and RunFor has no completion
  // predicate whose latency could suffer from 10ms of coalescing.
  clock_.AdvanceUntilQuiescent(d, [] { return false; }, Millis(50),
                               Micros(200), Millis(10));
}

bool SimController::RunUntil(const std::function<bool()>& done,
                             Duration horizon) {
  Record("sim.run_until horizon_us=" + std::to_string(ToMicros(horizon)));
  // The check that held decides: a predicate can hold only for a moment
  // (a surrogate parks, then its device resumes it), so asking again
  // after the loop stopped could answer false.
  bool held = false;
  // Mild coalescing: `done` is re-checked every step, so the predicate
  // is detected at worst ~5 virtual ms later than the exact-deadline
  // stepping would — while dense cluster timers cost 10x less wall.
  clock_.AdvanceUntilQuiescent(
      horizon,
      [&] {
        held = done();
        return held;
      },
      Millis(50), Micros(200), Millis(5));
  const bool ok = held || done();
  Record(ok ? "sim.run_until done" : "sim.run_until horizon");
  return ok;
}

void SimController::Record(std::string event) {
  trace_.push_back(std::move(event));
}

std::uint64_t SimController::TraceHash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string& e : trace_) {
    for (char c : e) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return h;
}

std::string SimController::TraceDump() const {
  std::string out;
  for (const std::string& e : trace_) {
    out += e;
    out += '\n';
  }
  return out;
}

}  // namespace dstampede::sim
