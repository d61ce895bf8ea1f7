// dslint: project-specific static checks for the D-Stampede tree.
//
// Five checks enforce the doctrines that docs/CONCURRENCY.md and
// docs/SIMULATION.md previously stated only as convention:
//
//   dstampede-raw-clock            raw std::chrono clock reads, raw
//                                  sleeps, raw timed condition waits —
//                                  anything that bypasses the
//                                  common/clock seam (PR 6) and so
//                                  silently breaks sim determinism.
//   dstampede-blocking-under-lock  a known-blocking call (Call, Send,
//                                  Recv, sync Get/Put, SyncWaiter
//                                  waits) while a ds::MutexLock is
//                                  live, minus kBlockingAllowed
//                                  mutexes — the static twin of
//                                  sync::AssertBlockingAllowed.
//   dstampede-callback-under-lock  Wakeups Finish / DeferredReply
//                                  Complete invoked with a lock held,
//                                  violating the run-completions-
//                                  outside-the-lock rule.
//   dstampede-raw-sync-primitive   std::mutex / std::thread /
//                                  std::condition_variable & friends
//                                  outside common/, dodging the
//                                  annotations and the deadlock
//                                  detector.
//   dstampede-lock-order           statically observed ds::MutexLock
//                                  nesting edges that are undocumented
//                                  in the docs/CONCURRENCY.md lock
//                                  table or invert a documented edge.
//
// Suppression: `// NOLINT(dstampede-<check>): <why>` on the offending
// line, or `// NOLINTNEXTLINE(dstampede-<check>): <why>` on the line
// above. A suppression without a justification is itself a finding
// (dstampede-nolint-justification). See docs/STATIC_ANALYSIS.md.
//
// The engine is a C++ tokenizer plus lexical scope tracking, with no
// libclang required, so the gate runs wherever the tree builds.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace dslint {

struct Finding {
  std::string path;
  int line = 0;
  int col = 0;
  std::string check;    // "dstampede-raw-clock", ...
  std::string message;  // human-readable, no trailing newline

  // clang-tidy style: "path:line:col: warning: message [check]".
  std::string Render() const;
};

// One statically observed lock-nesting edge: `holder` was live when
// `acquired` was taken.
struct LockEdge {
  std::string holder;
  std::string acquired;
  bool operator<(const LockEdge& o) const {
    return holder != o.holder ? holder < o.holder : acquired < o.acquired;
  }
};

// The documented lock hierarchy (the docs/CONCURRENCY.md table):
// directed edges "holder -> acquired". An observed nesting A under B
// is legal when a forward path B -> ... -> A exists.
class Hierarchy {
 public:
  // Parses the edge table embedded in a markdown doc between the
  // `<!-- lock-hierarchy:begin -->` / `:end` markers (rows
  // "| a | b |"). Returns false and sets *error on an I/O error or
  // missing markers.
  bool LoadFromMarkdown(const std::string& path, std::string* error);

  bool HasPath(const std::string& from, const std::string& to) const;
  bool loaded() const { return loaded_; }

 private:
  std::map<std::string, std::set<std::string>> adj_;
  bool loaded_ = false;
};

struct Options {
  // Repo root; file paths are made root-relative for the path-based
  // exemptions (common/clock, common/sync, common/).
  std::string root;
  // Treat every input file as if it lived at this root-relative path
  // (fixture tests use this to exercise the path exemptions).
  std::string as_path;
  // Documented hierarchy for dstampede-lock-order; when absent the
  // lock-order check only reports same-class nesting.
  Hierarchy hierarchy;
  // Checks to run; empty means all.
  std::set<std::string> enabled_checks;
};

class Engine {
 public:
  explicit Engine(Options options) : options_(std::move(options)) {}

  // Phase 1: learn every `ds::Mutex var{"doctrine.name", ...}`
  // declaration in `path` (and remember it globally) so later analysis
  // can resolve a MutexLock's variable to its lock class and its
  // kBlockingAllowed flag. Call for every file before any Analyze.
  void ScanDeclarations(const std::string& path);

  // Phase 2: run the checks over one file; appends findings.
  void Analyze(const std::string& path, std::vector<Finding>* findings);

  // All resolved nesting edges observed across Analyze calls
  // (debugging aid for the docs/CONCURRENCY.md table).
  const std::set<LockEdge>& observed_edges() const { return observed_edges_; }

 private:
  struct Impl;
  Options options_;

  struct MutexInfo {
    std::string doctrine_name;  // "" when declared without a name
    bool blocking_allowed = false;
  };
  // Mutex variable name -> declarations seen, keyed per file and
  // globally (resolution prefers the file and its same-stem sibling,
  // then a globally unambiguous match).
  std::map<std::string, std::map<std::string, MutexInfo>> file_mutexes_;
  std::map<std::string, std::vector<MutexInfo>> global_mutexes_;
  std::set<std::string> scanned_files_;
  std::set<LockEdge> observed_edges_;

  friend struct EngineTestPeer;
  std::string RelPath(const std::string& path) const;
  const MutexInfo* Resolve(const std::string& file, const std::string& var,
                           MutexInfo* storage) const;
};

// Reads a whole file; false on I/O error.
bool ReadFile(const std::string& path, std::string* out);

}  // namespace dslint
