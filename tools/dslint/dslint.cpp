// dslint driver. Usage:
//
//   dslint [--root DIR] [--hierarchy docs/CONCURRENCY.md]
//          [--as-path RELPATH] [--checks c1,c2] [--list-edges]
//          file.cpp [file.hpp ...]
//
// --hierarchy reads the lock-order table between the lock-hierarchy
// markers of the given markdown file. Findings go to stdout in
// clang-tidy format ("path:line:col: warning: msg [dstampede-check]");
// exit status is 0 when clean, 1 on findings, 2 on usage/I-O errors.
//
// The engine resolves a MutexLock's mutex variable against every file
// it has seen, so pass the whole file set in one invocation (the way
// scripts/run-tidy.sh does) rather than one file at a time — a lock
// taken in foo.cpp on a mutex declared in foo.hpp only resolves when
// both were scanned.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "engine.hpp"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: dslint [--root DIR] [--hierarchy CONCURRENCY_MD]\n"
      "              [--as-path RELPATH] [--checks c1,c2] [--list-edges]\n"
      "              files...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dslint::Options options;
  std::vector<std::string> files;
  std::string hierarchy_path;
  bool list_edges = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.root = v;
    } else if (arg == "--hierarchy") {
      const char* v = next();
      if (v == nullptr) return Usage();
      hierarchy_path = v;
    } else if (arg == "--as-path") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.as_path = v;
    } else if (arg == "--checks") {
      const char* v = next();
      if (v == nullptr) return Usage();
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ','))
        if (!item.empty()) options.enabled_checks.insert(item);
    } else if (arg == "--list-edges") {
      list_edges = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "dslint: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();

  if (!hierarchy_path.empty()) {
    std::string error;
    if (!options.hierarchy.LoadFromMarkdown(hierarchy_path, &error)) {
      std::fprintf(stderr, "dslint: %s\n", error.c_str());
      return 2;
    }
  }

  dslint::Engine engine(options);
  // Two passes: learn every mutex declaration first so cross-file
  // variable -> lock-class resolution works regardless of file order.
  for (const std::string& f : files) engine.ScanDeclarations(f);
  std::vector<dslint::Finding> findings;
  for (const std::string& f : files) engine.Analyze(f, &findings);

  for (const dslint::Finding& finding : findings)
    std::printf("%s\n", finding.Render().c_str());

  if (list_edges) {
    for (const dslint::LockEdge& e : engine.observed_edges())
      std::fprintf(stderr, "edge: %s -> %s\n", e.holder.c_str(),
                   e.acquired.c_str());
  }
  std::fprintf(stderr, "dslint: %zu file(s), %zu finding(s)\n", files.size(),
               findings.size());
  return findings.empty() ? 0 : 1;
}
