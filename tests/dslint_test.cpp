// Self-tests for the dslint standalone checker (tools/dslint): each
// fixture under tests/dslint/ encodes one check's positive or
// negative space, and this test shells the real binary out over them
// exactly as the CI gate does over src/. The fixtures are lexed, not
// compiled, so they reference project types freely.
//
// Exit-code contract: 0 clean, 1 findings, 2 usage/IO error.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

struct CheckerRun {
  int exit_code = -1;
  std::string output;
};

CheckerRun Dslint(const std::string& args) {
  const std::string cmd = std::string(DSLINT_BIN) + " " + args + " 2>&1";
  CheckerRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

int Count(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

std::string Fixture(const char* name) {
  return std::string(DSLINT_FIXTURE_DIR) + "/" + name;
}

// Runs one fixture as if it lived at `rel` inside the repo (the
// path-based exemptions key off the repo-relative path). The lock-order
// fixtures run against their own table, tests/dslint/lock_hierarchy.md.
CheckerRun Check(const char* fixture, const char* rel,
          bool with_hierarchy = false) {
  std::string args = "--as-path ";
  args += rel;
  if (with_hierarchy) {
    args += " --hierarchy ";
    args += Fixture("lock_hierarchy.md");
  }
  args += " ";
  args += Fixture(fixture);
  return Dslint(args);
}

TEST(DslintRawClock, FlagsRawClocksSleepsAndTimedWaits) {
  const CheckerRun run = Check("raw_clock_bad.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(1, run.exit_code) << run.output;
  EXPECT_EQ(4, Count(run.output, "[dstampede-raw-clock]")) << run.output;
}

TEST(DslintRawClock, CleanThroughTheSeam) {
  const CheckerRun run = Check("raw_clock_ok.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(0, run.exit_code) << run.output;
}

TEST(DslintRawClock, ClockSeamItselfIsExempt) {
  // The same violations are legal inside common/clock* — that is
  // where the raw clocks are supposed to live.
  const CheckerRun run =
      Check("raw_clock_bad.cpp", "src/dstampede/common/clock.cpp");
  EXPECT_EQ(0, run.exit_code) << run.output;
}

TEST(DslintBlocking, FlagsBlockingCallsUnderOrdinaryLock) {
  const CheckerRun run =
      Check("blocking_under_lock_bad.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(1, run.exit_code) << run.output;
  EXPECT_EQ(2, Count(run.output, "[dstampede-blocking-under-lock]"))
      << run.output;
}

TEST(DslintBlocking, BlockingAllowedMutexAndEarlyUnlockAreClean) {
  const CheckerRun run =
      Check("blocking_allowed_ok.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(0, run.exit_code) << run.output;
}

TEST(DslintCallback, FlagsFinishAndCompleteUnderLock) {
  const CheckerRun run =
      Check("callback_under_lock_bad.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(1, run.exit_code) << run.output;
  EXPECT_EQ(2, Count(run.output, "[dstampede-callback-under-lock]"))
      << run.output;
}

TEST(DslintCallback, CollectThenFinishAndLambdaBodiesAreClean) {
  const CheckerRun run =
      Check("callback_lambda_ok.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(0, run.exit_code) << run.output;
}

TEST(DslintRawSync, FlagsRawPrimitivesOutsideCommon) {
  const CheckerRun run = Check("raw_sync_bad.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(1, run.exit_code) << run.output;
  EXPECT_EQ(4, Count(run.output, "[dstampede-raw-sync-primitive]"))
      << run.output;
}

TEST(DslintRawSync, CommonItselfIsExempt) {
  // The wrappers in common/ are built out of the raw primitives.
  const CheckerRun run =
      Check("raw_sync_bad.cpp", "src/dstampede/common/worker.hpp");
  EXPECT_EQ(0, run.exit_code) << run.output;
}

TEST(DslintLockOrder, FlagsInversionUndocumentedAndSameClass) {
  const CheckerRun run = Check("lock_order_bad.cpp", "src/dstampede/core/fix.cpp",
                        /*with_hierarchy=*/true);
  EXPECT_EQ(1, run.exit_code) << run.output;
  EXPECT_EQ(3, Count(run.output, "[dstampede-lock-order]")) << run.output;
  EXPECT_NE(std::string::npos, run.output.find("inverts")) << run.output;
  EXPECT_NE(std::string::npos, run.output.find("undocumented")) << run.output;
  EXPECT_EQ(2, Count(run.output, "docs/CONCURRENCY.md lock table"))
      << run.output;
  EXPECT_NE(std::string::npos, run.output.find("nested acquisition"))
      << run.output;
}

TEST(DslintLockOrder, DocumentedEdgesIncludingTransitiveAreClean) {
  const CheckerRun run = Check("lock_order_ok.cpp", "src/dstampede/core/fix.cpp",
                        /*with_hierarchy=*/true);
  EXPECT_EQ(0, run.exit_code) << run.output;
}

TEST(DslintNolint, JustifiedSuppressesUnjustifiedNags) {
  const CheckerRun run = Check("nolint.cpp", "src/dstampede/core/fix.cpp");
  EXPECT_EQ(1, run.exit_code) << run.output;
  EXPECT_EQ(0, Count(run.output, "[dstampede-raw-clock]")) << run.output;
  EXPECT_EQ(1, Count(run.output, "[dstampede-nolint-justification]"))
      << run.output;
}

TEST(DslintHierarchy, DocWithoutTableMarkersIsAnError) {
  // Any file without the lock-hierarchy markers will do; a fixture has
  // none.
  const CheckerRun run = Dslint("--hierarchy " + Fixture("lock_order_ok.cpp") +
                                " " + Fixture("lock_order_ok.cpp"));
  EXPECT_EQ(2, run.exit_code) << run.output;
  EXPECT_NE(std::string::npos, run.output.find("markers not found"))
      << run.output;
}

// Stage 1 of scripts/run-tidy.sh, run by ctest so that every build of
// the suite enforces the product lock table, not only the clang job.
TEST(DslintSourceTree, SrcAndToolsAreCleanAgainstTheLockTable) {
  const std::string root = DSLINT_REPO_ROOT;
  const CheckerRun run =
      Dslint("--root " + root + " --hierarchy " + root +
             "/docs/CONCURRENCY.md $(find " + root + "/src " + root +
             "/tools \\( -name '*.cpp' -o -name '*.hpp' \\)"
             " -not -path '*/tools/dslint/*' | sort)");
  EXPECT_EQ(0, run.exit_code) << run.output;
  EXPECT_NE(std::string::npos, run.output.find(" 0 finding(s)")) << run.output;
}

}  // namespace
