// Tests for the fork-kill-recover harness (harness/killfuzz.hpp).
//
// These fork real children, SIGKILL them, and verify from fresh
// processes — the same machinery CI's kill-recovery job runs at scale.
// Budgets here are small; the point is the harness's own contracts:
// deterministic {seed, kill_point} replay, idempotent reopen-twice
// recovery, and zero violations across a randomized batch per family.
//
// Under -DREPRO_MUTATE_DROP_MSYNC=ON the commit's mmap persistence
// mapping is elided (emulating the store reorder the missing fence
// permits) and the ONLY test compiled is the detection sweep: the
// harness must catch the mutant in well under 200 deterministic kill
// points, or the whole kill apparatus is vacuous.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "repro/harness/killfuzz.hpp"

namespace {

namespace kill = repro::harness::kill;

std::string test_heap_path(const char* tag) {
  return "/tmp/repro_kill_test." + std::to_string(::getpid()) + "." +
         tag + ".pmem";
}

std::string slurp_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// The harness skips (never fails) where the fixed-base mapping is
// unavailable; probe once with a kill-free trial.
bool harness_usable(const std::string& path) {
  kill::KillPlan plan;
  plan.heap_path = path;
  plan.ops_budget = 4;
  const kill::TrialResult r = kill::kill_one(plan);
  kill::cleanup_heap_files(plan);
  return r.infra_ok;
}

#define SKIP_IF_NO_HARNESS(path)                                       \
  if (!harness_usable(path)) {                                         \
    GTEST_SKIP() << "fixed-base mmap unavailable in this environment"; \
  }

#ifndef REPRO_MUTATE_DROP_MSYNC

TEST(KillRecovery, CompletedRunVerifiesCleanAndReopenIsIdempotent) {
  const std::string path = test_heap_path("clean");
  SKIP_IF_NO_HARNESS(path);
  kill::KillPlan plan;
  plan.heap_path = path;
  plan.family = kill::Family::isb_list;
  plan.seed = 0xC1EA7ull;
  plan.ops_budget = 200;

  const kill::TrialResult r = kill::kill_one(plan);
  ASSERT_TRUE(r.infra_ok);
  EXPECT_FALSE(r.killed) << "no kill was requested";
  EXPECT_FALSE(r.vacuous);
  EXPECT_EQ(r.violations, 0) << r.what;

  // kill_one already verified twice; a third and fourth fresh-process
  // reopen must keep agreeing — recovery reads, it never rewrites.
  EXPECT_EQ(kill::fork_verify(plan), 0);
  EXPECT_EQ(kill::fork_verify(plan), 0);
  kill::cleanup_heap_files(plan);
}

TEST(KillRecovery, DeterministicSeedAndKillPointReplayIdentically) {
  const std::string path = test_heap_path("replay");
  SKIP_IF_NO_HARNESS(path);
  kill::KillPlan plan;
  plan.heap_path = path;
  plan.family = kill::Family::isb_list;
  plan.seed = 0xD5ull;
  plan.threads = 1;
  plan.ops_budget = 256;
  plan.kill_point = 150;

  const kill::TrialResult a = kill::kill_one(plan);
  ASSERT_TRUE(a.infra_ok);
  const std::string journal_a = slurp_file(plan.journal_path());

  const kill::TrialResult b = kill::kill_one(plan);
  ASSERT_TRUE(b.infra_ok);
  const std::string journal_b = slurp_file(plan.journal_path());

  EXPECT_TRUE(a.killed) << "kill point 150 should land mid-workload";
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.vacuous, b.vacuous);
  EXPECT_EQ(a.violations, 0) << a.what;
  EXPECT_EQ(b.violations, 0) << b.what;
  EXPECT_EQ(journal_a, journal_b)
      << "single-lane replay must reproduce the journal byte-for-byte";
  kill::cleanup_heap_files(plan);
}

TEST(KillRecovery, RandomizedKillBatchFindsNoViolationsPerFamily) {
  const std::string path = test_heap_path("batch");
  SKIP_IF_NO_HARNESS(path);
  for (kill::Family f : kill::all_families()) {
    kill::KillPlan plan;
    plan.heap_path = path;
    plan.family = f;
    plan.seed = 0xBA7C4ull;
    plan.threads = 2;
    plan.ops_budget = 128;
    const kill::KillReport rep = kill::kill_many(plan, 15);
    EXPECT_EQ(rep.violations, 0)
        << kill::family_name(f) << ": "
        << (rep.failures.empty() ? "" : rep.failures.front().what);
    EXPECT_LT(rep.infra_skips, rep.trials) << kill::family_name(f);
    EXPECT_GT(rep.kills, 0)
        << kill::family_name(f)
        << ": no kill landed; the batch tested nothing";
    kill::cleanup_heap_files(plan);
  }
}

// Double-kill: the first verifier pass is itself SIGKILLed at a
// seed-derived point inside its recovery seal, and a third fresh
// process delivers the verdict.  The seal bracket spans every code
// path of the pass, so the second kill must land on every trial; the
// verdict must still be zero violations — crash-during-recovery
// leaves a state a later recovery handles.
TEST(KillRecovery, DoubleKillLandsInVerifierAndThirdProcessIsClean) {
  const std::string path = test_heap_path("dbl");
  SKIP_IF_NO_HARNESS(path);
  kill::KillPlan plan;
  plan.heap_path = path;
  plan.family = kill::Family::isb_list;
  plan.seed = 0xD0B1Eull;
  plan.threads = 1;
  plan.ops_budget = 128;
  plan.kill_point = 90;
  plan.double_kill = true;

  const kill::TrialResult a = kill::kill_one(plan);
  ASSERT_TRUE(a.infra_ok);
  EXPECT_TRUE(a.killed) << "kill point 90 should land mid-workload";
  EXPECT_TRUE(a.verifier_killed)
      << "the seal bracket spans the whole verify pass; the armed "
         "second SIGKILL must land";
  EXPECT_EQ(a.violations, 0) << a.what;

  // Deterministic: the same {seed, kill_point} replays the same
  // double-kill outcome.
  const kill::TrialResult b = kill::kill_one(plan);
  ASSERT_TRUE(b.infra_ok);
  EXPECT_EQ(b.verifier_killed, a.verifier_killed);
  EXPECT_EQ(b.violations, 0) << b.what;
  kill::cleanup_heap_files(plan);
}

TEST(KillRecovery, DoubleKillBatchFindsNoViolationsPerFamily) {
  const std::string path = test_heap_path("dblbatch");
  SKIP_IF_NO_HARNESS(path);
  for (kill::Family f : kill::all_families()) {
    kill::KillPlan plan;
    plan.heap_path = path;
    plan.family = f;
    plan.seed = 0xD0B7C4ull;
    plan.threads = 2;
    plan.ops_budget = 128;
    plan.double_kill = true;
    const kill::KillReport rep = kill::kill_many(plan, 10);
    EXPECT_EQ(rep.violations, 0)
        << kill::family_name(f) << ": "
        << (rep.failures.empty() ? "" : rep.failures.front().what);
    EXPECT_LT(rep.infra_skips, rep.trials) << kill::family_name(f);
    // Every non-skipped, non-vacuous trial must kill its verifier —
    // the double-kill scenario is vacuous otherwise.
    EXPECT_EQ(rep.verifier_kills,
              rep.trials - rep.infra_skips - rep.vacuous)
        << kill::family_name(f);
    kill::cleanup_heap_files(plan);
  }
}

TEST(KillRecovery, UnmutatedBuildSurvivesDeterministicSweep) {
  const std::string path = test_heap_path("sweep");
  SKIP_IF_NO_HARNESS(path);
  kill::KillPlan plan;
  plan.heap_path = path;
  plan.family = kill::Family::isb_list;
  plan.seed = 0x5EEDull;
  plan.threads = 1;
  plan.ops_budget = 64;
  int violations = 0;
  for (std::uint64_t point = 1; point <= 120; ++point) {
    plan.kill_point = point;
    const kill::TrialResult r = kill::kill_one(plan);
    if (!r.infra_ok) continue;
    if (r.violations > 0 && violations == 0) {
      ADD_FAILURE() << "kill_point=" << point << ": " << r.what;
    }
    violations += r.violations;
  }
  EXPECT_EQ(violations, 0);
  kill::cleanup_heap_files(plan);
}

#else  // REPRO_MUTATE_DROP_MSYNC

// Mutation self-test: commit() now emulates the reorder an elided
// msync/fence mapping permits (durable "done" ahead of the response).
// A deterministic kill-point sweep over the ISB list must observe a
// descriptor that says done-with-stale-response — the violation class
// DC3 exists to catch — within 200 points, i.e. within the first few
// dozen operations.
TEST(KillRecoveryMutation, DropMsyncIsDetectedWithin200KillPoints) {
  const std::string path = test_heap_path("mutant");
  SKIP_IF_NO_HARNESS(path);
  kill::KillPlan plan;
  plan.heap_path = path;
  plan.family = kill::Family::isb_list;
  plan.seed = 0x5EEDull;
  plan.threads = 1;
  plan.ops_budget = 64;
  int violations = 0;
  std::uint64_t caught_at = 0;
  for (std::uint64_t point = 1; point <= 200 && violations == 0;
       ++point) {
    plan.kill_point = point;
    const kill::TrialResult r = kill::kill_one(plan);
    if (!r.infra_ok) continue;
    violations += r.violations;
    if (violations > 0) caught_at = point;
  }
  EXPECT_GT(violations, 0)
      << "dropped commit persistence went undetected across 200 "
         "deterministic kill points";
  if (violations > 0) {
    std::printf("mutation caught at kill_point=%llu\n",
                static_cast<unsigned long long>(caught_at));
  }
  kill::cleanup_heap_files(plan);
}

#endif  // REPRO_MUTATE_DROP_MSYNC

}  // namespace
