// Tests for the fork-kill-recover harness (harness/killfuzz.hpp).
//
// These fork real children, SIGKILL them, and verify from fresh
// processes — the same machinery CI's kill-recovery job runs at scale.
// Budgets here are small; the point is the harness's own contracts:
// deterministic {seed, kill_point} replay, idempotent reopen-twice
// recovery, zero violations across a randomized batch per structure,
// and every checked detectable registry entry under real SIGKILLs.
// The deterministic kill-point sweep, with and without the drop_msync
// mutant, is the drop_msync row of tests/test_mutants.cpp.  The
// KillVerifier tests run the verifier alone on hand-built images.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "repro/harness/killfuzz.hpp"

namespace {

namespace kill = repro::harness::kill;
namespace ds = repro::ds;
using repro::harness::AlgoEntry;
using repro::harness::Kind;

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

// ---------------------------------------------------------------------
// The verifier on synthetic journals: a hand-built durable image and
// journal, no heap and no kill, so an image a kill lands on only
// rarely is pinned exactly.
// ---------------------------------------------------------------------

// A queue's durable image as the verifier reads it: the durable values
// and each slot's recovered descriptor.
struct FakeQueue final : repro::harness::QueueIface {
  std::vector<std::uint64_t> durable;
  std::map<int, ds::Recovered> desc;  // by slot

  bool snapshot_values(std::vector<std::uint64_t>& out) const override {
    out = durable;
    return true;
  }
  ds::Recovered recover(int slot) const override {
    const auto it = desc.find(slot);
    return it != desc.end() ? it->second : ds::Recovered{};
  }
  void enqueue(std::uint64_t) override {}
  bool dequeue(std::uint64_t&) override { return false; }
};

ds::Recovered enqueue_desc(std::uint64_t seq, std::uint64_t v, bool done) {
  return {seq, ds::OpKind::enqueue, static_cast<std::int64_t>(v), done,
          done, done ? v : 0};
}
ds::Recovered dequeue_desc(std::uint64_t seq, std::uint64_t v, bool done) {
  return {seq, ds::OpKind::dequeue, 0, done, done, done ? v : 0};
}

// Two lanes on slots 0 and 1 with empty journals.
kill::detail::Journal two_lanes() {
  kill::detail::Journal j;
  j.lane_slot = {{0, 0}, {1, 1}};
  return j;
}

// Lane 0's in-flight enqueue of 5 committed, and lane 1's in-flight
// dequeue committed with 5: the value is gone from the image, and that
// is correct, although lane 0 is judged before lane 1.
TEST(KillVerifier, CommittedDequeueOnALaterLaneConsumedACommittedEnqueue) {
  FakeQueue q;
  q.desc = {{0, enqueue_desc(1, 5, true)}, {1, dequeue_desc(1, 5, true)}};
  std::string what;
  EXPECT_EQ(kill::detail::verify(q, Kind::queue, two_lanes(), 2, what), 0) << what;
}

// A pending dequeue whose head CAS is durable has removed a value too:
// one lost committed enqueue is within what it may account for.
TEST(KillVerifier, PendingDequeueMayHaveConsumedACommittedEnqueue) {
  FakeQueue q;
  q.desc = {{0, enqueue_desc(1, 5, true)}, {1, dequeue_desc(1, 0, false)}};
  std::string what;
  EXPECT_EQ(kill::detail::verify(q, Kind::queue, two_lanes(), 2, what), 0) << what;
}

// ...but not for two: a journaled enqueue's value is lost as well.
TEST(KillVerifier, PendingDequeueCannotAccountForTwoLostValues) {
  FakeQueue q;
  q.desc = {{0, enqueue_desc(2, 5, true)}, {1, dequeue_desc(1, 0, false)}};
  kill::detail::Journal j = two_lanes();
  repro::harness::oracle::LaneOp enq;
  enq.board_seq = 1;
  enq.kind = ds::OpKind::enqueue;
  enq.key = 4;
  enq.ok = true;
  enq.result = 4;
  j.ops[0] = {enq};
  std::string what;
  EXPECT_GT(kill::detail::verify(q, Kind::queue, j, 2, what), 0);
  EXPECT_NE(what.find("durably lost"), std::string::npos) << what;
}

TEST(KillRecovery, CompletedRunVerifiesCleanAndReopenIsIdempotent) {
  const std::string path = test_heap_path("clean");
  SKIP_IF_NO_HARNESS(path);
  kill::KillPlan plan;
  plan.heap_path = path;
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

// Every detectable registry entry whose durable image the fuzzers check
// is killed for real too: the set follows registration, not a list.
TEST(KillRecovery, EveryCheckedDetectableEntryIsKillTested) {
  const std::vector<const AlgoEntry*> killed = kill::structures();
  int checked = 0;
  for (const AlgoEntry& e :
       repro::harness::Registry::instance().entries()) {
    if (!e.has_trait("detectable") || e.has_trait("no-reclaim")) continue;
    if (!e.make()->has_snapshot()) continue;
    ++checked;
    EXPECT_NE(std::find(killed.begin(), killed.end(), &e), killed.end())
        << e.name << " has a durable walk but is not kill-tested";
  }
  EXPECT_EQ(static_cast<int>(killed.size()), checked);
  EXPECT_GE(checked, 16);
}

TEST(KillRecovery, RandomizedKillBatchFindsNoViolationsPerStructure) {
  const std::string path = test_heap_path("batch");
  SKIP_IF_NO_HARNESS(path);
  for (const AlgoEntry* e : kill::structures()) {
    kill::KillPlan plan;
    plan.heap_path = path;
    plan.structure = e->name;
    plan.seed = 0xBA7C4ull;
    plan.threads = 2;
    plan.ops_budget = 128;
    const kill::KillReport rep = kill::kill_many(plan, 15);
    EXPECT_EQ(rep.violations, 0)
        << e->name << ": "
        << (rep.failures.empty() ? "" : rep.failures.front().what);
    EXPECT_LT(rep.infra_skips, rep.trials) << e->name;
    EXPECT_GT(rep.kills, 0)
        << e->name
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

TEST(KillRecovery, DoubleKillBatchFindsNoViolationsPerStructure) {
  const std::string path = test_heap_path("dblbatch");
  SKIP_IF_NO_HARNESS(path);
  for (const AlgoEntry* e : kill::structures()) {
    kill::KillPlan plan;
    plan.heap_path = path;
    plan.structure = e->name;
    plan.seed = 0xD0B7C4ull;
    plan.threads = 2;
    plan.ops_budget = 128;
    plan.double_kill = true;
    const kill::KillReport rep = kill::kill_many(plan, 10);
    EXPECT_EQ(rep.violations, 0)
        << e->name << ": "
        << (rep.failures.empty() ? "" : rep.failures.front().what);
    EXPECT_LT(rep.infra_skips, rep.trials) << e->name;
    // Every non-skipped, non-vacuous trial must kill its verifier —
    // the double-kill scenario is vacuous otherwise.
    EXPECT_EQ(rep.verifier_kills,
              rep.trials - rep.infra_skips - rep.vacuous)
        << e->name;
    kill::cleanup_heap_files(plan);
  }
}

}  // namespace
