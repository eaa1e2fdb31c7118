// The concurrent crash-point fuzzer (crashfuzz.hpp's multi-threaded
// driver): every trait:detectable family survives fuzzing under the
// durable-linearizability checker, checker verdicts are a
// deterministic function of the recorded history, failing histories
// dump as parseable JSONL — and the mutation self-test: a build with
// REPRO_MUTATE_DROP_PREPUBLISH (msqueue_core's pre_publish elided)
// must be caught within 2000 points, while the unmutated build
// survives the full budget (REPRO_CONC_POINTS, default 2000 per
// family — the CI nightly raises it).  The reclaim and repeated-crash
// scenarios also run at two threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/linearize.hpp"
#include "repro/harness/registry.hpp"

namespace {

using namespace repro;
using harness::AlgoEntry;
using harness::ConcurrentCrashPlan;
using harness::ConcurrentFuzzReport;

const AlgoEntry& algo(const char* name) {
  const AlgoEntry* e = harness::Registry::instance().find(name);
  EXPECT_NE(e, nullptr) << name;
  return *e;
}

ConcurrentCrashPlan quick_plan(int points) {
  ConcurrentCrashPlan p;
  p.seed = 0xFACADEull;
  p.points = points;
  return p;
}

int env_points(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  return fallback;
}

#ifndef REPRO_MUTATE_DROP_PREPUBLISH

// All trait:detectable families, quick budget (the deep budget runs
// below and in the nightly CI job).  Isb-leak is absent for the same
// reason as in test_crash_engine: it leaks by design and would trip
// the ASan leg; the CI concurrent-fuzz job still covers it.
TEST(ConcurrentFuzz, AllDetectableFamiliesSurvive) {
  for (const char* name :
       {"Isb", "Isb-Opt", "Isb-noROopt", "Isb-Opt-noROopt", "DT",
        "DT-Opt", "Isb-Queue", "Bst-Isb", "Bst-Isb-Opt", "DT-SkipList",
        "DT-Treiber", "DT-Elimination", "Isb-Exchanger"}) {
    const ConcurrentFuzzReport rep =
        harness::concurrent_fuzz_structure(algo(name), quick_plan(300));
    EXPECT_EQ(rep.violations, 0)
        << name << ": "
        << (rep.failures.empty() ? "?" : rep.failures.front().what);
    EXPECT_EQ(rep.points, 300) << name;
    EXPECT_GT(rep.crashes, 0) << name;
    EXPECT_GT(rep.total_ops, 0u) << name;
  }
}

// The deep unmutated direction of the mutation self-test: the queue
// whose pre_publish the mutated build elides must survive the full
// point budget when unmutated.  REPRO_CONC_POINTS scales it (CI
// nightly runs 20000); alongside AllDetectableFamiliesSurvive the
// default suite still crosses 2000 + 13*300 ≈ 6k points per run.
TEST(ConcurrentFuzz, UnmutatedQueueSurvivesTheFullBudget) {
  const int points = env_points("REPRO_CONC_POINTS", 2000);
  const ConcurrentFuzzReport rep = harness::concurrent_fuzz_structure(
      algo("Isb-Queue"), quick_plan(points));
  EXPECT_EQ(rep.violations, 0)
      << (rep.failures.empty() ? "?" : rep.failures.front().what);
  // Most points must actually crash, or the budget horizon is
  // mis-sized and the fuzz is testing nothing.
  EXPECT_GT(rep.crashes, points / 2);
}

// A crash iteration where the countdown outlives the workload still
// verifies plain concurrent linearizability; and a point that crashes
// produces a history whose JSONL dump parses back to the same checker
// input (the replay path README documents).
TEST(ConcurrentFuzz, NonCrashingPointStillChecksLinearizability) {
  ConcurrentCrashPlan plan = quick_plan(0);
  plan.max_events = 100000;  // far beyond the workload: never fires
  ConcurrentFuzzReport rep;
  harness::concurrent_fuzz_one(algo("Isb-Queue"), plan,
                               /*iter_seed=*/0xABCDEFull,
                               /*crash_point=*/0, 0, rep);
  EXPECT_EQ(rep.points, 1);
  EXPECT_EQ(rep.crashes, 0);
  EXPECT_EQ(rep.violations, 0);
  EXPECT_GT(rep.total_ops, 0u);
}

// Per-thread death: the armed instruction kills only the hitting
// worker; survivors run to completion, a fresh thread adopts the dead
// lane's slot and recovers it, and the merged history (dead lane's
// pending op upgraded per the adoption verdict) must linearize.
TEST(ConcurrentFuzz, AllDetectableFamiliesSurviveThreadDeath) {
  for (const char* name :
       {"Isb", "Isb-Opt", "DT", "DT-Opt", "Isb-Queue", "Bst-Isb",
        "DT-Treiber", "Isb-Exchanger"}) {
    ConcurrentCrashPlan plan = quick_plan(150);
    plan.scenario = harness::ScenarioKind::thread_death;
    const ConcurrentFuzzReport rep =
        harness::concurrent_fuzz_structure(algo(name), plan);
    EXPECT_EQ(rep.violations, 0)
        << name << ": "
        << (rep.failures.empty() ? "?" : rep.failures.front().what);
    EXPECT_EQ(rep.points, 150) << name;
    EXPECT_GT(rep.crashes, 0) << name;  // deaths count as crashes
  }
}

// Stalled-thread adversary: one worker parks at a persistence boundary
// across a full crash+recovery, resumes afterwards, and both the
// durable cut and the post-resume completion must stay consistent.
TEST(ConcurrentFuzz, AllDetectableFamiliesSurviveStalledThread) {
  for (const char* name :
       {"Isb", "Isb-Opt", "DT", "DT-Opt", "Isb-Queue", "Bst-Isb",
        "DT-Treiber", "Isb-Exchanger"}) {
    ConcurrentCrashPlan plan = quick_plan(150);
    plan.scenario = harness::ScenarioKind::stalled_thread;
    const ConcurrentFuzzReport rep =
        harness::concurrent_fuzz_structure(algo(name), plan);
    EXPECT_EQ(rep.violations, 0)
        << name << ": "
        << (rep.failures.empty() ? "?" : rep.failures.front().what);
    EXPECT_EQ(rep.points, 150) << name;
  }
}

// The adversarial scenarios floor the worker count at 2 (a
// single-thread plan cannot stage a survivor or a stalled bystander).
TEST(ConcurrentFuzz, AdversarialScenariosFloorThreadsAtTwo) {
  ConcurrentCrashPlan plan = quick_plan(30);
  plan.threads = 1;
  for (const auto scenario : {harness::ScenarioKind::thread_death,
                              harness::ScenarioKind::stalled_thread}) {
    plan.scenario = scenario;
    const ConcurrentFuzzReport rep =
        harness::concurrent_fuzz_structure(algo("Isb"), plan);
    EXPECT_EQ(rep.violations, 0)
        << (rep.failures.empty() ? "?" : rep.failures.front().what);
  }
}

// The scenario hooks do not depend on the lane count: reclaim_crash
// (erase-biased sets, parked cells durably clean at the crash) and
// repeated_crash (crashes inside recovery, recovery idempotent across
// the chain) run at two threads over the detectable registry.  Isb-leak
// is skipped as in AllDetectableFamiliesSurvive.
TEST(ConcurrentFuzz, ReclaimAndRepeatedCrashSurviveAtTwoThreads) {
  for (const auto scenario : {harness::ScenarioKind::reclaim_crash,
                              harness::ScenarioKind::repeated_crash}) {
    for (const AlgoEntry* e :
         harness::Registry::instance().select("trait:detectable")) {
      if (e->has_trait("no-reclaim")) continue;
      ConcurrentCrashPlan plan = quick_plan(30);
      plan.threads = 2;
      plan.scenario = scenario;
      const ConcurrentFuzzReport rep =
          harness::concurrent_fuzz_structure(*e, plan);
      EXPECT_EQ(rep.violations, 0)
          << harness::scenario_name(scenario) << " " << e->name << ": "
          << (rep.failures.empty() ? "?" : rep.failures.front().what);
      EXPECT_GT(rep.crashes, 0)
          << harness::scenario_name(scenario) << " " << e->name;
    }
  }
}

// Checker verdicts are deterministic given the recorded history: the
// dumped failing history of a (deliberately corrupted) run re-checks
// to the identical verdict and state count, twice.
TEST(ConcurrentFuzz, DumpedHistoryRechecksDeterministically) {
  harness::HistoryRecorder rec(2, 4);
  const auto a = rec.invoke(0, ds::OpKind::enqueue, 101);
  rec.response(0, a, true, 101);
  const auto b = rec.invoke(0, ds::OpKind::enqueue, 102);
  rec.response(0, b, true, 102);
  const auto c = rec.invoke(1, ds::OpKind::dequeue, 0);
  rec.response(1, c, true, 102);  // non-FIFO: 101 was first
  rec.mark_crash();

  std::vector<harness::HistoryEvent> ev;
  ASSERT_TRUE(harness::parse_history_jsonl(rec.to_jsonl(), ev));
  const auto ops = harness::lin::ops_from_events(ev);
  harness::lin::Spec sp;
  sp.kind = harness::lin::Semantics::queue;
  const auto r1 = harness::lin::check(ops, sp);
  const auto r2 = harness::lin::check(ops, sp);
  EXPECT_EQ(r1.verdict, harness::lin::Verdict::violation);
  EXPECT_EQ(r2.verdict, r1.verdict);
  EXPECT_EQ(r2.states, r1.states);
  EXPECT_EQ(r2.what, r1.what);
}

#else  // REPRO_MUTATE_DROP_PREPUBLISH

// Mutated build: msqueue_core's enqueue no longer persists a node
// before publishing it, so a crashed iteration can leave a durable
// link to a node whose payload (and next pointer) rewind to stale
// pool garbage.  The concurrent fuzzer must notice well within 2000
// crash points — empirically the very first crashing point usually
// fails, via the durable-walk guard or a value nobody enqueued.
TEST(ConcurrentFuzz, DroppedPrePublishIsDetectedWithin2000Points) {
  const AlgoEntry& q = algo("Isb-Queue");
  const ConcurrentCrashPlan plan = quick_plan(2000);
  ConcurrentFuzzReport rep;
  const std::uint64_t base = plan.effective_seed();
  int used = 0;
  for (; used < plan.points && rep.violations == 0; ++used) {
    harness::concurrent_fuzz_one(
        q, plan,
        harness::mix_seed(base,
                          0xC0C0'0000ull + static_cast<std::uint64_t>(used)),
        0, used, rep);
  }
  EXPECT_GT(rep.violations, 0)
      << "mutation not detected in " << used << " concurrent points";
}

#endif  // REPRO_MUTATE_DROP_PREPUBLISH

}  // namespace
