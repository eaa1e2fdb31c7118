// The crash-simulation engine: shadow-NVM word semantics (un-fenced
// writes are lost, pwb-without-fence is lost, fenced writes survive,
// the coalescing window spills correctly), crash-point arming at
// persistence-instruction boundaries, deterministic replay of a
// {seed, crash_point} pair, and the crash-point fuzzer's detectability
// verdicts — including the unmutated direction of the mutation
// self-tests: DT survives 50000 single-crash and 5000 chained points,
// Isb-Opt 5000 reclaim-crash points (tests/test_mutants.cpp holds the
// detection direction).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/registry.hpp"
#include "repro/pmem/crash.hpp"
#include "repro/pmem/persist.hpp"
#include "repro/pmem/shadow.hpp"

namespace {

using namespace repro;
using harness::AlgoEntry;
using harness::CrashPlan;
using harness::FuzzReport;
using pmem::Mode;
using pmem::persist;
namespace shadow = pmem::shadow;
namespace crash = pmem::crash;

// Every test runs inside a shadow session with a clean slate, and
// clears the word table again on exit so no later crash() can touch a
// dead stack frame's registered cells.
class ShadowNvm : public ::testing::Test {
 protected:
  void SetUp() override {
    pmem::set_mode(Mode::shadow);
    shadow::reset();
  }
  void TearDown() override {
    crash::disarm();
    shadow::reset();
    pmem::set_mode(Mode::shared_cache);
  }
};

TEST_F(ShadowNvm, UnfencedStoreIsLostOnCrash) {
  persist<std::uint64_t> w{1};
  w.store(2);
  EXPECT_EQ(w.load(), 2u);  // volatile view sees the store
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 1u);  // durable image never did
}

TEST_F(ShadowNvm, PwbWithoutFenceIsLostOnCrash) {
  persist<std::uint64_t> w{1};
  w.store(2);
  pmem::flush(&w);  // pwb issued, never ordered
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 1u);
}

TEST_F(ShadowNvm, FencedWriteSurvivesCrash) {
  persist<std::uint64_t> w{1};
  w.store(2);
  pmem::flush(&w);
  pmem::fence();
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 2u);

  w.store_persist(3);  // the store+pwb+pfence composite
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 3u);
}

TEST_F(ShadowNvm, PsyncCommitsLikeFence) {
  persist<std::uint64_t> w{1};
  w.store(2);
  pmem::flush(&w);
  pmem::psync();
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 2u);
}

TEST_F(ShadowNvm, AdversarialCrashCoinDecidesPendingLines) {
  // Distinct cache lines, or there is only one pending line to flip.
  struct alignas(64) Line {
    persist<std::uint64_t> w{1};
  };
  Line a, b;
  persist<std::uint64_t>& kept = a.w;
  persist<std::uint64_t>& dropped = b.w;
  kept.store(2);
  dropped.store(2);
  pmem::flush(&kept);
  pmem::flush(&dropped);
  // No fence: both lines are pending; the coin keeps the first line it
  // is asked about and drops the second (iteration order over the two
  // lines is not specified, so assert the aggregate instead).
  bool first = true;
  const auto stats =
      shadow::crash(shadow::CrashFidelity::adversarial, [&first] {
        const bool keep = first;
        first = false;
        return keep;
      });
  EXPECT_EQ(stats.lines_committed, 1u);
  EXPECT_EQ(stats.lines_dropped, 1u);
  EXPECT_EQ((kept.load() == 2u) + (dropped.load() == 2u), 1);
}

TEST_F(ShadowNvm, CoalescingWindowSpillsIntoShadowLog) {
  // More distinct lines than the 8-line coalescing window: the
  // overflow executes some write-backs immediately, but none of them
  // may count as durable until the fence commits the window.
  struct alignas(64) Line {
    persist<std::uint64_t> w{0};
  };
  static Line lines[12];
  ASSERT_TRUE(pmem::coalescing());
  for (int i = 0; i < 12; ++i) {
    lines[i].w.store(7);
    pmem::flush(&lines[i].w);
  }
  shadow::crash_strict();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(lines[i].w.load(), 0u) << "line " << i;
  }
  // Same spill, fence before the crash: everything commits.
  for (int i = 0; i < 12; ++i) {
    lines[i].w.store(9);
    pmem::flush(&lines[i].w);
  }
  pmem::fence();
  shadow::crash_strict();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(lines[i].w.load(), 9u) << "line " << i;
  }
}

TEST_F(ShadowNvm, DuplicatePwbInWindowStaysOnePendingLine) {
  persist<std::uint64_t> w{1};
  w.store(2);
  pmem::flush(&w);
  pmem::flush(&w);  // coalesced away, still exactly one pending line
  const auto stats = shadow::crash_strict();
  EXPECT_EQ(stats.lines_dropped, 1u);
  EXPECT_EQ(w.load(), 1u);
}

TEST_F(ShadowNvm, UncrashRestoresTheVolatileView) {
  persist<std::uint64_t> w{1};
  w.store(2);
  shadow::crash_strict();
  ASSERT_EQ(w.load(), 1u);
  shadow::uncrash();
  EXPECT_EQ(w.load(), 2u);
}

TEST_F(ShadowNvm, CasRoutesThroughTheWriteLog) {
  persist<std::uint64_t> w{5};
  std::uint64_t expected = 5;
  ASSERT_TRUE(w.cas(expected, 8));
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 5u);  // un-persisted CAS rewound
  expected = 5;
  ASSERT_TRUE(w.cas(expected, 8));
  pmem::flush(&w);
  pmem::fence();
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 8u);
}

// persist<T>::cas logs a word before its atomic lands.  If another
// thread's pwb + pfence commits the line inside that window, the
// owner's own pwb + pfence after the CAS must still make the CAS's
// value durable.  Replayed single-threaded through the raw hooks.
TEST_F(ShadowNvm, CommitAfterARacingCommitPersistsTheLandedValue) {
  static std::atomic<std::uint64_t> cell{1};  // X
  cell.store(1);
  const shadow::LoadFn load = [](void* c) {
    return static_cast<std::atomic<std::uint64_t>*>(c)->load();
  };
  const shadow::StoreFn store = [](void* c, std::uint64_t v) {
    static_cast<std::atomic<std::uint64_t>*>(c)->store(v);
  };
  shadow::on_store(&cell, cell.load(), load, store);  // cas logs ...
  pmem::flush(&cell);  // ... another thread commits the line ...
  pmem::fence();
  cell.store(2);       // ... then the CAS lands (Y)
  pmem::flush(&cell);  // the owner persists it
  pmem::fence();
  shadow::on_store(&cell, cell.load(), load, store);
  cell.store(3);       // a later, unpersisted store (Z)
  shadow::crash_strict();
  EXPECT_EQ(cell.load(), 2u);
}

TEST_F(ShadowNvm, CrashFiresAtTheArmedInstructionBoundary) {
  persist<std::uint64_t> w{1};
  crash::arm(2);
  w.store(2);        // stores are not persistence instructions
  pmem::flush(&w);   // instruction 1: executes
  EXPECT_THROW(pmem::fence(), crash::CrashUnwind);  // instruction 2
  EXPECT_FALSE(crash::armed());   // countdown consumed by the throw
  EXPECT_TRUE(crash::crashed());  // power stays failed until disarm()
  // The machine is off: every further persistence instruction (any
  // thread's) unwinds too, so concurrent workers cannot commit past
  // the crash.
  EXPECT_THROW(pmem::fence(), crash::CrashUnwind);
  // The fence never executed: the pwb stayed pending.
  shadow::crash_strict();
  EXPECT_EQ(w.load(), 1u);
  crash::disarm();  // power restored
  pmem::fence();    // runs normally again
}

// ---------------------------------------------------------------------
// Crash-point fuzzer
// ---------------------------------------------------------------------

const AlgoEntry& algo(const char* name) {
  const AlgoEntry* e = harness::Registry::instance().find(name);
  EXPECT_NE(e, nullptr) << name;
  return *e;
}

CrashPlan quick_plan(int points) {
  CrashPlan p;
  p.seed = 0xFACADEull;
  p.points = points;
  return p;
}

TEST(CrashFuzz, ReplayOfSeedAndCrashPointIsDeterministic) {
  const AlgoEntry& dt = algo("DT");
  const CrashPlan plan = quick_plan(0);
  FuzzReport a, b;
  harness::fuzz_one(dt, plan, /*iter_seed=*/0xABCDEFull,
                    /*crash_point=*/37, 0, a);
  harness::fuzz_one(dt, plan, 0xABCDEFull, 37, 0, b);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(a.crashes, 1);
}

TEST(CrashFuzz, ExplicitCrashPointReplaysTheDrawnIteration) {
  // A reported failure carries the crash point the original iteration
  // *drew* from its own PRNG.  Replaying with that value passed
  // explicitly must leave the workload PRNG in the same state — i.e.
  // run the identical iteration, not a shifted one.
  const AlgoEntry& dt = algo("DT");
  const CrashPlan plan = quick_plan(0);
  const std::uint64_t seed = 0xFEEDF00Dull;
  repro::harness::Rng probe(seed);
  const std::uint64_t drawn = 1 + probe.below(plan.max_events);
  FuzzReport original, replay;
  harness::fuzz_one(dt, plan, seed, /*crash_point=*/0, 0, original);
  harness::fuzz_one(dt, plan, seed, drawn, 0, replay);
  EXPECT_EQ(original.crashes, replay.crashes);
  EXPECT_EQ(original.total_ops, replay.total_ops);
  EXPECT_EQ(original.violations, replay.violations);
}

// Isb-leak (the leak-everything ablation) is deliberately absent: its
// reclaimer leaks retired nodes by design, which LeakSanitizer would
// flag in the ASan CI leg.  The crash-fuzz CI job still fuzzes it
// through crash_recovery's trait:detectable selector.
TEST(CrashFuzz, ListAndQueueFamiliesSurviveFuzzing) {
  for (const char* name :
       {"Isb", "Isb-Opt", "Isb-noROopt", "Isb-Opt-noROopt",
        "DT-Opt", "Isb-Queue"}) {
    const FuzzReport rep =
        harness::fuzz_structure(algo(name), quick_plan(400));
    EXPECT_EQ(rep.violations, 0)
        << name << ": " << (rep.failures.empty()
                                ? "?"
                                : rep.failures.front().what);
    EXPECT_GT(rep.crashes, 0) << name;
    EXPECT_EQ(rep.points, 400) << name;
  }
}

TEST(CrashFuzz, DescriptorLevelStructuresSurviveFuzzing) {
  for (const char* name : {"Bst-Isb", "Bst-Isb-Opt", "DT-SkipList",
                           "DT-Treiber", "DT-Elimination",
                           "Isb-Exchanger"}) {
    const FuzzReport rep =
        harness::fuzz_structure(algo(name), quick_plan(150));
    EXPECT_EQ(rep.violations, 0)
        << name << ": " << (rep.failures.empty()
                                ? "?"
                                : rep.failures.front().what);
  }
}

// ---------------------------------------------------------------------
// Repeated-crash scenario (crash-during-recovery adversary)
// ---------------------------------------------------------------------

TEST_F(ShadowNvm, ChainedCrashKeepsTheUndoLogAcrossLinks) {
  // The chained-crash protocol: stay crashed between links, accumulate
  // rewinds with keep_undo, and one final uncrash() restores the whole
  // pre-crash volatile view.
  persist<std::uint64_t> w{1};
  w.store(2);
  shadow::crash_strict();
  ASSERT_EQ(w.load(), 1u);
  // Second crash while still down: the volatile view has not changed,
  // but the accumulated undo must survive the second rewind.
  w.store(3);  // a recovery-path consolidation write, not yet fenced
  shadow::crash(shadow::CrashFidelity::strict, [] { return false; },
                /*keep_undo=*/true);
  ASSERT_EQ(w.load(), 1u);
  shadow::uncrash();
  // The latest volatile value a rewound word held wins the replay.
  EXPECT_EQ(w.load(), 3u);
}

CrashPlan chain_plan(int points) {
  CrashPlan p = quick_plan(points);
  p.scenario = harness::ScenarioKind::repeated_crash;
  return p;
}

TEST(ChainFuzz, RepeatedCrashReplayIsDeterministic) {
  const AlgoEntry& dt = algo("DT");
  const CrashPlan plan = chain_plan(0);
  FuzzReport a, b;
  harness::fuzz_one(dt, plan, 0xABCDEFull, 37, 0, a);
  harness::fuzz_one(dt, plan, 0xABCDEFull, 37, 0, b);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.chain_crashes, b.chain_crashes);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(a.crashes, 1);  // the first crash; chain links count apart
  EXPECT_GT(a.chain_crashes, 0);
}

TEST(ChainFuzz, ReplayChainOverridesTheDerivedPoints) {
  // A reproducer's crash_chain replays the exact chain the original
  // iteration derived — passing those points explicitly must land the
  // same verdict and the same number of chained crashes.
  const AlgoEntry& dt = algo("DT");
  CrashPlan derived = chain_plan(0);
  const std::uint64_t seed = 0xFEEDF00Dull;
  FuzzReport a;
  harness::fuzz_one(dt, derived, seed, 41, 0, a);
  ASSERT_EQ(a.violations, 0);
  CrashPlan explicit_plan = derived;
  const std::uint64_t link = harness::mix_seed(seed, 41);
  for (int d = 0; d < explicit_plan.chain_depth; ++d) {
    explicit_plan.replay_chain.push_back(
        1 + harness::mix_seed(link, static_cast<std::uint64_t>(d)) %
                harness::fuzz_detail::RecoverySeal::kSealWindow);
  }
  FuzzReport b;
  harness::fuzz_one(dt, explicit_plan, seed, 41, 0, b);
  EXPECT_EQ(a.chain_crashes, b.chain_crashes);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.total_ops, b.total_ops);
}

TEST(ChainFuzz, AllDetectableFamiliesSurviveChainedCrashes) {
  for (const char* name : {"Isb", "Isb-Opt", "DT", "DT-Opt",
                           "Isb-Queue", "DT-Treiber"}) {
    const FuzzReport rep =
        harness::fuzz_structure(algo(name), chain_plan(200));
    EXPECT_EQ(rep.violations, 0)
        << name << ": " << (rep.failures.empty()
                                ? "?"
                                : rep.failures.front().what);
    EXPECT_GT(rep.chain_crashes, 0) << name;
  }
}

// Unmutated: the chained sweep must stay clean at the nightly
// budget (the other direction of the mutation self-test).
TEST(ChainFuzz, UnmutatedDtListSurvives5000ChainedPoints) {
  const FuzzReport rep =
      harness::fuzz_structure(algo("DT"), chain_plan(5000));
  EXPECT_EQ(rep.violations, 0)
      << (rep.failures.empty() ? "?" : rep.failures.front().what);
  EXPECT_GT(rep.chain_crashes, 2500);
}

// ---------------------------------------------------------------------
// Crash-during-reclaim scenario (persist-before-retire adversary)
// ---------------------------------------------------------------------

CrashPlan reclaim_plan(int points) {
  CrashPlan p = quick_plan(points);
  p.scenario = harness::ScenarioKind::reclaim_crash;
  return p;
}

TEST(ReclaimFuzz, ReclaimCrashReplayIsDeterministic) {
  const AlgoEntry& isb = algo("Isb-Opt");
  const CrashPlan plan = reclaim_plan(0);
  FuzzReport a, b;
  harness::fuzz_one(isb, plan, 0xABCDEFull, 37, 0, a);
  harness::fuzz_one(isb, plan, 0xABCDEFull, 37, 0, b);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(a.crashes, 1);
}

// The full reclaimer matrix under the erase-biased crash-during-
// reclaim mix: every scheme's parked cells must be durably clean at
// every crash (persist-before-retire), and recovery must still satisfy
// the detectability contract.  The deeper sweep runs in the CI
// reclaim-fuzz figure; this pins each scheme's wiring in-tree.
TEST(ReclaimFuzz, ReclaimerMatrixSurvivesReclaimCrashFuzzing) {
  for (const char* name :
       {"Isb-List-HP", "Isb-Queue-HP", "DT-HashMap-HP", "Isb-List-POP",
        "Isb-Queue-POP", "DT-HashMap-POP"}) {
    const FuzzReport rep =
        harness::fuzz_structure(algo(name), reclaim_plan(150));
    EXPECT_EQ(rep.violations, 0)
        << name << ": " << (rep.failures.empty()
                                ? "?"
                                : rep.failures.front().what);
    EXPECT_GT(rep.crashes, 0) << name;
  }
}

// Unmutated: the same structure must survive the nightly budget
// (the other direction of the mutation self-test).
TEST(ReclaimFuzz, UnmutatedIsbOptSurvives5000ReclaimPoints) {
  const FuzzReport rep =
      harness::fuzz_structure(algo("Isb-Opt"), reclaim_plan(5000));
  EXPECT_EQ(rep.violations, 0)
      << (rep.failures.empty() ? "?" : rep.failures.front().what);
  EXPECT_GT(rep.crashes, 2500);
}

// Unmutated: the same structure must survive the full 50000
// crash points the nightly job runs (the other direction of the
// mutation self-test).
TEST(CrashFuzz, UnmutatedDtListSurvives50000Points) {
  const FuzzReport rep =
      harness::fuzz_structure(algo("DT"), quick_plan(50000));
  EXPECT_EQ(rep.violations, 0)
      << (rep.failures.empty() ? "?" : rep.failures.front().what);
  EXPECT_GT(rep.crashes, 25000);  // most points must actually crash
}

}  // namespace
