// The mutation self-tests, one row per runtime mutant (pmem/crash.hpp):
// under a MutantScope the row's verifier must report a violation within
// the row's budget, and the same sweep right after the scope closes, in
// the same process, must be clean — a mutant can neither go unseen nor
// leak into later tests.  Each row prints its first-catch point; to
// watch one verifier fail on purpose, run one row:
//   ./tests/test_mutants --gtest_filter='*/drop_pfence'
// MutantElision pins what each instruction-eliding mutant removes:
// exactly its own site's instructions, and nothing without a scope.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/killfuzz.hpp"
#include "repro/harness/registry.hpp"
#include "repro/pmem/crash.hpp"

namespace {

using namespace repro;
using harness::ScenarioKind;
using pmem::Counters;
using pmem::crash::Mutant;
using pmem::crash::MutantScope;
namespace kill = harness::kill;

constexpr std::uint64_t kSeed = 0xFACADEull;

const harness::AlgoEntry& algo(const char* name) {
  const harness::AlgoEntry* e = harness::Registry::instance().find(name);
  EXPECT_NE(e, nullptr) << name;
  return *e;
}

// Point i of fuzz_structure's sweep: its violations.
std::function<int(int)> fuzz_point(const char* name, ScenarioKind scenario) {
  return [=](int i) {
    harness::CrashPlan plan;
    plan.seed = kSeed;
    plan.scenario = scenario;
    harness::FuzzReport rep;
    harness::fuzz_one(algo(name), plan, harness::mix_seed(kSeed, i), 0, i,
                      rep);
    return rep.violations;
  };
}

// Point i of concurrent_fuzz_structure's sweep (3 racing lanes).
std::function<int(int)> concurrent_point(const char* name) {
  return [=](int i) {
    harness::ConcurrentCrashPlan plan;
    plan.seed = kSeed;
    harness::ConcurrentFuzzReport rep;
    harness::concurrent_fuzz_one(
        algo(name), plan, harness::mix_seed(kSeed, 0xC0C0'0000ull + i), 0, i,
        rep);
    return rep.violations;
  };
}

// One single-lane ISB-list kill trial, verified from fresh processes
// (which inherit the mutant).
kill::TrialResult kill_trial(std::uint64_t kill_point, int ops) {
  kill::KillPlan plan;
  plan.heap_path = "/tmp/repro_mutant_test." + std::to_string(::getpid()) +
                   ".pmem";
  plan.seed = 0x5EEDull;
  plan.ops_budget = ops;
  plan.kill_point = kill_point;
  const kill::TrialResult r = kill::kill_one(plan);
  kill::cleanup_heap_files(plan);
  return r;
}

struct Row {
  Mutant mutant;
  const char* name;
  const char* verifier;
  int budget;  // the points each self-test has always been allowed
  std::function<int(int)> point;
};

const Row kRows[] = {
    {Mutant::drop_pfence, "drop_pfence", "crash-fuzz DT", 2000,
     fuzz_point("DT", ScenarioKind::single_crash)},
    {Mutant::drop_prepublish, "drop_prepublish", "conc-fuzz Isb-Queue", 2000,
     concurrent_point("Isb-Queue")},
    {Mutant::drop_msync, "drop_msync", "kill sweep isb-list", 200,
     [](int i) {
       const kill::TrialResult r = kill_trial(i + 1, 64);
       return r.infra_ok ? r.violations : 0;
     }},
    {Mutant::drop_recovery_fence, "drop_recovery_fence", "chain-fuzz DT",
     2000, fuzz_point("DT", ScenarioKind::repeated_crash)},
    {Mutant::drop_retire_persist, "drop_retire_persist",
     "reclaim-fuzz Isb-Opt", 2000,
     fuzz_point("Isb-Opt", ScenarioKind::reclaim_crash)},
};

class MutantRow : public ::testing::TestWithParam<Row> {};

TEST_P(MutantRow, IsCaughtWithinBudgetAndLeavesNoTrace) {
  const Row& row = GetParam();
  // The kill harness skips, not fails, where the fixed-base mapping is
  // unavailable; a kill-free trial probes for it.
  if (row.mutant == Mutant::drop_msync && !kill_trial(0, 4).infra_ok) {
    GTEST_SKIP() << "fixed-base mmap unavailable in this environment";
  }
  int caught = 0;
  {
    MutantScope scope(row.mutant);
    for (int i = 0; i < row.budget && caught == 0; ++i) {
      if (row.point(i) > 0) caught = i + 1;
    }
  }
  std::printf("mutant %s: %s first caught at point %d of %d\n", row.name,
              row.verifier, caught, row.budget);
  std::fflush(stdout);  // before forking kill children that might flush it
  EXPECT_GT(caught, 0) << row.name << " went undetected";

  ASSERT_TRUE(pmem::crash::mutated(Mutant::none));
  for (int i = 0; i < row.budget; ++i) {
    ASSERT_EQ(row.point(i), 0) << row.name << ": unmutated point " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Mutants, MutantRow, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

TEST(MutantScope, RestoresNoneWhenTheBodyThrows) {
  EXPECT_THROW(
      {
        MutantScope scope(Mutant::drop_pfence);
        EXPECT_TRUE(pmem::crash::mutated(Mutant::drop_pfence));
        throw std::runtime_error("body failed");
      },
      std::runtime_error);
  EXPECT_TRUE(pmem::crash::mutated(Mutant::none));
}

// One scripted op on fresh state from `make`, counted.
template <typename Make, typename Op>
std::function<Counters()> counted(Make make, Op op) {
  return [=] {
    auto fresh = make();
    const Counters before = pmem::counters();
    op(fresh);
    return pmem::counters() - before;
  };
}

auto structure(const char* name) {
  return [=] { return algo(name).make(); };
}

TEST(MutantElision, EachMutantRemovesExactlyItsSite) {
  using harness::fuzz_detail::RecoverySeal;
  using Ptr = std::unique_ptr<harness::Structure>;
  struct Cell16 {
    std::uint64_t a, b;
  };
  const struct {
    Mutant mutant;
    std::function<Counters()> op;
    Counters plain, mutated;  // {pwb, pfence, psync}
  } elisions[] = {
      // General DT: announce, pre_publish, post_update and commit each
      // pwb + pfence, and commit's psync.
      {Mutant::drop_pfence, counted(structure("DT"), [](Ptr& s) {
         dynamic_cast<harness::SetIface&>(*s).insert(7);
       }), {4, 4, 1}, {4, 3, 1}},
      {Mutant::drop_prepublish, counted(structure("Isb-Queue"), [](Ptr& q) {
         dynamic_cast<harness::QueueIface&>(*q).enqueue(7);
       }), {3, 4, 1}, {2, 3, 1}},
      // One pooled retire serves every scheme; each must elide it.
      {Mutant::drop_retire_persist,
       counted([] { return mem::EbrReclaimer::create<Cell16>(); },
               [](Cell16* c) { mem::EbrReclaimer::retire(c); }),
       {1, 1, 0}, {0, 0, 0}},
      {Mutant::drop_retire_persist,
       counted([] { return mem::PopReclaimer::create<Cell16>(); },
               [](Cell16* c) { mem::PopReclaimer::retire(c); }),
       {1, 1, 0}, {0, 0, 0}},
      {Mutant::drop_retire_persist,
       counted([] { return mem::HpReclaimer::create<Cell16>(); },
               [](Cell16* c) { mem::HpReclaimer::retire(c); }),
       {1, 1, 0}, {0, 0, 0}},
      // Four instructions, so chain points drawn from [1, kSealWindow]
      // can also let the seal complete.
      {Mutant::drop_recovery_fence,
       counted([] { return std::make_unique<RecoverySeal>(); },
               [](auto& seal) { seal->write(1); }),
       {2, 2, 0}, {2, 1, 0}},
  };
  static_assert(RecoverySeal::kSealWindow == 5);
  pmem::ModeGuard mode(pmem::Mode::count_only);
  for (const auto& e : elisions) {
    for (const bool mutated : {false, true}) {
      std::optional<MutantScope> scope;
      if (mutated) scope.emplace(e.mutant);
      const Counters got = e.op();
      const Counters& want = mutated ? e.mutated : e.plain;
      EXPECT_EQ(got.flushes, want.flushes) << int(e.mutant) << mutated;
      EXPECT_EQ(got.fences, want.fences) << int(e.mutant) << mutated;
      EXPECT_EQ(got.psyncs, want.psyncs) << int(e.mutant) << mutated;
    }
  }
  mem::quiesce_all();
}

}  // namespace
