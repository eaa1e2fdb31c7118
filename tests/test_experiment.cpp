// The experiment-engine API: registry lookup and trait filtering, grid
// expansion of known specs, golden CSV / JSON-lines sink output, the
// Zipfian picker's skew, and crash-fuzz points run through the driver
// (zero violations, the plan's seed and the recovery latency stamped
// on the row).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "repro/harness/experiment.hpp"
#include "repro/harness/registry.hpp"
#include "repro/harness/sinks.hpp"
#include "repro/harness/workload.hpp"
#include "repro/pmem/persist.hpp"

namespace {

using namespace repro::harness;

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Registry, FindsPaperNames) {
  const Registry& reg = Registry::instance();
  const AlgoEntry* isb = reg.find("Isb");
  ASSERT_NE(isb, nullptr);
  EXPECT_EQ(isb->kind, Kind::set);
  EXPECT_TRUE(isb->has_trait("detectable"));
  EXPECT_TRUE(isb->has_trait("paper-list"));
  EXPECT_TRUE(isb->has_trait("set"));  // the kind name counts as a trait

  const AlgoEntry* q = reg.find("Isb-Queue");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->kind, Kind::queue);

  EXPECT_EQ(reg.find("No-Such-Algo"), nullptr);
}

TEST(Registry, TraitSelectionMatchesPaperSeries) {
  const Registry& reg = Registry::instance();
  const auto lists = reg.select("trait:paper-list");
  ASSERT_EQ(lists.size(), 5u);  // Isb, Isb-Opt, Capsules, Capsules-Opt, DT-Opt
  for (const AlgoEntry* e : lists) EXPECT_EQ(e->kind, Kind::set);

  const auto queues = reg.select("trait:paper-queue");
  EXPECT_EQ(queues.size(), 4u);

  EXPECT_TRUE(reg.select("trait:no-such-trait").empty());
}

TEST(Registry, GlobSelection) {
  const Registry& reg = Registry::instance();
  const auto isbs = reg.select("Isb*");
  // Isb, Isb-Opt, Isb-noROopt, Isb-Opt-noROopt, Isb-HashMap,
  // Isb-HashMap-Opt, Isb-Queue, Isb-Exchanger, Isb-leak (the
  // no-reclaim ablation), plus the reclaimer matrix's Isb-List-HP/POP
  // and Isb-Queue-HP/POP
  EXPECT_EQ(isbs.size(), 13u);
  // Isb-Queue, Log-Queue, MS-Queue
  EXPECT_EQ(reg.select("*-Queue").size(), 3u);
  EXPECT_TRUE(glob_match("*Queue", "MS-Queue"));
  EXPECT_FALSE(glob_match("*Queue", "MS-Queued"));
}

TEST(Registry, KindSelectorMatchesKindName) {
  const Registry& reg = Registry::instance();
  const auto sets = reg.select("kind:set");
  EXPECT_FALSE(sets.empty());
  for (const AlgoEntry* e : sets) EXPECT_EQ(e->kind, Kind::set);
  const auto queues = reg.select("kind:queue");
  EXPECT_FALSE(queues.empty());
  for (const AlgoEntry* e : queues) EXPECT_EQ(e->kind, Kind::queue);
  EXPECT_TRUE(reg.select("kind:no-such-kind").empty());
  // `kind:` filters the Kind enum; `trait:` counts the kind name among
  // the traits too (has_trait), so trait:set is a superset of kind:set
  // only in spelling — they agree on membership.
  EXPECT_EQ(reg.select("trait:set").size(), sets.size());
}

TEST(Registry, AmpersandComposesAtomsConjunctively) {
  const Registry& reg = Registry::instance();
  // All six hash maps (5 detectable + the volatile baseline)…
  const auto all_hm = reg.select("trait:hashmap");
  ASSERT_EQ(all_hm.size(), 6u);
  // …every one of them is a set, so kind:set must not narrow it…
  EXPECT_EQ(reg.select("trait:hashmap&kind:set").size(), 6u);
  // …but trait:detectable must drop the Harris baseline.
  const auto det_hm = reg.select("trait:detectable&trait:hashmap");
  ASSERT_EQ(det_hm.size(), 5u);
  for (const AlgoEntry* e : det_hm) {
    EXPECT_TRUE(e->has_trait("detectable")) << e->name;
    EXPECT_TRUE(e->has_trait("hashmap")) << e->name;
  }
  // Globs compose too, and an unsatisfiable conjunction is empty.
  EXPECT_EQ(reg.select("Isb*&trait:hashmap").size(), 2u);
  EXPECT_TRUE(reg.select("trait:hashmap&kind:queue").empty());
}

TEST(Registry, SelectAllDeduplicatesPreservingOrder) {
  const Registry& reg = Registry::instance();
  const auto sel = reg.select_all({"Isb", "trait:paper-list"});
  ASSERT_EQ(sel.size(), 5u);
  EXPECT_EQ(sel[0]->name, "Isb");
}

TEST(Registry, SelectAllDedupsHeavilyOverlappingSelectors) {
  // Every selector here re-matches entries earlier ones already kept
  // (the worst case for the old quadratic every-entry-against-every-
  // kept scan, now a pointer-set membership check): the union must
  // contain each entry exactly once, led by the first selector's
  // matches in registry order.
  const Registry& reg = Registry::instance();
  const auto sel = reg.select_all({"trait:detectable", "Isb*", "Isb",
                                   "trait:set", "trait:detectable",
                                   "*-Queue", "trait:queue"});
  std::vector<const AlgoEntry*> uniq(sel.begin(), sel.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  EXPECT_EQ(uniq.size(), sel.size()) << "duplicates in select_all";
  // Order: the first selector's matches lead, in registry order.
  const auto first = reg.select("trait:detectable");
  ASSERT_LE(first.size(), sel.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(sel[i], first[i]) << i;
  }
  // Completeness: everything any selector matched is present once.
  for (const char* s : {"Isb*", "*-Queue", "trait:set"}) {
    for (const AlgoEntry* e : reg.select(s)) {
      EXPECT_EQ(std::count(sel.begin(), sel.end(), e), 1) << e->name;
    }
  }
}

TEST(Registry, DuplicateRegistrationIsIgnored) {
  Registry& reg = Registry::instance();
  const auto before = reg.entries().size();
  EXPECT_FALSE(reg.add({"Isb", Kind::set, {}, nullptr}));
  EXPECT_EQ(reg.entries().size(), before);
}

TEST(Registry, FactoriesProduceWorkingStructures) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  auto s = Registry::instance().find("Isb")->make();
  auto* set = dynamic_cast<SetIface*>(s.get());
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->detectable());
  EXPECT_TRUE(set->insert(5));
  EXPECT_TRUE(set->find(5));

  auto v = Registry::instance().find("Harris-LL")->make();
  EXPECT_FALSE(v->detectable());
}

// ---------------------------------------------------------------------
// Grid expansion
// ---------------------------------------------------------------------

TEST(Expand, SetGridIsStructuresTimesRangesTimesMixesTimesThreads) {
  ExperimentSpec spec;
  spec.structures = {"trait:paper-list"};
  spec.key_ranges = {500, 1500};
  spec.mixes = {kReadIntensive, kUpdateIntensive};
  spec.threads = {1, 2};
  EXPECT_EQ(expand(spec).size(), 5u * 2u * 2u * 2u);
}

TEST(Expand, NonSetKindsIgnoreRangeAndMixAxes) {
  ExperimentSpec spec;
  spec.structures = {"trait:paper-queue", "MS-Queue"};
  spec.key_ranges = {500, 1500};  // must not multiply queue points
  spec.threads = {1};
  const auto points = expand(spec);
  EXPECT_EQ(points.size(), 5u);
  for (const auto& p : points) EXPECT_FALSE(p.has_mix);
}

TEST(Expand, ExchangerNeedsPairs) {
  ExperimentSpec spec;
  spec.structures = {"Isb-Exchanger"};
  spec.threads = {1, 2, 4};
  EXPECT_EQ(expand(spec).size(), 2u);  // threads:1 dropped
}

TEST(Expand, CrashFuzzExpandsOnePointPerDetectableStructure) {
  ExperimentSpec spec;
  spec.structures = {"trait:paper-list"};
  spec.threads = {1, 2, 4};    // ignored: the fuzzer is single-threaded
  spec.key_ranges = {10, 20};  // ignored: it drives its own workload
  spec.crash_plan.points = 10;
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 3u);  // Isb, Isb-Opt, DT-Opt
  for (const auto& p : points) {
    EXPECT_EQ(p.threads, 1);
    EXPECT_EQ(p.mode, repro::pmem::Mode::shadow);
    EXPECT_TRUE(p.algo->has_trait("detectable"));
  }
}

TEST(Expand, UnmatchedSelectorCountsAsSpecError) {
  ExperimentSpec spec;
  spec.figure = "typo-test";
  spec.structures = {"Isb", "No-Such-Algo"};
  spec.threads = {1};
  const int before = spec_errors();
  const auto points = expand(spec);
  EXPECT_EQ(points.size(), 1u);  // the valid selector still runs
  EXPECT_EQ(spec_errors(), before + 1);
}

TEST(Expand, PointNamesFollowTheFilterShape) {
  ExperimentSpec spec;
  spec.figure = "figX";
  spec.structures = {"Isb", "Isb-Queue"};
  spec.key_ranges = {500};
  spec.mixes = {kReadIntensive};
  spec.threads = {2};
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(point_name(spec, points[0]),
            "figX/Isb/500/read-intensive/threads:2");
  EXPECT_EQ(point_name(spec, points[1]), "figX/Isb-Queue/threads:2");
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

ResultRow golden_row() {
  ResultRow row;
  row.figure = "figX";
  row.algo = "Algo";
  row.scenario = "range=500 read-intensive";
  row.mode = "count_only";
  row.dist = "uniform";
  row.key_range = 500;
  row.mix = "read-intensive";
  row.run.total_ops = 1000;
  row.run.seconds = 0.5;
  row.run.ops_per_sec = 2000;
  row.run.flushes_per_op = 2.25;
  row.run.barriers_per_op = 1.5;
  row.run.psyncs_per_op = 1;
  row.run.coalesced_pwb_per_op = 0.25;
  row.run.allocs_per_op = 0.75;
  row.run.retired_per_op = 0.5;
  row.run.reuse_ratio = 0.95;
  row.run.threads = 2;
  row.run.point_index = 7;
  row.seed = 42;
  return row;
}

TEST(Sinks, CsvGolden) {
  std::ostringstream os;
  CsvSink sink(os);
  sink.row(golden_row());
  EXPECT_EQ(
      os.str(),
      "point_index,figure,algo,mode,dist,key_range,mix,threads,seconds,"
      "total_ops,ops_per_sec,pwb_per_op,pbarrier_per_op,psync_per_op,"
      "coalesced_pwb_per_op,allocs_per_op,retired_per_op,reuse_ratio,"
      "recovery_us,seed,crash_points,crash_violations,crash_scenario,"
      "reclaimer\n"
      "7,figX,Algo,count_only,uniform,500,read-intensive,2,0.5,1000,2000,"
      "2.25,1.5,1,0.25,0.75,0.5,0.95,,42,,,,\n");
}

TEST(Sinks, CsvEmitsCrashScenarioColumn) {
  std::ostringstream os;
  CsvSink sink(os);
  ResultRow row = golden_row();
  row.crash_scenario = "repeated-crash";
  sink.row(row);
  const std::string got = os.str();
  EXPECT_NE(got.find(",,repeated-crash,\n"), std::string::npos) << got;
}

TEST(Sinks, CsvEmitsReclaimerColumn) {
  std::ostringstream os;
  CsvSink sink(os);
  ResultRow row = golden_row();
  row.reclaimer = "hp";
  sink.row(row);
  EXPECT_NE(os.str().find(",,,hp\n"), std::string::npos) << os.str();
}

TEST(Sinks, JsonlIncludesReclaimerWhenSet) {
  std::ostringstream os;
  JsonlSink sink(os);
  ResultRow row = golden_row();
  row.reclaimer = "pop";
  sink.row(row);
  EXPECT_NE(os.str().find("\"reclaimer\":\"pop\"}"),
            std::string::npos)
      << os.str();
}

TEST(Sinks, JsonlGolden) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.row(golden_row());
  EXPECT_EQ(
      os.str(),
      "{\"point_index\":7,\"figure\":\"figX\",\"algo\":\"Algo\","
      "\"mode\":\"count_only\",\"dist\":\"uniform\",\"key_range\":500,"
      "\"mix\":\"read-intensive\",\"threads\":2,\"seconds\":0.5,"
      "\"total_ops\":1000,\"ops_per_sec\":2000,\"pwb_per_op\":2.25,"
      "\"pbarrier_per_op\":1.5,\"psync_per_op\":1,"
      "\"coalesced_pwb_per_op\":0.25,\"allocs_per_op\":0.75,"
      "\"retired_per_op\":0.5,\"reuse_ratio\":0.95,\"seed\":42}\n");
}

TEST(Sinks, JsonlIncludesRecoveryLatencyWhenSet) {
  std::ostringstream os;
  JsonlSink sink(os);
  ResultRow row = golden_row();
  row.recovery_us = 12.5;
  sink.row(row);
  EXPECT_NE(os.str().find("\"recovery_us\":12.5}"), std::string::npos);
}

TEST(Sinks, JsonlIncludesCrashScenarioWhenSet) {
  std::ostringstream os;
  JsonlSink sink(os);
  ResultRow row = golden_row();
  row.crash_scenario = "thread-death";
  sink.row(row);
  EXPECT_NE(os.str().find("\"crash_scenario\":\"thread-death\"}"),
            std::string::npos)
      << os.str();
}

TEST(Sinks, RunSpecStreamsOneRowPerPoint) {
  setenv("REPRO_BENCH_MS", "5", 1);
  std::ostringstream os;
  SinkSet sinks;
  sinks.add(std::make_unique<JsonlSink>(os));
  ExperimentSpec spec;
  spec.figure = "unit";
  spec.structures = {"Harris-LL"};
  spec.key_ranges = {64};
  spec.mixes = {kReadIntensive};
  spec.threads = {1, 2};
  run_spec(spec, sinks);
  unsetenv("REPRO_BENCH_MS");
  const std::string out = os.str();
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(out.find("\"algo\":\"Harris-LL\""), std::string::npos);
  EXPECT_NE(out.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(out.find("\"figure\":\"unit\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Zipfian key distribution
// ---------------------------------------------------------------------

TEST(Zipfian, SkewsTowardLowKeys) {
  const Zipfian z(1000, 0.99);
  Rng rng(123);
  constexpr int kDraws = 200000;
  int low_decile = 0;
  int first = 0;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = z.next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    low_decile += v <= 100;
    first += v == 1;
  }
  // Under uniform keys the low decile would get ~10% and key 1 ~0.1%;
  // Zipf(0.99) concentrates ~69% and ~13% there analytically.
  EXPECT_GT(low_decile, kDraws * 55 / 100);
  EXPECT_GT(first, kDraws * 8 / 100);
}

TEST(Zipfian, OutOfRangeThetaIsClamped) {
  // theta = 1 would divide by zero in the Gray et al. form; it is
  // clamped to the strongest supported skew instead.
  const Zipfian z(1000, 1.0);
  EXPECT_DOUBLE_EQ(z.theta(), 0.999);
  Rng rng(99);
  int low_decile = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = z.next(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    low_decile += v <= 100;
  }
  EXPECT_GT(low_decile, 20000 * 55 / 100);
  EXPECT_DOUBLE_EQ(Zipfian(1000, -2.0).theta(), 0.001);
}

TEST(Zipfian, WorkloadConstructorWiresTheDistribution) {
  const Workload w(1000, kReadIntensive, KeyDist::zipfian);
  Rng rng(7);
  int low = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto k = w.pick_key(rng);
    ASSERT_GE(k, 1);
    ASSERT_LE(k, 1000);
    low += k <= 100;
  }
  EXPECT_GT(low, 10000 * 55 / 100);

  // Aggregate initialisation stays uniform.
  const Workload u{1000, kReadIntensive};
  EXPECT_EQ(u.dist, KeyDist::uniform);
}

// ---------------------------------------------------------------------
// Crash-point fuzzing through the experiment driver
// ---------------------------------------------------------------------

TEST(Crash, FuzzPointRunsCleanAndStampsTheRow) {
  ExperimentSpec spec;
  spec.figure = "fuzz-unit";
  spec.structures = {"Isb"};
  spec.crash_plan.points = 40;
  spec.crash_plan.seed = 7;
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 1u);
  const int before = crash_failures();
  const ResultRow row = run_point(spec, points[0]);
  EXPECT_EQ(crash_failures(), before);  // no violations
  EXPECT_EQ(row.crash_points, 40);
  EXPECT_EQ(row.crash_violations, 0);
  EXPECT_EQ(row.seed, 7u);  // the crash plan's seed stamps the row
  EXPECT_GT(row.run.total_ops, 0u);
}

TEST(Crash, RunPointEmitsRecoveryLatency) {
  ExperimentSpec spec;
  spec.figure = "crash-unit-row";
  spec.structures = {"Isb-Queue"};
  spec.crash_plan.points = 20;
  spec.crash_plan.seed = 11;
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 1u);
  const int failures_before = crash_failures();
  const ResultRow row = run_point(spec, points[0]);
  EXPECT_GE(row.recovery_us, 0.0);  // -1 (n/a) unless a point crashed
  EXPECT_EQ(crash_failures(), failures_before);  // no violations
}

}  // namespace
