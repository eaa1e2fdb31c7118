// Persistence-instruction invariants, measured in count_only mode —
// these are the deterministic properties Figures 1b/1c, 5 and 6 rest
// on: the tuned ISB placement issues strictly fewer pwbs and pbarriers
// than the general one, the read-only optimization makes find() free,
// capsule costs dominate, and counts are independent of the execution
// mode.  The golden table pins the exact counts of every registered
// structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "repro/baselines/capsules_list.hpp"
#include "repro/baselines/log_queue.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/harness/registry.hpp"
#include "repro/pmem/persist.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

namespace {

using repro::baselines::CapsulesList;
using repro::baselines::LogQueue;
using repro::ds::IsbList;
using repro::ds::IsbQueue;
using repro::ds::PersistProfile;
using repro::pmem::Counters;

template <typename F>
Counters count(F&& f) {
  const Counters before = repro::pmem::counters();
  f();
  return repro::pmem::counters() - before;
}

template <typename Set>
void churn(Set& s) {
  for (std::int64_t k = 1; k <= 64; ++k) s.insert(k);
  for (std::int64_t k = 1; k <= 64; ++k) s.find(k);
  for (std::int64_t k = 1; k <= 64; ++k) s.erase(k);
}

TEST(PersistenceCounters, IsbOptimizedStrictlyCheaper) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbList general(IsbList::Config{PersistProfile::general, true});
  IsbList optimized(IsbList::Config{PersistProfile::optimized, true});
  const Counters cg = count([&] { churn(general); });
  const Counters co = count([&] { churn(optimized); });
  EXPECT_LT(co.flushes, cg.flushes);
  EXPECT_LT(co.fences, cg.fences);
  EXPECT_EQ(co.psyncs, cg.psyncs);  // one durable point per update
  EXPECT_GT(co.psyncs, 0u);
}

TEST(PersistenceCounters, ReadOnlyOptimizationMakesFindsFree) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  for (const auto profile :
       {PersistProfile::general, PersistProfile::optimized}) {
    IsbList with_opt(IsbList::Config{profile, true});
    IsbList without_opt(IsbList::Config{profile, false});
    for (std::int64_t k = 1; k <= 32; ++k) {
      with_opt.insert(k);
      without_opt.insert(k);
    }
    const Counters free_finds = count([&] {
      for (std::int64_t k = 1; k <= 32; ++k) with_opt.find(k);
    });
    EXPECT_EQ(free_finds.flushes, 0u);
    EXPECT_EQ(free_finds.fences, 0u);
    EXPECT_EQ(free_finds.psyncs, 0u);
    const Counters paid_finds = count([&] {
      for (std::int64_t k = 1; k <= 32; ++k) without_opt.find(k);
    });
    EXPECT_GT(paid_finds.flushes, 0u);
    EXPECT_GT(paid_finds.psyncs, 0u);
  }
}

TEST(PersistenceCounters, CapsulesGeneralPaysPerRead) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  CapsulesList general(CapsulesList::Variant::general);
  CapsulesList optimized(CapsulesList::Variant::optimized);
  const Counters cg = count([&] { churn(general); });
  const Counters co = count([&] { churn(optimized); });
  // The general construction checkpoints a capsule at every shared
  // read, so its traversal cost dwarfs the optimized variant's.
  EXPECT_GT(cg.flushes, 2 * co.flushes);
  EXPECT_GT(cg.fences, 2 * co.fences);
}

TEST(PersistenceCounters, IsbQueueBeatsLogQueuePerOp) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbQueue isb;
  LogQueue log;
  const Counters ci = count([&] {
    for (std::uint64_t v = 0; v < 128; ++v) isb.enqueue(v);
    for (std::uint64_t v = 0; v < 128; ++v) isb.dequeue();
  });
  const Counters cl = count([&] {
    for (std::uint64_t v = 0; v < 128; ++v) log.enqueue(v);
    for (std::uint64_t v = 0; v < 128; ++v) log.dequeue();
  });
  EXPECT_LT(ci.flushes, cl.flushes);
  // Fences are tied since the queue's persist-link-before-tail-swing
  // rule (IsbPolicy::expose) added one ordering fence per enqueue —
  // the price of staying crash-consistent when concurrent enqueuers
  // build on each other's links.
  EXPECT_LE(ci.fences, cl.fences);
}

TEST(PersistenceCounters, CountsIndependentOfMode) {
  // The same operation sequence must tally identically whether the
  // instructions execute (shared_cache / private_cache) or not
  // (count_only) — this is what makes Figures 1b/1c deterministic.
  Counters per_mode[3];
  const repro::pmem::Mode modes[3] = {repro::pmem::Mode::shared_cache,
                                      repro::pmem::Mode::private_cache,
                                      repro::pmem::Mode::count_only};
  for (int i = 0; i < 3; ++i) {
    repro::pmem::ModeGuard guard(modes[i]);
    IsbList list;
    per_mode[i] = count([&] { churn(list); });
  }
  EXPECT_EQ(per_mode[0].flushes, per_mode[1].flushes);
  EXPECT_EQ(per_mode[1].flushes, per_mode[2].flushes);
  EXPECT_EQ(per_mode[0].fences, per_mode[1].fences);
  EXPECT_EQ(per_mode[1].fences, per_mode[2].fences);
  EXPECT_EQ(per_mode[0].psyncs, per_mode[2].psyncs);
}

TEST(PersistenceCounters, PersistWordHelpers) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  repro::pmem::persist<std::uint64_t> w{0};
  const Counters c = count([&] {
    w.store_flush(1);
    w.store_persist(2);
  });
  EXPECT_EQ(w.load(), 2u);
  EXPECT_EQ(c.flushes, 2u);
  EXPECT_EQ(c.fences, 1u);
}

TEST(PersistenceCounters, PersistCasAndCasWeak) {
  repro::pmem::persist<std::uint64_t> w{5};
  std::uint64_t expected = 4;
  EXPECT_FALSE(w.cas(expected, 9));
  EXPECT_EQ(expected, 5u);  // failure loads the observed value
  EXPECT_TRUE(w.cas(expected, 9));
  EXPECT_EQ(w.load(), 9u);

  // cas_weak may fail spuriously but must succeed in a retry loop and
  // never lose the expected-value contract.
  expected = 9;
  while (!w.cas_weak(expected, 12)) {
    EXPECT_EQ(expected, 9u);
  }
  EXPECT_EQ(w.load(), 12u);

  // Explicit orders are accepted (the satellite API surface).
  expected = 12;
  EXPECT_TRUE(w.cas(expected, 13, std::memory_order_seq_cst,
                    std::memory_order_relaxed));
  EXPECT_EQ(w.load(), 13u);
}

// ---------------------------------------------------------------------
// Golden counts: a fixed one-thread script in count_only mode over every
// registry entry, with pwb/pfence/psync summed per (structure, op kind,
// outcome) next to the number of such ops.  A moved cell is a changed
// persistence placement (or a mis-wired registration); a deliberate
// change replaces the table with the one the failing test prints and
// names each moved cell in CHANGES.md.  Coalesced pwbs depend on
// addresses and are left out.
// ---------------------------------------------------------------------

struct GoldenRow {
  const char* structure;
  const char* op;
  bool ok;
  std::uint64_t ops, pwb, pfence, psync;
};

// clang-format off
const GoldenRow kGolden[] = {
    {"Isb", "erase", false, 71, 142, 142, 71},
    {"Isb", "erase", true, 72, 360, 360, 72},
    {"Isb", "find", false, 41, 0, 0, 0},
    {"Isb", "find", true, 41, 0, 0, 0},
    {"Isb", "insert", false, 81, 162, 162, 81},
    {"Isb", "insert", true, 94, 376, 376, 94},
    {"Isb-Opt", "erase", false, 71, 71, 142, 71},
    {"Isb-Opt", "erase", true, 72, 288, 216, 72},
    {"Isb-Opt", "find", false, 41, 0, 0, 0},
    {"Isb-Opt", "find", true, 41, 0, 0, 0},
    {"Isb-Opt", "insert", false, 81, 81, 162, 81},
    {"Isb-Opt", "insert", true, 94, 282, 282, 94},
    {"Capsules", "erase", false, 71, 959, 959, 71},
    {"Capsules", "erase", true, 72, 1490, 1490, 72},
    {"Capsules", "find", false, 41, 607, 607, 41},
    {"Capsules", "find", true, 41, 603, 603, 41},
    {"Capsules", "insert", false, 81, 1190, 1190, 81},
    {"Capsules", "insert", true, 94, 1485, 1485, 94},
    {"Capsules-Opt", "erase", false, 71, 142, 142, 71},
    {"Capsules-Opt", "erase", true, 72, 504, 504, 72},
    {"Capsules-Opt", "find", false, 41, 82, 82, 41},
    {"Capsules-Opt", "find", true, 41, 82, 82, 41},
    {"Capsules-Opt", "insert", false, 81, 162, 162, 81},
    {"Capsules-Opt", "insert", true, 94, 376, 376, 94},
    {"DT-Opt", "erase", false, 71, 71, 142, 71},
    {"DT-Opt", "erase", true, 72, 288, 360, 72},
    {"DT-Opt", "find", false, 41, 41, 82, 41},
    {"DT-Opt", "find", true, 41, 41, 82, 41},
    {"DT-Opt", "insert", false, 81, 81, 162, 81},
    {"DT-Opt", "insert", true, 94, 282, 376, 94},
    {"DT", "erase", false, 71, 142, 142, 71},
    {"DT", "erase", true, 72, 360, 360, 72},
    {"DT", "find", false, 41, 82, 82, 41},
    {"DT", "find", true, 41, 82, 82, 41},
    {"DT", "insert", false, 81, 162, 162, 81},
    {"DT", "insert", true, 94, 376, 376, 94},
    {"Harris-LL", "erase", false, 71, 0, 0, 0},
    {"Harris-LL", "erase", true, 72, 72, 72, 0},
    {"Harris-LL", "find", false, 41, 0, 0, 0},
    {"Harris-LL", "find", true, 41, 0, 0, 0},
    {"Harris-LL", "insert", false, 81, 0, 0, 0},
    {"Harris-LL", "insert", true, 94, 0, 0, 0},
    {"Harris-LL-leak", "erase", false, 71, 0, 0, 0},
    {"Harris-LL-leak", "erase", true, 72, 0, 0, 0},
    {"Harris-LL-leak", "find", false, 41, 0, 0, 0},
    {"Harris-LL-leak", "find", true, 41, 0, 0, 0},
    {"Harris-LL-leak", "insert", false, 81, 0, 0, 0},
    {"Harris-LL-leak", "insert", true, 94, 0, 0, 0},
    {"Isb-leak", "erase", false, 71, 142, 142, 71},
    {"Isb-leak", "erase", true, 72, 288, 288, 72},
    {"Isb-leak", "find", false, 41, 0, 0, 0},
    {"Isb-leak", "find", true, 41, 0, 0, 0},
    {"Isb-leak", "insert", false, 81, 162, 162, 81},
    {"Isb-leak", "insert", true, 94, 376, 376, 94},
    {"Isb-noROopt", "erase", false, 71, 142, 142, 71},
    {"Isb-noROopt", "erase", true, 72, 360, 360, 72},
    {"Isb-noROopt", "find", false, 41, 82, 82, 41},
    {"Isb-noROopt", "find", true, 41, 82, 82, 41},
    {"Isb-noROopt", "insert", false, 81, 162, 162, 81},
    {"Isb-noROopt", "insert", true, 94, 376, 376, 94},
    {"Isb-Opt-noROopt", "erase", false, 71, 71, 142, 71},
    {"Isb-Opt-noROopt", "erase", true, 72, 288, 216, 72},
    {"Isb-Opt-noROopt", "find", false, 41, 41, 82, 41},
    {"Isb-Opt-noROopt", "find", true, 41, 41, 82, 41},
    {"Isb-Opt-noROopt", "insert", false, 81, 81, 162, 81},
    {"Isb-Opt-noROopt", "insert", true, 94, 282, 282, 94},
    {"Isb-HashMap", "erase", false, 71, 148, 148, 71},
    {"Isb-HashMap", "erase", true, 72, 379, 379, 72},
    {"Isb-HashMap", "find", false, 41, 0, 0, 0},
    {"Isb-HashMap", "find", true, 41, 13, 13, 0},
    {"Isb-HashMap", "insert", false, 81, 162, 162, 81},
    {"Isb-HashMap", "insert", true, 94, 384, 384, 94},
    {"Isb-HashMap-Opt", "erase", false, 71, 77, 148, 71},
    {"Isb-HashMap-Opt", "erase", true, 72, 307, 235, 72},
    {"Isb-HashMap-Opt", "find", false, 41, 0, 0, 0},
    {"Isb-HashMap-Opt", "find", true, 41, 13, 13, 0},
    {"Isb-HashMap-Opt", "insert", false, 81, 81, 162, 81},
    {"Isb-HashMap-Opt", "insert", true, 94, 290, 290, 94},
    {"DT-HashMap", "erase", false, 71, 148, 148, 71},
    {"DT-HashMap", "erase", true, 72, 379, 379, 72},
    {"DT-HashMap", "find", false, 41, 82, 82, 41},
    {"DT-HashMap", "find", true, 41, 95, 95, 41},
    {"DT-HashMap", "insert", false, 81, 162, 162, 81},
    {"DT-HashMap", "insert", true, 94, 384, 384, 94},
    {"Harris-HashMap", "erase", false, 71, 0, 0, 0},
    {"Harris-HashMap", "erase", true, 72, 72, 72, 0},
    {"Harris-HashMap", "find", false, 41, 0, 0, 0},
    {"Harris-HashMap", "find", true, 41, 0, 0, 0},
    {"Harris-HashMap", "insert", false, 81, 0, 0, 0},
    {"Harris-HashMap", "insert", true, 94, 0, 0, 0},
    {"Isb-List-HP", "erase", false, 71, 142, 142, 71},
    {"Isb-List-HP", "erase", true, 72, 360, 360, 72},
    {"Isb-List-HP", "find", false, 41, 0, 0, 0},
    {"Isb-List-HP", "find", true, 41, 0, 0, 0},
    {"Isb-List-HP", "insert", false, 81, 162, 162, 81},
    {"Isb-List-HP", "insert", true, 94, 376, 376, 94},
    {"Isb-List-POP", "erase", false, 71, 142, 142, 71},
    {"Isb-List-POP", "erase", true, 72, 360, 360, 72},
    {"Isb-List-POP", "find", false, 41, 0, 0, 0},
    {"Isb-List-POP", "find", true, 41, 0, 0, 0},
    {"Isb-List-POP", "insert", false, 81, 162, 162, 81},
    {"Isb-List-POP", "insert", true, 94, 376, 376, 94},
    {"Isb-Queue-HP", "dequeue", false, 5, 5, 10, 5},
    {"Isb-Queue-HP", "dequeue", true, 187, 561, 561, 187},
    {"Isb-Queue-HP", "enqueue", true, 208, 624, 832, 208},
    {"Isb-Queue-POP", "dequeue", false, 5, 5, 10, 5},
    {"Isb-Queue-POP", "dequeue", true, 187, 561, 561, 187},
    {"Isb-Queue-POP", "enqueue", true, 208, 624, 832, 208},
    {"DT-HashMap-HP", "erase", false, 71, 148, 148, 71},
    {"DT-HashMap-HP", "erase", true, 72, 379, 379, 72},
    {"DT-HashMap-HP", "find", false, 41, 82, 82, 41},
    {"DT-HashMap-HP", "find", true, 41, 95, 95, 41},
    {"DT-HashMap-HP", "insert", false, 81, 162, 162, 81},
    {"DT-HashMap-HP", "insert", true, 94, 384, 384, 94},
    {"DT-HashMap-POP", "erase", false, 71, 148, 148, 71},
    {"DT-HashMap-POP", "erase", true, 72, 379, 379, 72},
    {"DT-HashMap-POP", "find", false, 41, 82, 82, 41},
    {"DT-HashMap-POP", "find", true, 41, 95, 95, 41},
    {"DT-HashMap-POP", "insert", false, 81, 162, 162, 81},
    {"DT-HashMap-POP", "insert", true, 94, 384, 384, 94},
    {"Isb-Queue", "dequeue", false, 5, 5, 10, 5},
    {"Isb-Queue", "dequeue", true, 187, 561, 561, 187},
    {"Isb-Queue", "enqueue", true, 208, 624, 832, 208},
    {"Log-Queue", "dequeue", false, 5, 10, 10, 5},
    {"Log-Queue", "dequeue", true, 187, 748, 748, 187},
    {"Log-Queue", "enqueue", true, 208, 624, 624, 208},
    {"Capsules-General", "dequeue", false, 5, 15, 15, 5},
    {"Capsules-General", "dequeue", true, 187, 1122, 1122, 187},
    {"Capsules-General", "enqueue", true, 208, 1040, 1040, 208},
    {"Capsules-Normal", "dequeue", false, 5, 15, 15, 5},
    {"Capsules-Normal", "dequeue", true, 187, 1496, 1496, 187},
    {"Capsules-Normal", "enqueue", true, 208, 1456, 1456, 208},
    {"MS-Queue", "dequeue", false, 5, 0, 0, 0},
    {"MS-Queue", "dequeue", true, 187, 187, 187, 0},
    {"MS-Queue", "enqueue", true, 208, 0, 0, 0},
    {"MS-Queue-leak", "dequeue", false, 5, 0, 0, 0},
    {"MS-Queue-leak", "dequeue", true, 187, 0, 0, 0},
    {"MS-Queue-leak", "enqueue", true, 208, 0, 0, 0},
    {"Bst-Isb", "erase", false, 71, 142, 142, 71},
    {"Bst-Isb", "erase", true, 72, 216, 216, 72},
    {"Bst-Isb", "find", false, 41, 0, 0, 0},
    {"Bst-Isb", "find", true, 41, 0, 0, 0},
    {"Bst-Isb", "insert", false, 81, 162, 162, 81},
    {"Bst-Isb", "insert", true, 94, 376, 282, 94},
    {"Bst-Isb-Opt", "erase", false, 71, 71, 142, 71},
    {"Bst-Isb-Opt", "erase", true, 72, 144, 144, 72},
    {"Bst-Isb-Opt", "find", false, 41, 0, 0, 0},
    {"Bst-Isb-Opt", "find", true, 41, 0, 0, 0},
    {"Bst-Isb-Opt", "insert", false, 81, 81, 162, 81},
    {"Bst-Isb-Opt", "insert", true, 94, 188, 188, 94},
    {"DT-SkipList", "erase", false, 71, 220, 220, 71},
    {"DT-SkipList", "erase", true, 72, 312, 312, 72},
    {"DT-SkipList", "find", false, 41, 42, 42, 0},
    {"DT-SkipList", "find", true, 41, 57, 57, 0},
    {"DT-SkipList", "insert", false, 81, 256, 256, 81},
    {"DT-SkipList", "insert", true, 94, 385, 385, 94},
    {"DT-Treiber", "pop", false, 5, 10, 10, 5},
    {"DT-Treiber", "pop", true, 187, 748, 748, 187},
    {"DT-Treiber", "push", true, 208, 624, 624, 208},
    {"DT-Elimination", "pop", false, 5, 10, 10, 5},
    {"DT-Elimination", "pop", true, 187, 748, 748, 187},
    {"DT-Elimination", "push", true, 208, 624, 624, 208},
    {"Isb-Exchanger", "exchange", false, 400, 2000, 2400, 400},
};
// clang-format on

std::string golden_line(const GoldenRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", \"%s\", %s, %llu, %llu, %llu, %llu},\n",
                r.structure, r.op, r.ok ? "true" : "false",
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.pwb),
                static_cast<unsigned long long>(r.pfence),
                static_cast<unsigned long long>(r.psync));
  return buf;
}

// The script: 400 operations drawn from a fixed LCG — sets get a
// 40/40/20 insert/erase/find mix over 48 keys, queues and stacks an
// even mix of inserts and removals starting empty, the exchanger
// partnerless exchanges.  Returns the entry's rows in source format.
std::string golden_rows(const repro::harness::AlgoEntry& e) {
  namespace h = repro::harness;
#if defined(__SANITIZE_ADDRESS__)
  // The no-reclaim ablations leak by design; their counts still belong
  // in the table.
  std::optional<__lsan::ScopedDisabler> leaks_by_design;
  if (e.has_trait("no-reclaim")) leaks_by_design.emplace();
#endif
  std::map<std::pair<std::string, bool>, GoldenRow> rows;
  const std::unique_ptr<h::Structure> s = e.make();
  std::uint64_t x = 0x60D1E5ull;
  auto draw = [&x](std::uint64_t n) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return (x >> 33) % n;
  };
  auto run = [&](const char* op, auto&& fn) {
    const Counters before = repro::pmem::counters();
    const bool ok = fn();
    const Counters c = repro::pmem::counters() - before;
    GoldenRow& r = rows.try_emplace({op, ok}, GoldenRow{e.name.c_str(), op,
                                                        ok, 0, 0, 0, 0})
                       .first->second;
    ++r.ops;
    r.pwb += c.flushes;
    r.pfence += c.fences;
    r.psync += c.psyncs;
  };
  for (std::uint64_t i = 1; i <= 400; ++i) {
    std::uint64_t out = 0;
    if (auto* set = dynamic_cast<h::SetIface*>(s.get())) {
      const auto k = static_cast<std::int64_t>(1 + draw(48));
      const std::uint64_t dice = draw(10);
      if (dice < 4) {
        run("insert", [&] { return set->insert(k); });
      } else if (dice < 8) {
        run("erase", [&] { return set->erase(k); });
      } else {
        run("find", [&] { return set->find(k); });
      }
    } else if (auto* q = dynamic_cast<h::QueueIface*>(s.get())) {
      if (draw(2) == 0) {
        run("enqueue", [&] { return q->enqueue(i), true; });
      } else {
        run("dequeue", [&] { return q->dequeue(out); });
      }
    } else if (auto* st = dynamic_cast<h::StackIface*>(s.get())) {
      if (draw(2) == 0) {
        run("push", [&] { return st->push(i), true; });
      } else {
        run("pop", [&] { return st->pop(out); });
      }
    } else if (auto* ex = dynamic_cast<h::ExchangerIface*>(s.get())) {
      run("exchange", [&] { return ex->exchange(i, 4, out); });
    }
  }
  std::string text;
  for (const auto& [key, row] : rows) text += golden_line(row);
  return text;
}

TEST(PersistenceCounters, GoldenCountsPerStructureOpAndOutcome) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  std::string expected, actual;
  for (const GoldenRow& r : kGolden) expected += golden_line(r);
  for (const auto& e : repro::harness::Registry::instance().entries()) {
    actual += golden_rows(e);
  }
  if (actual != expected) {
    std::printf("The golden table this tree produces:\n%s", actual.c_str());
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
