// The memory subsystem: pool cell sizes, fresh-cell striping, the
// recycle order, slab alignment and reuse accounting, EBR grace-period
// correctness under both a deterministic pin and a concurrent
// retire/reuse stress (canary values catch premature reclamation;
// TSan/ASan catch it as a race/use-after-free), the bounded-RSS
// property an update-only churn must keep, pwb coalescing windows, the
// slab directory's ownership table (against a linear scan, and under
// concurrent registration), the queue, list and map durable walks
// refusing links outside the pool, and recover() safety on descriptors
// whose nodes were pool-recycled.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/ds/harris_core.hpp"
#include "repro/ds/hm_hashtable.hpp"
#include "repro/ds/msqueue_core.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/workload.hpp"
#include "repro/mem/ebr.hpp"
#include "repro/mem/hp.hpp"
#include "repro/mem/pool.hpp"
#include "repro/mem/pop.hpp"
#include "repro/pmem/persist.hpp"

namespace {

using repro::mem::EbrReclaimer;
using repro::mem::EpochDomain;
using repro::mem::kCacheLine;
using repro::mem::NodePool;
using repro::mem::outstanding_blocks;
using repro::mem::Stats;

constexpr std::uint64_t kAlive = 0xA11CEull;  // not 8-aligned: can never
                                              // collide with a free-list
                                              // pointer overlaying the cell

// Canary node: constructed alive, its destructor marks the cell dead —
// a reader holding an epoch guard must never observe anything but
// kAlive through a pointer it loaded while pinned.
struct CanaryNode {
  explicit CanaryNode(std::uint64_t v) : value(v) {}
  ~CanaryNode() { value.store(0xDEADull, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> value;
};

// Separate type so alignment assertions get their own pool.
struct alignas(64) WideNode {
  explicit WideNode(int v) : tag(v) {}
  int tag;
  char pad[60];
};

TEST(Pool, SlabAlignmentAndDistinctCells) {
  auto& pool = NodePool<WideNode>::instance();
  constexpr int kN = 300;  // spans more than one 64 KiB slab
  std::vector<WideNode*> nodes;
  for (int i = 0; i < kN; ++i) nodes.push_back(pool.create(i));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(nodes[i]) % 64, 0u)
        << "cell " << i << " violates alignas(64)";
    EXPECT_EQ(nodes[i]->tag, i);
    for (int j = i + 1; j < kN; ++j) EXPECT_NE(nodes[i], nodes[j]);
  }
  EXPECT_GE(pool.slab_count(), 1u);
  for (WideNode* n : nodes) pool.destroy(n);
}

TEST(Pool, ReuseAccountingAndOutstanding) {
  auto& pool = NodePool<CanaryNode>::instance();
  const Stats s0 = repro::mem::stats();
  const std::int64_t out0 = outstanding_blocks();
  constexpr int kN = 500;

  std::vector<CanaryNode*> nodes;
  for (int i = 0; i < kN; ++i) nodes.push_back(pool.create(kAlive));
  EXPECT_EQ(repro::mem::stats().allocs, s0.allocs + kN);
  EXPECT_EQ(outstanding_blocks(), out0 + kN);

  for (CanaryNode* n : nodes) pool.destroy(n);
  EXPECT_EQ(outstanding_blocks(), out0);

  // A second wave must be served entirely from the free list.
  nodes.clear();
  for (int i = 0; i < kN; ++i) nodes.push_back(pool.create(kAlive));
  EXPECT_GE(repro::mem::stats().reuses, s0.reuses + kN);
  EXPECT_EQ(repro::mem::stats().allocs, s0.allocs + 2 * kN);
  for (CanaryNode* n : nodes) pool.destroy(n);
}

TEST(Ebr, GracePeriodBlocksReclaimWhilePinned) {
  EpochDomain& dom = EpochDomain::instance();
  dom.quiesce();
  ASSERT_EQ(dom.limbo_size(), 0u);

  CanaryNode* n = NodePool<CanaryNode>::instance().create(kAlive);
  {
    EpochDomain::Guard guard;
    EbrReclaimer::retire<CanaryNode>(n);
    EXPECT_EQ(dom.limbo_size(), 1u);
    // With this thread pinned, the epoch can advance at most once, so
    // the retired node's two-epoch grace period cannot elapse.
    for (int i = 0; i < 10; ++i) dom.try_advance();
    EXPECT_EQ(dom.limbo_size(), 1u);
    EXPECT_EQ(n->value.load(std::memory_order_relaxed), kAlive)
        << "node reclaimed while a guard was pinned";
  }
  // Unpinned: the grace period can be forced to elapse.
  const Stats before = repro::mem::stats();
  dom.quiesce();
  EXPECT_EQ(dom.limbo_size(), 0u);
  EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims + 1);
}

// Writers publish fresh canary nodes into a shared slot and retire what
// they displace; pinned readers must only ever observe live cells.
// Premature reclamation shows up as a dead canary here, and as a data
// race / use-after-free under the TSan and ASan CI jobs (the free-list
// link is written over the canary word).
TEST(Ebr, ConcurrentRetireReuseStress) {
  std::atomic<CanaryNode*> slot{
      NodePool<CanaryNode>::instance().create(kAlive)};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reclaims{0};

  std::vector<std::thread> ws;
  for (int w = 0; w < 2; ++w) {
    ws.emplace_back([&] {
      const Stats s0 = repro::mem::stats();
      for (int i = 0; i < 30000; ++i) {
        EpochDomain::Guard guard;
        CanaryNode* fresh = NodePool<CanaryNode>::instance().create(kAlive);
        CanaryNode* old = slot.exchange(fresh, std::memory_order_acq_rel);
        EbrReclaimer::retire<CanaryNode>(old);
      }
      reclaims.fetch_add(repro::mem::stats().reclaims - s0.reclaims);
    });
  }
  for (int r = 0; r < 2; ++r) {
    ws.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochDomain::Guard guard;
        CanaryNode* p = slot.load(std::memory_order_acquire);
        ASSERT_EQ(p->value.load(std::memory_order_relaxed), kAlive)
            << "reader observed a reclaimed cell";
      }
    });
  }
  ws[0].join();
  ws[1].join();
  stop.store(true, std::memory_order_release);
  ws[2].join();
  ws[3].join();

  // Reclamation genuinely ran (nodes cycled through limbo back to the
  // pool), it just never outran a pinned reader.
  EXPECT_GT(reclaims.load(), 0u);
  EbrReclaimer::destroy<CanaryNode>(
      slot.load(std::memory_order_acquire));
}

// The chained-recovery regression: crash-engine iterations wrap every
// recovery link in a ReclaimPause, and the FINAL resume must drain
// what the pause parked — before the fix, resume_reclaim() only
// decremented the nesting depth, so a chain's whole retire footprint
// sat in limbo until some later iteration's retire tick.
TEST(Ebr, FinalResumeDrainsRipeLimboParkedDuringPause) {
  EpochDomain& dom = EpochDomain::instance();
  dom.quiesce();
  ASSERT_EQ(dom.limbo_size(), 0u);

  constexpr std::size_t kN = 10;
  for (std::size_t i = 0; i < kN; ++i) {
    EbrReclaimer::retire<CanaryNode>(
        NodePool<CanaryNode>::instance().create(kAlive));
  }
  ASSERT_EQ(dom.limbo_size(), kN);
  // Let the grace period elapse while nothing runs a reclaim sweep:
  // the nodes are ripe but parked.
  dom.try_advance();
  dom.try_advance();

  const Stats before = repro::mem::stats();
  dom.pause_reclaim();
  dom.pause_reclaim();   // nested: a crash landing inside recover()
  dom.resume_reclaim();  // inner resume must NOT drain
  EXPECT_EQ(dom.limbo_size(), kN);
  EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims);
  dom.resume_reclaim();  // final resume drains the parked nodes
  EXPECT_EQ(dom.limbo_size(), 0u);
  EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims + kN);
}

// While paused, a retire tick must neither advance the epoch nor
// recycle a cell — the crash engine relies on rewound durable links
// staying bit-intact (never re-initialised by a pool reuse) while the
// post-crash image is verified, across every link of a crash chain.
TEST(Ebr, PausedRetireTicksParkNodesWithoutRecycling) {
  using repro::mem::kAdvanceEvery;
  EpochDomain& dom = EpochDomain::instance();
  dom.quiesce();
  ASSERT_EQ(dom.limbo_size(), 0u);
  const std::uint64_t e0 = dom.epoch();

  std::vector<CanaryNode*> nodes;
  {
    repro::mem::ReclaimPause pause;
    // Enough retires that the kAdvanceEvery tick fires repeatedly
    // under the pause.
    for (int i = 0; i < 2 * kAdvanceEvery; ++i) {
      CanaryNode* n = NodePool<CanaryNode>::instance().create(kAlive);
      nodes.push_back(n);
      EbrReclaimer::retire<CanaryNode>(n);
    }
    EXPECT_EQ(dom.limbo_size(), nodes.size());
    EXPECT_EQ(dom.epoch(), e0) << "epoch advanced under pause";
    for (CanaryNode* n : nodes) {
      ASSERT_EQ(n->value.load(std::memory_order_relaxed), kAlive)
          << "cell recycled while reclamation was paused";
    }
  }
  // Pause scope ended (final resume); the epoch moves again and a
  // quiesce reclaims everything the pause parked.
  dom.quiesce();
  EXPECT_EQ(dom.limbo_size(), 0u);
}

// The ReclaimPause-bypass regression (this PR's bugfix): retire()'s
// stale-limbo drain ran unconditionally, even while reclamation was
// paused.  Force the epoch/index collision — retire a node at epoch e,
// advance the epoch by kEpochLists so the next retire hashes to the
// *same* limbo list (whose recorded epoch is now stale), then retire
// under a pause.  Pre-fix, the drain recycled the first node in the
// middle of the pause (the crash engine could see a rewound durable
// link re-initialised under its verification walk); post-fix the stale
// items are parked and the final resume frees them.
TEST(Ebr, StaleLimboDrainRespectsReclaimPause) {
  EpochDomain& dom = EpochDomain::instance();
  dom.quiesce();
  ASSERT_EQ(dom.limbo_size(), 0u);

  CanaryNode* first = NodePool<CanaryNode>::instance().create(kAlive);
  EbrReclaimer::retire<CanaryNode>(first);
  ASSERT_EQ(dom.limbo_size(), 1u);

  // Advance by exactly kEpochLists: the next retire's limbo index
  // collides with `first`'s list.
  const std::uint64_t e0 = dom.epoch();
  for (int i = 0; i < repro::mem::kEpochLists; ++i) {
    ASSERT_TRUE(dom.try_advance()) << "advance " << i;
  }
  ASSERT_EQ(dom.epoch(), e0 + repro::mem::kEpochLists);

  const Stats before = repro::mem::stats();
  dom.pause_reclaim();
  CanaryNode* second = NodePool<CanaryNode>::instance().create(kAlive);
  EbrReclaimer::retire<CanaryNode>(second);  // stale-drain path, paused
  EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims)
      << "the stale-limbo drain recycled a cell during a ReclaimPause";
  EXPECT_EQ(first->value.load(std::memory_order_relaxed), kAlive)
      << "pause bypass: first node reclaimed mid-pause";
  // `first` parked + `second` in limbo.
  EXPECT_EQ(dom.limbo_size(), 2u);

  dom.resume_reclaim();  // final resume frees what the pause parked
  EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims + 1);
  dom.quiesce();
  EXPECT_EQ(dom.limbo_size(), 0u);
}

// Per-thread-death support: the crash driver resets a dead lane's
// slot before a fresh thread adopts it, so an abandoned pin cannot
// stall epoch advancement forever.
TEST(Ebr, ResetSlotPinUnblocksAdvancement) {
  EpochDomain& dom = EpochDomain::instance();
  dom.quiesce();

  std::atomic<int> slot{-1};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread th([&] {
    EpochDomain::Guard guard;
    slot.store(repro::ds::thread_slot(), std::memory_order_relaxed);
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
    }
  });
  while (!pinned.load(std::memory_order_acquire)) {
  }

  // The parked slot announces the pre-advance epoch: the first
  // advance can succeed, the second must stall on it.
  dom.try_advance();
  EXPECT_FALSE(dom.try_advance())
      << "a parked pin should stall the second advance";

  dom.reset_slot_pin(slot.load(std::memory_order_relaxed));
  EXPECT_TRUE(dom.try_advance())
      << "reset_slot_pin should unblock advancement";

  // Out-of-range slots are ignored (the adoption path passes whatever
  // slot index the dead lane recorded).
  dom.reset_slot_pin(-1);
  dom.reset_slot_pin(repro::ds::kMaxThreads);

  release.store(true, std::memory_order_release);
  th.join();
}

// The leak ablation keeps the seed's semantics: counted, never
// recycled.
TEST(Ebr, LeakReclaimerCountsButNeverReclaims) {
  using repro::mem::LeakReclaimer;
  const Stats s0 = repro::mem::stats();
  auto* n = LeakReclaimer::create<CanaryNode>(kAlive);
  LeakReclaimer::retire<CanaryNode>(n);
  const Stats d = repro::mem::stats() - s0;
  EXPECT_EQ(d.allocs, 1u);
  EXPECT_EQ(d.retires, 1u);
  EXPECT_EQ(d.reuses, 0u);
  EXPECT_EQ(d.reclaims, 0u);
  delete n;  // the test cleans up what the ablation would leak
}

// Update-only churn: the live-cell count must stay O(key range), not
// O(operations) — the property the seed's leak-everything allocation
// lacked.  Single-threaded so the grace-period cadence is
// deterministic: the epoch advances every kAdvanceEvery retires, so
// limbo never holds more than a few advance windows.  (Multi-threaded
// reclamation progress is covered by ConcurrentRetireReuseStress; its
// residue depends on the host's scheduling, an oversubscribed box can
// park a scheduling round's worth of retires in limbo.)
TEST(Ebr, BoundedRssUnderUpdateOnlyChurn) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  EpochDomain::instance().quiesce();
  const std::int64_t out0 = outstanding_blocks();
  constexpr int kOps = 100000;  // ~50k inserts: the leak's RSS shape
  constexpr std::int64_t kRange = 128;
  {
    repro::ds::IsbList list;
    std::mt19937 rng(77u);
    for (int i = 0; i < kOps; ++i) {
      const std::int64_t k = 1 + static_cast<std::int64_t>(rng() % kRange);
      if (rng() % 2 == 0) {
        list.insert(k);
      } else {
        list.erase(k);
      }
    }
    // Live cells: the list itself (<= range + sentinels) plus at most a
    // few advance windows of limbo — three orders of magnitude under
    // the ~50k cells a leak would hold here.
    EXPECT_LT(outstanding_blocks() - out0, 2000);
  }
  // Structure destroyed and this thread's limbo drained: every cell is
  // back in the pools.
  EpochDomain::instance().quiesce();
  EXPECT_LT(outstanding_blocks() - out0, 100);
}

// The run_threads accounting: allocs/retires per op and the reuse ratio
// reach the RunResult the sinks emit.
TEST(Harness, RunThreadsReportsMemoryMetrics) {
  setenv("REPRO_BENCH_MS", "60", 1);
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  repro::ds::IsbList list;
  const repro::harness::Workload w(64, repro::harness::kUpdateOnly);
  const auto r = repro::harness::run_threads(
      2, [&](int, repro::harness::Rng& rng) {
        const auto key = w.pick_key(rng);
        if (w.pick_op(rng) == repro::harness::OpType::insert) {
          list.insert(key);
        } else {
          list.erase(key);
        }
      });
  unsetenv("REPRO_BENCH_MS");
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.allocs_per_op, 0.0);
  EXPECT_GT(r.retired_per_op, 0.0);
  // Churn over a small range recycles cells; the exact ratio depends
  // on how often the host's scheduler lets grace periods elapse during
  // the short interval (the bench trajectory tracks the steady-state
  // value), so this only pins that recycling reached the accounting.
  EXPECT_GT(r.reuse_ratio, 0.0);
  EXPECT_LE(r.reuse_ratio, 1.0);
}

// pwb coalescing: duplicates of one line inside a fence window are
// elided and tallied; a fence opens a new window; the raw pwb count
// (what the figures plot) is never affected.
TEST(Coalescing, SameLineDuplicatesElideWithinFenceWindow) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  repro::pmem::fence();  // clear any window left by earlier tests
  alignas(64) char buf[256];
  const auto c0 = repro::pmem::counters();
  repro::pmem::flush(buf);       // first touch: buffered
  repro::pmem::flush(buf + 8);   // same line: elided
  repro::pmem::flush(buf + 63);  // same line: elided
  repro::pmem::flush(buf + 64);  // second line: buffered
  auto d = repro::pmem::counters() - c0;
  EXPECT_EQ(d.flushes, 4u);
  EXPECT_EQ(d.coalesced, 2u);

  repro::pmem::fence();          // window boundary
  repro::pmem::flush(buf);       // fresh window: not a duplicate
  d = repro::pmem::counters() - c0;
  EXPECT_EQ(d.flushes, 5u);
  EXPECT_EQ(d.coalesced, 2u);
  repro::pmem::fence();
}

TEST(Coalescing, OverflowFallsBackToImmediateAndToggleDisables) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  repro::pmem::fence();
  alignas(64) char buf[64 * 12];
  const auto c0 = repro::pmem::counters();
  // More distinct lines than the window holds: the overflow executes
  // immediately, nothing is mis-counted as coalesced.
  for (int i = 0; i < 12; ++i) repro::pmem::flush(buf + 64 * i);
  // A line that made it into the window still coalesces.
  repro::pmem::flush(buf);
  auto d = repro::pmem::counters() - c0;
  EXPECT_EQ(d.flushes, 13u);
  EXPECT_EQ(d.coalesced, 1u);
  repro::pmem::fence();

  repro::pmem::set_coalescing(false);
  const auto c1 = repro::pmem::counters();
  repro::pmem::flush(buf);
  repro::pmem::flush(buf);  // duplicate, but coalescing is off
  d = repro::pmem::counters() - c1;
  repro::pmem::set_coalescing(true);
  EXPECT_EQ(d.flushes, 2u);
  EXPECT_EQ(d.coalesced, 0u);
}

// The directory keeps extents sorted and coalesced: registering the
// slab after an existing one must merge, not append — nightly fuzz
// runs register thousands of slabs, and fewer extents keep the
// ownership table that view() rebuilds after each registration small.
TEST(Pool, SlabDirectoryCoalescesAdjacentExtents) {
  auto& dir = repro::mem::SlabDirectory::instance();
  alignas(64) static char arena[64 * 8];

  dir.add(arena, 64);
  const std::size_t n0 = dir.range_count();
  dir.add(arena + 64, 64);  // adjacent: absorbed, not appended
  EXPECT_EQ(dir.range_count(), n0);
  EXPECT_TRUE(dir.owns(arena));
  EXPECT_TRUE(dir.owns(arena + 64));
  EXPECT_FALSE(dir.owns(arena + 128));  // past the merged extent
  EXPECT_FALSE(dir.owns(arena + 1));    // unaligned is never a node

  dir.add(arena + 256, 64);  // disjoint (gap at [128, 256)): new extent
  EXPECT_EQ(dir.range_count(), n0 + 1);
  EXPECT_FALSE(dir.owns(arena + 128));

  // Bridge the gap: extends the predecessor and absorbs the successor.
  dir.add(arena + 128, 128);
  EXPECT_EQ(dir.range_count(), n0);
  for (std::size_t off = 0; off < 320; off += 64) {
    EXPECT_TRUE(dir.owns(arena + off)) << "offset " << off;
  }
  EXPECT_FALSE(dir.owns(arena + 320));

  dir.add(arena, 320);  // fully covered: a no-op
  EXPECT_EQ(dir.range_count(), n0);

  // A 16-byte-cell range touching the 64-aligned extent stays separate
  // and checks its own, finer grid.
  dir.add(arena + 320, 128, 16);
  EXPECT_EQ(dir.range_count(), n0 + 1);
  EXPECT_TRUE(dir.owns(arena + 320));
  EXPECT_TRUE(dir.owns(arena + 320 + 16));
  EXPECT_FALSE(dir.owns(arena + 320 + 8));
  EXPECT_FALSE(dir.owns(arena + 16));  // the 64-grid rejects it
  EXPECT_FALSE(dir.owns(arena + 448));
}

// The ownership table against a linear scan of every registration:
// 16/32/64-byte grids, ranges straddling a 64 KiB window, a
// many-window 16-grid extent like MmapHeap::attach's wholesale one,
// and overlapping ranges of different grids, with adds and checks
// interleaved so every check after an add reads a rebuilt table.  The
// addresses are synthetic — a directory never dereferences what it
// checks — and every base is line-aligned, as every slab base is, so
// touching ranges of one grid coalesce onto the grid the scan checks.
TEST(SlabDirectory, TableAgreesWithALinearScanOfTheRanges) {
  struct Reg {
    std::uintptr_t lo, hi, align;
  };
  constexpr std::uintptr_t kWindow = std::uintptr_t{1} << 16;
  constexpr std::uintptr_t kBase = std::uintptr_t{0x5a5a} << 32;
  repro::mem::SlabDirectory dir;
  std::vector<Reg> regs;
  const auto scan = [&](std::uintptr_t a) {
    return std::any_of(regs.begin(), regs.end(), [&](const Reg& r) {
      return a >= r.lo && a < r.hi && (a - r.lo) % r.align == 0;
    });
  };
  const auto check = [&](std::uintptr_t a) {
    EXPECT_EQ(dir.owns(reinterpret_cast<const void*>(a)), scan(a))
        << std::hex << "address 0x" << a;
  };
  // Each range's ends, one cell past them on every grid, and off-grid.
  const auto check_edges = [&](const Reg& r) {
    for (std::uintptr_t g : {16, 32, 64}) {
      for (std::uintptr_t a : {r.lo, r.lo - g, r.lo + g, r.hi - g, r.hi}) {
        check(a);
      }
    }
    check(r.lo + 8);
    check(r.hi - 8);
  };
  const auto add = [&](std::uintptr_t lo, std::uintptr_t bytes,
                       std::uintptr_t align) {
    dir.add(reinterpret_cast<const void*>(lo), bytes, align);
    regs.push_back({lo, lo + bytes, align});
    check_edges(regs.back());
  };

  add(kBase + 3 * kWindow + 5 * 64, 40 * kWindow + 7 * 64, 16);  // attach
  add(kBase + 8 * kWindow - 64, 128, 64);        // straddles, overlaps
  add(kBase + 50 * kWindow - 4096, 8192, 32);    // straddles alone
  std::mt19937_64 rng(25);
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  for (int i = 0; i < 150; ++i) {
    const std::uintptr_t align = std::uintptr_t{16} << below(3);
    add(kBase + 64 * below(64 * kWindow / 64), 64 * (1 + below(2048)), align);
    for (int j = 0; j < 100; ++j) check(kBase + 8 * below(66 * kWindow / 8));
  }
  for (const Reg& r : regs) check_edges(r);
}

// A view stays valid and unchanged while another thread keeps
// registering ranges, and every view answers for the ranges added
// before it.  The TSan leg runs this: the view's table is read with no
// lock, so a rebuild must never write to a table a reader holds.
TEST(SlabDirectory, ViewsStayRaceFreeWhileRangesAreAdded) {
  constexpr std::uintptr_t kWindow = std::uintptr_t{1} << 16;
  constexpr std::uintptr_t kBase = std::uintptr_t{0x6b6b} << 32;
  const auto at = [](std::uintptr_t a) {
    return reinterpret_cast<const void*>(a);
  };
  repro::mem::SlabDirectory dir;
  dir.add(at(kBase), 4 * kWindow, 16);
  const auto first = dir.view();
  constexpr int kAdds = 1000;
  const auto added = [&](int i) { return at(kBase + 2 * i * kWindow + 64); };
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 1; i <= kAdds; ++i) {
      dir.add(added(i), 4096, i % 2 ? 16 : 64);
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });
  int views = 0, wrong = 0;
  while (!done.load(std::memory_order_acquire) || views == 0) {
    const auto v = dir.view();
    for (std::uintptr_t off = 0; off < 4 * kWindow; off += 1024) {
      if (!v->owns(at(kBase + off)) || v->owns(at(kBase + off + 8))) ++wrong;
    }
    if (!dir.owns(at(kBase + 4 * kWindow - 16))) ++wrong;
    ++views;
  }
  writer.join();
  EXPECT_EQ(wrong, 0) << "over " << views << " views";
  const auto v = dir.view();
  for (int i = 1; i <= kAdds; ++i) {
    EXPECT_TRUE(v->owns(added(i))) << "add " << i;
  }
  EXPECT_FALSE(first->owns(added(kAdds)));  // a view never changes
}

// Nodes of up to one line get dense power-of-two cells.
static_assert(NodePool<repro::ds::ListNode>::cell_bytes() == 16);
static_assert(NodePool<repro::ds::QueueNode>::cell_bytes() == 16);
static_assert(NodePool<WideNode>::cell_bytes() == 64);

// Fresh cells are striped across the slab's lines: one shard's first
// slab_payload_bytes()/64 allocations from a new slab all land on
// distinct lines, so no fresh node's pwb commits another's stores.
struct StripeNode {
  explicit StripeNode(int v) : a(static_cast<std::uint64_t>(v)) {}
  std::uint64_t a, b = 0;
};

TEST(Pool, FreshCellsAreStripedAcrossLines) {
  using Pool = NodePool<StripeNode>;
  auto& pool = Pool::instance();
  static_assert(Pool::cell_bytes() == 16);
  constexpr std::size_t kLines = Pool::slab_payload_bytes() / kCacheLine;
  const std::size_t slabs0 = pool.slab_count();

  std::vector<StripeNode*> nodes;
  std::set<std::uintptr_t> lines;
  for (std::size_t i = 0; i < kLines; ++i) {
    nodes.push_back(pool.create(static_cast<int>(i)));
    const auto a = reinterpret_cast<std::uintptr_t>(nodes.back());
    EXPECT_EQ(a % Pool::cell_bytes(), 0u);
    EXPECT_TRUE(repro::mem::SlabDirectory::instance().owns(nodes.back()));
    lines.insert(a / kCacheLine);
  }
  EXPECT_EQ(pool.slab_count(), slabs0 + 1);
  EXPECT_EQ(lines.size(), kLines);

  // The next pass fills each line's second slot, starting at line one.
  nodes.push_back(pool.create(0));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(nodes.back()),
            reinterpret_cast<std::uintptr_t>(nodes.front()) +
                Pool::cell_bytes());
  EXPECT_EQ(pool.slab_count(), slabs0 + 1);
  for (StripeNode* n : nodes) pool.destroy(n);
}

// Recycled cells come back in a fixed order, not in the order they
// were freed: the next run is every cell freed since the last one,
// sorted into the stripe order fresh cells are handed out in.
struct RecycleNode {
  explicit RecycleNode(int v) : a(static_cast<std::uint64_t>(v)) {}
  std::uint64_t a, b = 0;
};

TEST(Pool, RecycledCellsComeBackInStripeOrder) {
  auto& pool = NodePool<RecycleNode>::instance();
  constexpr int kN = 64;
  std::vector<RecycleNode*> fresh;
  for (int i = 0; i < kN; ++i) fresh.push_back(pool.create(i));

  std::vector<RecycleNode*> scrambled = fresh;
  std::mt19937 rng(7);
  std::shuffle(scrambled.begin(), scrambled.end(), rng);
  for (RecycleNode* n : scrambled) pool.destroy(n);

  const Stats s0 = repro::mem::stats();
  std::vector<RecycleNode*> again;
  for (int i = 0; i < kN; ++i) again.push_back(pool.create(i));
  EXPECT_EQ(repro::mem::stats().reuses - s0.reuses,
            static_cast<std::uint64_t>(kN));
  EXPECT_EQ(again, fresh);
  for (RecycleNode* n : again) pool.destroy(n);
}

// A node type whose cell size does not divide the 64 KiB slab; the
// pool must trim the slab request to a whole number of cells so the
// tail bytes stay with the allocator (on the mmap heap: with the
// arena) instead of being stranded behind bump_end forever.
struct OddNode {
  explicit OddNode(int v) { data[0] = static_cast<char>(v); }
  char data[136];  // 136 -> 192-byte cell; 64 KiB % 192 == 64
};

TEST(Pool, OddCellSizeTrimsSlabTailNoWaste) {
  using Pool = NodePool<OddNode>;
  auto& pool = Pool::instance();
  static_assert(Pool::cell_bytes() == 192);
  static_assert(Pool::slab_payload_bytes() % Pool::cell_bytes() == 0,
                "slab requests must be a whole number of cells");
  static_assert(repro::mem::kSlabBytes - Pool::slab_payload_bytes() <
                    Pool::cell_bytes(),
                "the trim may only drop a sub-cell tail");
  constexpr std::size_t kPerSlab =
      Pool::slab_payload_bytes() / Pool::cell_bytes();

  // Exactly one slab's worth of cells comes out of one slab; the
  // (kPerSlab + 1)-th allocation is what forces slab two.
  const std::int64_t out0 = outstanding_blocks();
  const std::size_t slabs0 = pool.slab_count();
  std::vector<OddNode*> nodes;
  for (std::size_t i = 0; i < kPerSlab; ++i) {
    nodes.push_back(pool.create(static_cast<int>(i)));
  }
  EXPECT_EQ(pool.slab_count(), slabs0 + 1);
  nodes.push_back(pool.create(0));
  EXPECT_EQ(pool.slab_count(), slabs0 + 2);
  EXPECT_EQ(outstanding_blocks() - out0,
            static_cast<std::int64_t>(kPerSlab + 1));

  // Freed cells all round-trip through the free list: the second wave
  // allocates no slab and reuses every cell, so no cell of the first
  // wave was stranded.
  for (OddNode* n : nodes) pool.destroy(n);
  EXPECT_EQ(outstanding_blocks(), out0);
  const Stats s0 = repro::mem::stats();
  nodes.clear();
  for (std::size_t i = 0; i < kPerSlab + 1; ++i) {
    nodes.push_back(pool.create(static_cast<int>(i)));
  }
  EXPECT_EQ(pool.slab_count(), slabs0 + 2);
  EXPECT_EQ(repro::mem::stats().reuses - s0.reuses, kPerSlab + 1);
  for (OddNode* n : nodes) pool.destroy(n);
}

// Hazard pointers: a published hazard blocks the scan from freeing the
// node it names until the guard exits (which clears the slot's
// hazards).
TEST(Hp, HazardBlocksScanUntilGuardExit) {
  using repro::mem::HpDomain;
  using repro::mem::HpReclaimer;
  HpDomain& dom = HpDomain::instance();
  dom.quiesce();
  ASSERT_EQ(dom.batch_size(), 0u);

  CanaryNode* n = NodePool<CanaryNode>::instance().create(kAlive);
  const Stats before = repro::mem::stats();
  {
    HpDomain::Guard guard;
    guard.protect(0, n);
    HpReclaimer::retire<CanaryNode>(n);
    EXPECT_EQ(dom.batch_size(), 1u);
    dom.quiesce();  // forced scan: the hazard must keep n parked
    EXPECT_EQ(dom.batch_size(), 1u);
    EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims);
    EXPECT_EQ(n->value.load(std::memory_order_relaxed), kAlive)
        << "scan freed a hazard-protected node";
  }
  dom.quiesce();  // hazards cleared at guard exit: now it frees
  EXPECT_EQ(dom.batch_size(), 0u);
  EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims + 1);
}

// POP: a pinned (lagging) slot stalls the advance — and gets pinged;
// the slot's next guard entry re-announces and unblocks it.  This is
// the whole scheme: announcements refresh on demand, not per entry.
TEST(Pop, LaggingPinStallsAdvanceUntilPingRefresh) {
  using repro::mem::PopDomain;
  PopDomain& dom = PopDomain::instance();
  dom.quiesce();

  { PopDomain::Guard g; }  // pin persists between ops (DEBRA-style)
  const std::uint64_t e0 = dom.epoch();
  EXPECT_TRUE(dom.try_advance());  // announce == e0: one advance fits
  EXPECT_FALSE(dom.try_advance())
      << "a lagging pin must stall the second advance";
  // The failed advance pinged this slot; the next guard entry
  // re-announces the current epoch and clears the ping.
  { PopDomain::Guard g; }
  EXPECT_TRUE(dom.try_advance()) << "ping refresh should unblock";
  EXPECT_EQ(dom.epoch(), e0 + 2);
  dom.quiesce();
}

// POP grace periods mirror EBR's: nothing retired under a live pin is
// recycled until the pin goes quiescent.
TEST(Pop, GracePeriodBlocksReclaimWhilePinned) {
  using repro::mem::PopDomain;
  using repro::mem::PopReclaimer;
  PopDomain& dom = PopDomain::instance();
  dom.quiesce();
  ASSERT_EQ(dom.limbo_size(), 0u);

  CanaryNode* n = NodePool<CanaryNode>::instance().create(kAlive);
  {
    PopDomain::Guard guard;
    PopReclaimer::retire<CanaryNode>(n);
    EXPECT_EQ(dom.limbo_size(), 1u);
    for (int i = 0; i < 10; ++i) dom.try_advance();
    EXPECT_EQ(dom.limbo_size(), 1u);
    EXPECT_EQ(n->value.load(std::memory_order_relaxed), kAlive)
        << "node reclaimed while a POP guard was pinned";
  }
  const Stats before = repro::mem::stats();
  dom.quiesce();
  EXPECT_EQ(dom.limbo_size(), 0u);
  EXPECT_EQ(repro::mem::stats().reclaims, before.reclaims + 1);
}

// One ReclaimPause freezes every scheme: concurrent retire storms on
// EBR, HP and POP all park (limbo / batch growth, zero reclaims) until
// the pause lifts, then each thread's drain frees its backlog.  The
// crash engine relies on exactly this — whichever reclaimer the
// structure under test carries, a single pause stops recycling.
TEST(Reclaimers, PauseFreezesEverySchemeUntilResume) {
  using repro::mem::HpDomain;
  using repro::mem::HpReclaimer;
  using repro::mem::PopDomain;
  using repro::mem::PopReclaimer;
  EpochDomain::instance().quiesce();
  PopDomain::instance().quiesce();
  HpDomain::instance().quiesce();

  std::atomic<int> parked{0};
  std::atomic<bool> resumed{false};
  // Crosses both kAdvanceEvery (EBR/POP advance ticks) and
  // kHpScanThreshold (HP scan trigger) while paused.
  constexpr std::size_t kN = 400;

  auto storm = [&](auto retire_one, auto pending, auto drain) {
    const Stats s0 = repro::mem::stats();  // thread-local tallies
    const std::size_t p0 = pending();
    for (std::size_t i = 0; i < kN; ++i) retire_one();
    EXPECT_EQ(repro::mem::stats().reclaims, s0.reclaims)
        << "a retired cell recycled while reclamation was paused";
    EXPECT_EQ(pending(), p0 + kN);
    parked.fetch_add(1, std::memory_order_release);
    while (!resumed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    drain();
    EXPECT_EQ(pending(), 0u);
    EXPECT_GE(repro::mem::stats().reclaims - s0.reclaims, kN);
  };

  EpochDomain::instance().pause_reclaim();
  std::vector<std::thread> ws;
  ws.emplace_back([&] {
    storm(
        [] {
          EbrReclaimer::retire<CanaryNode>(
              NodePool<CanaryNode>::instance().create(kAlive));
        },
        [] { return EpochDomain::instance().limbo_size(); },
        [] { EpochDomain::instance().quiesce(); });
  });
  ws.emplace_back([&] {
    storm(
        [] {
          PopReclaimer::retire<CanaryNode>(
              NodePool<CanaryNode>::instance().create(kAlive));
        },
        [] { return PopDomain::instance().limbo_size(); },
        [] { PopDomain::instance().quiesce(); });
  });
  ws.emplace_back([&] {
    storm(
        [] {
          HpReclaimer::retire<CanaryNode>(
              NodePool<CanaryNode>::instance().create(kAlive));
        },
        [] { return HpDomain::instance().batch_size(); },
        [] { HpDomain::instance().quiesce(); });
  });
  while (parked.load(std::memory_order_acquire) < 3) {
    std::this_thread::yield();
  }
  EpochDomain::instance().resume_reclaim();
  resumed.store(true, std::memory_order_release);
  for (auto& w : ws) w.join();
}

// EBR that remembers every `Node` it creates, so a test can reach into
// a structure's chain.
template <typename Node>
struct RecordingReclaimer : EbrReclaimer {
  static inline std::vector<Node*> created;
  template <typename T, typename... Args>
  static T* create(Args&&... args) {
    T* p = EbrReclaimer::create<T>(std::forward<Args>(args)...);
    if constexpr (std::is_same_v<T, Node>) created.push_back(p);
    return p;
  }
};

// Splices `from->next` to a copy of its successor on the stack (a
// plausible node no pool owns) and to the successor's cell + 8 (pool
// memory off the cell grid): the walk must refuse both — with the
// ownership check gone the stack copy would pass — and accept the
// chain again once the link is restored.
template <typename Node, typename Walk>
void expect_walk_rejects_foreign_links(Node* from, Node fake, Walk walk) {
  Node* const succ = from->next.load();
  ASSERT_TRUE(walk());
  from->next.store(&fake);
  EXPECT_FALSE(walk()) << "a link to a stack node";
  from->next.store(reinterpret_cast<Node*>(
      reinterpret_cast<std::byte*>(succ) + 8));
  EXPECT_FALSE(walk()) << "a link off the cell grid";
  from->next.store(succ);
  EXPECT_TRUE(walk());
}

TEST(DurableWalk, QueueRejectsLinksOutsideThePool) {
  using Rec = RecordingReclaimer<repro::ds::QueueNode>;
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  Rec::created.clear();
  repro::ds::IsbQueueT<Rec> q;
  for (std::uint64_t v = 1; v <= 3; ++v) q.enqueue(v);
  ASSERT_EQ(Rec::created.size(), 4u);  // the dummy, then 1, 2, 3
  repro::ds::QueueNode* two = Rec::created[2];
  repro::ds::QueueNode* three = two->next.load();
  ASSERT_EQ(three, Rec::created[3]);
  std::vector<std::uint64_t> out;
  expect_walk_rejects_foreign_links(
      two, repro::ds::QueueNode(three->value.load(), three->next.load()),
      [&] { return q.snapshot_values(out); });
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(DurableWalk, ListRejectsLinksOutsideThePool) {
  using Rec = RecordingReclaimer<repro::ds::ListNode>;
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  Rec::created.clear();
  repro::ds::IsbListT<Rec> list;
  for (std::int64_t k : {10, 20, 30}) ASSERT_TRUE(list.insert(k));
  const auto ten = std::find_if(
      Rec::created.begin(), Rec::created.end(),
      [](const repro::ds::ListNode* n) { return n->key == 10; });
  ASSERT_NE(ten, Rec::created.end());
  repro::ds::ListNode* twenty = (*ten)->next.load();
  ASSERT_EQ(twenty->key, 20);
  std::vector<std::int64_t> out;
  expect_walk_rejects_foreign_links(
      *ten, repro::ds::ListNode(twenty->key, twenty->next.load()),
      [&] { return list.snapshot_keys(out); });
  EXPECT_EQ(out, (std::vector<std::int64_t>{10, 20, 30}));
}

TEST(DurableWalk, SplitOrderedMapRejectsLinksOutsideThePool) {
  using Rec = RecordingReclaimer<repro::ds::ListNode>;
  using repro::ds::SplitOrder;
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  Rec::created.clear();
  repro::ds::IsbHashMapT<Rec>::Config c;
  c.bucket_bits = 2;
  repro::ds::IsbHashMapT<Rec> map(c);
  for (std::int64_t k = 1; k <= 40; ++k) ASSERT_TRUE(map.insert(k));
  // A key node whose successor is a key node too, so the stack copy
  // stands where no published dummy is due.
  const auto from = std::find_if(
      Rec::created.begin(), Rec::created.end(),
      [](const repro::ds::ListNode* n) {
        const repro::ds::ListNode* s = n->next.load();
        return !SplitOrder::is_dummy(n->key) && s != nullptr &&
               !SplitOrder::is_dummy(s->key) && s->next.load() != nullptr;
      });
  ASSERT_NE(from, Rec::created.end());
  repro::ds::ListNode* succ = (*from)->next.load();
  std::vector<std::int64_t> out;
  expect_walk_rejects_foreign_links(
      *from, repro::ds::ListNode(succ->key, succ->next.load()),
      [&] { return map.snapshot_keys(out); });
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 40u);
  EXPECT_EQ(out.front(), 1);
  EXPECT_EQ(out.back(), 40);
}

// Each walk takes a fresh view: a node in a slab registered after an
// earlier walk's view is accepted by the next walk, which a table
// kept across registrations would reject.
TEST(DurableWalk, AcceptsANodeInASlabRegisteredAfterAnEarlierView) {
  using Rec = RecordingReclaimer<repro::ds::QueueNode>;
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  Rec::created.clear();
  repro::ds::IsbQueueT<Rec> q;
  auto& dir = repro::mem::SlabDirectory::instance();
  std::vector<std::uint64_t> out;
  ASSERT_TRUE(q.snapshot_values(out));
  const auto before = dir.view();
  auto& pool = NodePool<repro::ds::QueueNode>::instance();
  const std::size_t slabs0 = pool.slab_count();
  std::uint64_t n = 0;
  while (pool.slab_count() == slabs0) q.enqueue(++n);
  const repro::ds::QueueNode* fresh = Rec::created.back();  // the new slab's
  EXPECT_FALSE(before->owns(fresh));
  ASSERT_TRUE(q.snapshot_values(out));
  EXPECT_EQ(out.size(), n);
  EXPECT_EQ(out.back(), n);
}

// Satellite: recover() reads the announcement board, which is never
// pool-allocated — recycling the nodes an operation touched must not
// disturb what a crashed thread would learn.
TEST(Recovery, RecoverSafeAfterNodesRecycled) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  repro::ds::IsbList list;
  const int slot = repro::ds::thread_slot();

  ASSERT_TRUE(list.insert(7));
  ASSERT_TRUE(list.erase(7));  // unlinks and retires the node
  EpochDomain::instance().quiesce();  // cell is back in the pool
  ASSERT_TRUE(list.insert(8));        // very likely reuses that cell

  const repro::ds::Recovered rec = list.recover(slot);
  EXPECT_TRUE(rec.completed);
  EXPECT_EQ(rec.kind, repro::ds::OpKind::insert);
  EXPECT_EQ(rec.key, 8);
  EXPECT_TRUE(rec.ok);
}

}  // namespace
