// Split-ordered hash map: the split-order key codec, semantics across
// buckets, growth from one bucket under eight insert-heavy threads and
// collision-heavy small-directory stress (the TSan targets), the
// durable walk after growth, unlogged construction, detectable
// recovery after node recycling, and the crash-engine integration
// (deterministic {seed, crash_point} replay, every crash point of a
// one-bucket start — dummy initialisation and directory doubling
// included — and family fuzz sweeps).  The corpus entries replayed by
// test_corpus.cpp ("Isb-HashMap" in regressions.jsonl) pin triples
// bit-for-bit forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "repro/ds/hm_hashtable.hpp"
#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/registry.hpp"
#include "repro/pmem/persist.hpp"

namespace {

using repro::ds::DtHashMap;
using repro::ds::HarrisHashMap;
using repro::ds::IsbHashMap;
using repro::ds::OpKind;
using repro::ds::PersistProfile;
using repro::ds::SplitOrder;
using repro::ds::thread_slot;
using repro::harness::AlgoEntry;
using repro::harness::ConcurrentCrashPlan;
using repro::harness::ConcurrentFuzzReport;
using repro::harness::CrashPlan;
using repro::harness::FuzzReport;
using repro::harness::Registry;
using repro::harness::ScenarioKind;

IsbHashMap::Config cfg(int bucket_bits,
                       PersistProfile p = PersistProfile::general) {
  IsbHashMap::Config c;
  c.profile = p;
  c.bucket_bits = bucket_bits;
  return c;
}

template <typename Map>
void check_against_reference(Map& m, unsigned seed, std::int64_t range,
                             int ops) {
  std::mt19937 rng(seed);
  std::set<std::int64_t> ref;
  for (int i = 0; i < ops; ++i) {
    const std::int64_t k =
        1 + static_cast<std::int64_t>(rng() % static_cast<unsigned>(range));
    switch (rng() % 3) {
      case 0:
        EXPECT_EQ(m.insert(k), ref.insert(k).second) << "key " << k;
        break;
      case 1:
        EXPECT_EQ(m.erase(k), ref.erase(k) > 0) << "key " << k;
        break;
      default:
        EXPECT_EQ(m.find(k), ref.count(k) > 0) << "key " << k;
        break;
    }
  }
}

// The node-key codec: invertible, regular keys odd and dummies even,
// bucket 0's dummy the head sentinel, and every bucket's dummy sorting
// before the keys it owns at any table size.
TEST(Hashmap, SplitOrderKeysRoundTripAndSortDummiesFirst) {
  EXPECT_EQ(SplitOrder::dummy(0), std::numeric_limits<std::int64_t>::min());
  std::mt19937_64 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const auto key = static_cast<std::int64_t>(
        i < 64 ? static_cast<std::uint64_t>(i)
               : rng() % SplitOrder::kKeyLimit);
    const std::uint64_t h = SplitOrder::hash(key);
    ASSERT_LT(h, SplitOrder::kKeyLimit);
    ASSERT_EQ(SplitOrder::unhash(h), key);
    const std::int64_t node = SplitOrder::regular(h);
    ASSERT_FALSE(SplitOrder::is_dummy(node));
    ASSERT_LT(node, std::numeric_limits<std::int64_t>::max());  // tail
    ASSERT_EQ(SplitOrder::user_key(node), key);
    for (int bits : {0, 1, 5, 17}) {
      const std::size_t b = h & ((std::size_t{1} << bits) - 1);
      ASSERT_TRUE(SplitOrder::is_dummy(SplitOrder::dummy(b)));
      ASSERT_EQ(SplitOrder::bucket_of(SplitOrder::dummy(b)), b);
      ASSERT_LT(SplitOrder::dummy(b), node) << key << " bits " << bits;
    }
  }
}

TEST(Hashmap, BasicSemanticsSpanBuckets) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(4));  // 16 buckets: the keys below hit several
  EXPECT_EQ(m.bucket_count(), 16u);
  // Widely-spread keys (different buckets) and near keys (hash
  // neighbours are NOT key neighbours) behave like one logical set.
  const std::int64_t keys[] = {1, 2, 3, 1'000'003, 999'999'937,
                               1'000'000'000'039};
  for (std::int64_t k : keys) {
    EXPECT_FALSE(m.find(k)) << k;
    EXPECT_TRUE(m.insert(k)) << k;
    EXPECT_FALSE(m.insert(k)) << k;  // duplicate across the whole map
  }
  for (std::int64_t k : keys) EXPECT_TRUE(m.find(k)) << k;
  EXPECT_EQ(m.size_slow(), 6u);
  EXPECT_TRUE(m.erase(keys[3]));
  EXPECT_FALSE(m.erase(keys[3]));
  EXPECT_FALSE(m.find(keys[3]));
  EXPECT_TRUE(m.insert(keys[3]));  // re-insert after erase
  EXPECT_EQ(m.size_slow(), 6u);
}

TEST(Hashmap, MatchesReferenceSetAcrossBucketCounts) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  // bucket_bits is the initial size: 0 starts as the flat list and
  // grows; 6 spreads 64 keys at ~1 per bucket; every start must be
  // indistinguishable from std::set.
  for (int bits : {0, 2, 6}) {
    IsbHashMap m(cfg(bits));
    check_against_reference(m, 42u + static_cast<unsigned>(bits), 64,
                            4000);
  }
  DtHashMap dt(PersistProfile::optimized, 3);
  check_against_reference(dt, 7u, 64, 4000);
  HarrisHashMap vol(3);
  check_against_reference(vol, 8u, 64, 4000);
}

// The TSan stress: two initial buckets, eight threads over 128 keys,
// every operation contending on a handful of buckets — marked-chain
// snips, helping, retirement and dummy initialisation race exactly
// like the flat list's updates.
TEST(Hashmap, CollisionHeavyTwoBucketChaos) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(1));
  constexpr int kThreads = 8;
  constexpr std::int64_t kRange = 128;
  std::vector<std::thread> ws;
  for (int t = 0; t < kThreads; ++t) {
    ws.emplace_back([&m, t] {
      std::mt19937 rng(1234u + static_cast<unsigned>(t));
      for (int i = 0; i < 20000; ++i) {
        const std::int64_t k =
            1 + static_cast<std::int64_t>(rng() % kRange);
        switch (rng() % 3) {
          case 0: m.insert(k); break;
          case 1: m.erase(k); break;
          default: m.find(k); break;
        }
      }
    });
  }
  for (auto& w : ws) w.join();
  for (std::int64_t k = 1; k <= kRange; ++k) {
    if (m.find(k)) {
      EXPECT_FALSE(m.insert(k)) << "key " << k;
      EXPECT_TRUE(m.erase(k)) << "key " << k;
    } else {
      EXPECT_FALSE(m.erase(k)) << "key " << k;
      EXPECT_TRUE(m.insert(k)) << "key " << k;
    }
  }
}

// Threads own disjoint key ranges scattered over many buckets.
TEST(Hashmap, DisjointThreadRanges) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(5));
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 512;
  std::vector<std::thread> ws;
  for (int t = 0; t < kThreads; ++t) {
    ws.emplace_back([&m, t] {
      const std::int64_t base = t * kPerThread * 2;
      for (std::int64_t k = 0; k < kPerThread; ++k) {
        ASSERT_TRUE(m.insert(base + k));
      }
      for (std::int64_t k = 0; k < kPerThread; k += 2) {
        ASSERT_TRUE(m.erase(base + k));
      }
    });
  }
  for (auto& w : ws) w.join();
  for (int t = 0; t < kThreads; ++t) {
    const std::int64_t base = t * kPerThread * 2;
    for (std::int64_t k = 0; k < kPerThread; ++k) {
      EXPECT_EQ(m.find(base + k), k % 2 == 1) << "key " << base + k;
    }
  }
}

// The other TSan target: one initial bucket, eight threads inserting
// mostly (3 in 4 ops), so the table doubles and buckets initialise
// while every thread races through them.  Each key is owned by one
// thread (k % 8), so per-thread reference sets merge into the exact
// expected contents.
TEST(Hashmap, GrowsFromOneBucketUnderEightInsertHeavyThreads) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(0));
  ASSERT_EQ(m.bucket_count(), 1u);
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 1024;
  std::vector<std::set<std::int64_t>> refs(kThreads);
  std::vector<std::thread> ws;
  for (int t = 0; t < kThreads; ++t) {
    ws.emplace_back([&m, &refs, t] {
      std::mt19937 rng(777u + static_cast<unsigned>(t));
      std::set<std::int64_t>& ref = refs[static_cast<std::size_t>(t)];
      for (int i = 0; i < 6000; ++i) {
        const std::int64_t k =
            1 + t + kThreads * static_cast<std::int64_t>(rng() % kPerThread);
        const unsigned dice = rng() % 8;
        if (dice < 6) {
          EXPECT_EQ(m.insert(k), ref.insert(k).second) << "key " << k;
        } else if (dice == 6) {
          EXPECT_EQ(m.erase(k), ref.erase(k) > 0) << "key " << k;
        } else {
          EXPECT_EQ(m.find(k), ref.count(k) > 0) << "key " << k;
        }
      }
    });
  }
  for (auto& w : ws) w.join();
  std::set<std::int64_t> expect;
  for (const auto& r : refs) expect.insert(r.begin(), r.end());
  for (std::int64_t k = 1; k <= kThreads * kPerThread; ++k) {
    ASSERT_EQ(m.find(k), expect.count(k) > 0) << "key " << k;
  }
  const std::size_t n = m.bucket_count();
  EXPECT_GT(n, 1u);
  EXPECT_EQ(n & (n - 1), 0u) << n << " is not a power of two";
  std::vector<std::int64_t> walked;
  ASSERT_TRUE(m.snapshot_keys(walked));
  std::sort(walked.begin(), walked.end());
  EXPECT_EQ(walked, std::vector<std::int64_t>(expect.begin(), expect.end()));
}

// The durable walk (interleaved cursors over the published dummies) is
// exactly the live set, before and after growth, size_slow() agrees,
// and the walk is deterministic: the chain fuzzer's idempotence re-walk
// compares raw vectors.
TEST(Hashmap, DurableWalkMatchesLiveSetBeforeAndAfterGrowth) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  auto check = [](auto& m, std::int64_t keys, std::size_t min_buckets) {
    std::set<std::int64_t> live;
    for (std::int64_t k = 1; k <= keys; ++k) {
      ASSERT_TRUE(m.insert(k * 7919));
      live.insert(k * 7919);
    }
    for (std::int64_t k = 1; k <= keys; k += 3) {
      ASSERT_TRUE(m.erase(k * 7919));
      live.erase(k * 7919);
    }
    EXPECT_GE(m.bucket_count(), min_buckets);
    EXPECT_EQ(m.size_slow(), live.size());
    std::vector<std::int64_t> walked, again;
    ASSERT_TRUE(m.snapshot_keys(walked));
    ASSERT_TRUE(m.snapshot_keys(again));
    EXPECT_EQ(walked, again);
    // Cursor interleaving order, not key order — consumers sort; so
    // do we.
    std::sort(walked.begin(), walked.end());
    EXPECT_EQ(walked, std::vector<std::int64_t>(live.begin(), live.end()));
  };
  IsbHashMap small(cfg(3));
  check(small, 60, 8);  // at most 60 keys in 8 buckets: no growth
  IsbHashMap isb(cfg(0));
  check(isb, 5000, 256);
  DtHashMap dt(PersistProfile::optimized, 0);
  check(dt, 5000, 256);
  repro::ds::DtHashMapT<repro::mem::HpReclaimer> hp(PersistProfile::general,
                                                      2);
  check(hp, 5000, 256);
}

// Construction is unlogged and persists nothing: the empty list it
// builds is the durable baseline a crash rewinds to.
TEST(Hashmap, ConstructionIssuesNoPersistenceInstructions) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  const repro::pmem::Counters before = repro::pmem::counters();
  for (int bits : {0, 4, 13}) {
    IsbHashMap isb(cfg(bits));
    DtHashMap dt(PersistProfile::general, bits);
  }
  const repro::pmem::Counters d = repro::pmem::counters() - before;
  EXPECT_EQ(d.flushes, 0u);
  EXPECT_EQ(d.fences, 0u);
  EXPECT_EQ(d.psyncs, 0u);
}

// Descriptor recovery stays truthful after the map's nodes have been
// retired and recycled through the pool many times over (the board is
// never recycled; only list cells are).
TEST(Hashmap, RecoverAfterRecycle) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(2));
  for (int round = 0; round < 200; ++round) {
    for (std::int64_t k = 1; k <= 32; ++k) ASSERT_TRUE(m.insert(k));
    for (std::int64_t k = 1; k <= 32; ++k) ASSERT_TRUE(m.erase(k));
  }
  ASSERT_TRUE(m.insert(7));
  auto rec = m.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::insert);
  EXPECT_EQ(rec.key, 7);
  EXPECT_TRUE(rec.completed);
  EXPECT_TRUE(rec.ok);
  ASSERT_FALSE(m.erase(8));  // failed op: response still recovered
  rec = m.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::erase);
  EXPECT_EQ(rec.key, 8);
  EXPECT_TRUE(rec.completed);
  EXPECT_FALSE(rec.ok);
}

// ---------------------------------------------------------------------
// Crash-engine integration
// ---------------------------------------------------------------------

const AlgoEntry& algo(const char* name) {
  const AlgoEntry* e = Registry::instance().find(name);
  EXPECT_NE(e, nullptr) << name;
  return *e;
}

CrashPlan quick_plan(int points) {
  CrashPlan p;
  p.seed = 0xFACADEull;
  p.points = points;
  return p;
}

TEST(Hashmap, FuzzReplayOfSeedAndCrashPointIsDeterministic) {
  const AlgoEntry& hm = algo("Isb-HashMap");
  const CrashPlan plan = quick_plan(0);
  FuzzReport a, b;
  repro::harness::fuzz_one(hm, plan, /*iter_seed=*/0x4A5BA11ull,
                           /*crash_point=*/41, 0, a);
  repro::harness::fuzz_one(hm, plan, 0x4A5BA11ull, 41, 0, b);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(a.crashes, 1);
}

// The registry's maps start at one bucket, so the first crash points
// of an iteration land inside bucket initialisation (a dummy's
// pre_publish and the exposes of its path) and around directory
// doubling.  Crash at every one of the first 192 instructions of one
// iteration per variant.
TEST(Hashmap, EveryEarlyCrashPointOfAOneBucketStartVerifies) {
  for (const char* name :
       {"Isb-HashMap", "Isb-HashMap-Opt", "DT-HashMap"}) {
    FuzzReport rep;
    for (std::uint64_t cp = 1; cp <= 192; ++cp) {
      repro::harness::fuzz_one(algo(name), quick_plan(0), 0xB0C3E7ull, cp,
                               static_cast<int>(cp), rep);
    }
    EXPECT_EQ(rep.violations, 0)
        << name << ": "
        << (rep.failures.empty() ? "?" : rep.failures.front().what);
    EXPECT_EQ(rep.crashes, 192) << name;
  }
}

// Racing workers over a one-bucket start: concurrent dummy
// initialisation, stale-size restarts and doubling while a worker dies
// or stalls mid-instruction, so survivors must help publish the dummies
// it left linked.  The single-crash concurrent family runs in the
// conc-fuzz CI job instead: like the flat lists' it trips ROADMAP item
// 2 (a response resting on another lane's unfenced link) at a few
// points in 10^5, too often for a unit-test budget to stay green.
TEST(Hashmap, ConcurrentFuzzFromOneBucket) {
  for (const ScenarioKind sc :
       {ScenarioKind::thread_death, ScenarioKind::stalled_thread}) {
    for (const char* name : {"Isb-HashMap", "DT-HashMap"}) {
      ConcurrentCrashPlan plan;
      plan.seed = 0xFACADEull;
      plan.points = 100;
      plan.scenario = sc;
      const ConcurrentFuzzReport rep =
          repro::harness::concurrent_fuzz_structure(algo(name), plan);
      EXPECT_EQ(rep.violations, 0)
          << name << " " << repro::harness::scenario_name(sc) << ": "
          << (rep.failures.empty() ? "?" : rep.failures.front().what);
      EXPECT_EQ(rep.points, 100) << name;
    }
  }
}

// Every hashmap variant survives a quick fuzz budget; the CI fuzz jobs
// run the full budgets through crash_recovery's trait:detectable
// selector, which now sweeps these automatically.
TEST(Hashmap, DetectableVariantsSurviveFuzzing) {
  for (const char* name :
       {"Isb-HashMap", "Isb-HashMap-Opt", "DT-HashMap"}) {
    const FuzzReport rep =
        repro::harness::fuzz_structure(algo(name), quick_plan(150));
    EXPECT_EQ(rep.violations, 0)
        << name << ": "
        << (rep.failures.empty() ? "?" : rep.failures.front().what);
    EXPECT_GT(rep.crashes, 0) << name;
    EXPECT_EQ(rep.points, 150) << name;
  }
}

}  // namespace
