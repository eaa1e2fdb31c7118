// Unit tests for the mmap-backed persistent heap: fixed-base
// reattach, the root directory's publish protocol, the pool slab
// source, and the Mode::mmap persistence-instruction accounting.
//
// Every test attaches a real file under /tmp and skips (not fails)
// when the fixed-base mapping is unavailable in this environment —
// that is attach()'s documented contract.  Reattach tests reuse the
// SAME file from the SAME process: the heap maps at the base recorded
// in the header, so pointers (and any pool-carved cells) revalidate.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "repro/mem/pool.hpp"
#include "repro/pmem/mmap_heap.hpp"
#include "repro/pmem/persist.hpp"

namespace {

using repro::pmem::MmapHeap;

std::string test_heap_path() {
  return "/tmp/repro_mmap_heap_test." + std::to_string(::getpid()) +
         ".pmem";
}

// Attach-or-skip plus teardown; detaches but keeps the file so a test
// can reattach, removing it only at scope exit.
class HeapGuard {
 public:
  explicit HeapGuard(std::size_t bytes = MmapHeap::kDefaultBytes)
      : path_(test_heap_path()) {
    ::unlink(path_.c_str());
    heap_ = MmapHeap::attach(path_, bytes);
  }
  ~HeapGuard() {
    MmapHeap::detach();
    ::unlink(path_.c_str());
  }
  MmapHeap* reattach(std::size_t bytes = MmapHeap::kDefaultBytes) {
    MmapHeap::detach();
    heap_ = MmapHeap::attach(path_, bytes);
    return heap_;
  }
  MmapHeap* get() const { return heap_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  MmapHeap* heap_ = nullptr;
};

#define SKIP_IF_NO_HEAP(guard)                                         \
  if ((guard).get() == nullptr) {                                      \
    GTEST_SKIP() << "fixed-base mmap unavailable in this environment"; \
  }

TEST(MmapHeap, CreateWriteDetachReattachContentsIntact) {
  HeapGuard g;
  SKIP_IF_NO_HEAP(g);
  MmapHeap* h = g.get();

  auto* words = static_cast<std::uint64_t*>(h->alloc(8 * sizeof(std::uint64_t)));
  ASSERT_NE(words, nullptr);
  const auto addr = reinterpret_cast<std::uintptr_t>(words);
  for (int i = 0; i < 8; ++i) {
    words[i] = 0xABCD'0000'0000'0000ull + static_cast<std::uint64_t>(i);
  }
  repro::pmem::persist_range_raw(words, 8 * sizeof(std::uint64_t));
  const std::uint64_t used = h->used_bytes();

  h = g.reattach();
  ASSERT_NE(h, nullptr) << "reattach of an existing heap file failed";
  EXPECT_EQ(h->header()->magic, MmapHeap::kMagic);
  EXPECT_EQ(h->used_bytes(), used) << "bump offset not durable";
  auto* again = reinterpret_cast<std::uint64_t*>(addr);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(again[i],
              0xABCD'0000'0000'0000ull + static_cast<std::uint64_t>(i));
  }
}

TEST(MmapHeap, SingleActiveHeapAndAllocExhaustion) {
  HeapGuard g(std::size_t{1} << 20);  // minimum file size
  SKIP_IF_NO_HEAP(g);
  MmapHeap* h = g.get();

  // Second attach while one is active is refused.
  EXPECT_EQ(MmapHeap::attach(g.path() + ".second"), nullptr);
  ::unlink((g.path() + ".second").c_str());

  // Exhaustion returns nullptr and never over-advances the bump.
  void* p = nullptr;
  int allocs = 0;
  while ((p = h->alloc(std::size_t{64} << 10)) != nullptr) {
    ++allocs;
    ASSERT_LT(allocs, 1024) << "1 MiB heap cannot hold this many slabs";
  }
  EXPECT_GT(allocs, 0);
  EXPECT_LE(h->used_bytes(), h->bytes());
}

struct RootBlob {
  std::uint64_t tag = 0x5EED;
  std::uint64_t payload[4] = {1, 2, 3, 4};
};

TEST(MmapHeap, RootIsIdempotentAndSurvivesReattach) {
  HeapGuard g;
  SKIP_IF_NO_HEAP(g);
  MmapHeap* h = g.get();

  EXPECT_EQ(h->find_root<RootBlob>("blob"), nullptr);
  RootBlob* a = h->root<RootBlob>("blob");
  ASSERT_NE(a, nullptr);
  a->payload[0] = 42;
  repro::pmem::persist_range_raw(a, sizeof(*a));

  // Same process: root() must return the same object, ctor not re-run.
  RootBlob* b = h->root<RootBlob>("blob");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->payload[0], 42u);

  // Fresh mapping of the same file: same address, same contents.
  h = g.reattach();
  ASSERT_NE(h, nullptr);
  RootBlob* c = h->find_root<RootBlob>("blob");
  ASSERT_EQ(c, a);
  EXPECT_EQ(c->tag, 0x5EEDu);
  EXPECT_EQ(c->payload[0], 42u);
}

TEST(MmapHeap, TornRootSlotIsReusedNotTrusted) {
  HeapGuard g;
  SKIP_IF_NO_HEAP(g);
  MmapHeap* h = g.get();

  RootBlob* a = h->root<RootBlob>("torn");
  ASSERT_NE(a, nullptr);

  // Emulate a creator killed between publishing the slot and
  // persisting the initialized flag.
  for (int i = 0; i < MmapHeap::kMaxRoots; ++i) {
    auto& s = h->header()->roots[i];
    if (std::strncmp(s.name, "torn", MmapHeap::kRootNameBytes) == 0) {
      s.initialized = 0;
    }
  }
  EXPECT_EQ(h->find_root<RootBlob>("torn"), nullptr)
      << "a torn slot must not be returned as a root";
  RootBlob* b = h->root<RootBlob>("torn");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->tag, 0x5EEDu) << "reused slot must re-run the ctor";
  EXPECT_NE(h->find_root<RootBlob>("torn"), nullptr);
}

struct HeapTestNode {
  std::uint64_t key;
  HeapTestNode* next;
};

TEST(MmapHeap, PoolSlabsCarvedFromMappedArena) {
  HeapGuard g;
  SKIP_IF_NO_HEAP(g);
  MmapHeap* h = g.get();

  auto& pool = repro::mem::NodePool<HeapTestNode>::instance();
  const std::uint64_t used_before = h->used_bytes();
  std::vector<HeapTestNode*> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(pool.create());
    nodes.back()->key = static_cast<std::uint64_t>(i);
  }
  EXPECT_GT(pool.mapped_slab_count(), 0u)
      << "pool did not draw slabs from the attached heap";
  EXPECT_GT(h->used_bytes(), used_before);
  for (HeapTestNode* n : nodes) {
    // Mapped cells are inside the arena and registered with the
    // directory the durable walks consult.
    const auto a = reinterpret_cast<std::uintptr_t>(n);
    EXPECT_GE(a, h->base() + MmapHeap::kHeaderBytes);
    EXPECT_LT(a, h->base() + h->bytes());
    EXPECT_TRUE(repro::mem::SlabDirectory::instance().owns(n));
  }
  for (HeapTestNode* n : nodes) pool.destroy(n);
}

// A pool used before a heap is attached hands out only arena cells
// after it: neither its free list nor the rest of its malloc'd slab.
TEST(MmapHeap, PoolUsedBeforeAttachAllocatesOnlyArenaCellsAfter) {
  auto& pool = repro::mem::NodePool<HeapTestNode>::instance();
  pool.destroy(pool.create());  // one free cell, one half-used slab
  HeapGuard g;
  SKIP_IF_NO_HEAP(g);
  for (int i = 0; i < 4; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(pool.create());
    EXPECT_GE(a, g.get()->base() + MmapHeap::kHeaderBytes);
    EXPECT_LT(a, g.get()->base() + g.get()->bytes());
  }
}

TEST(MmapHeap, ModeMmapCountsInstructionsAndRawPathDoesNot) {
  HeapGuard g;
  SKIP_IF_NO_HEAP(g);

  const auto saved = repro::pmem::mode();
  repro::pmem::set_mode(repro::pmem::Mode::mmap);
  repro::pmem::reset_counters();

  repro::pmem::persist<std::uint64_t> cell{0};
  cell.store(7);
  repro::pmem::flush(&cell);
  repro::pmem::fence();
  repro::pmem::psync();
  const auto c = repro::pmem::counters();
  EXPECT_EQ(c.flushes, 1u);
  EXPECT_EQ(c.fences, 1u);
  EXPECT_EQ(c.psyncs, 1u);

  // Heap metadata persistence is uncounted by design: kill-point
  // replay must not depend on allocator traffic.
  repro::pmem::persist_range_raw(&cell, sizeof(cell));
  const auto c2 = repro::pmem::counters();
  EXPECT_EQ(c2.flushes, 1u);
  EXPECT_EQ(c2.fences, 1u);
  repro::pmem::set_mode(saved);
}

}  // namespace
