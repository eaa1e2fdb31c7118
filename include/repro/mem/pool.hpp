// Per-thread segregated node pools.
//
// Every structure in ds/ and baselines/ used to allocate nodes with raw
// `new` on the hot path and leak whatever it unlinked; update-heavy runs
// were therefore bounded by allocator contention and unbounded RSS
// growth rather than by the persistence instructions the paper
// measures.  NodePool<T> replaces that: each thread slot owns a shard
// holding a private free list plus a bump index into the current slab.
// Slabs are cache-line-aligned 64 KiB blocks carved into dense
// fixed-size cells — a 16-byte list or queue node takes 16 bytes, not a
// padded 64-byte line — so a traversal touches a quarter of the lines
// line-padded nodes would.  Fresh cells are striped across the slab's
// lines (see NodePool::cell_at), so consecutive allocations from one
// shard never share a line.  Freed cells go back to the freeing
// thread's shard and are handed out again before any slab grows — in
// steady state the structure runs entirely out of recycled nodes
// (reuse_ratio -> 1 in the harness).  Recycled cells are handed out in
// sorted runs rather than in the order they were freed (see
// NodePool::recycle_key), so a long-lived structure's layout does not
// drift with thread timing.
//
// Concurrency contract: a shard is touched only by the thread currently
// owning its slot (ds::thread_slot()).  Slot hand-off between threads
// is synchronised by the slot table's acq_rel exchange, so plain
// (non-atomic) shard fields are race-free.  Cross-thread frees do not
// exist: epoch reclamation (ebr.hpp) runs a node's deleter on the
// thread that retired it, and that deleter returns the cell to the
// *running* thread's shard.  Slabs are never returned to the OS while
// the process runs — the pool's RSS is bounded by the high-watermark of
// live nodes, which the EBR grace period keeps O(live structure size).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "repro/ds/detectable.hpp"

namespace repro::mem {

inline constexpr std::size_t kCacheLine = 64;
inline constexpr std::size_t kSlabBytes = std::size_t{1} << 16;  // 64 KiB
// Smallest pool cell, and so the finest cell grid SlabDirectory knows.
inline constexpr std::size_t kMinCellBytes = 16;

// Per-thread tallies of memory-subsystem events, snapshotted by the
// harness around a measured interval exactly like pmem::Counters.
struct Stats {
  std::uint64_t allocs = 0;    // pool cells handed out
  std::uint64_t reuses = 0;    // allocs served from a free list
  std::uint64_t retires = 0;   // nodes handed to the reclaimer
  std::uint64_t reclaims = 0;  // retired nodes recycled into a pool

  Stats& operator+=(const Stats& o) {
    allocs += o.allocs;
    reuses += o.reuses;
    retires += o.retires;
    reclaims += o.reclaims;
    return *this;
  }
  Stats operator-(const Stats& o) const {
    return {allocs - o.allocs, reuses - o.reuses, retires - o.retires,
            reclaims - o.reclaims};
  }
};

namespace detail {
inline thread_local Stats tl_stats{};

// Slab source override, installed by pmem::MmapHeap::attach(): when
// non-null, pool slabs are carved from the persistent mapped arena
// instead of the volatile heap, so the node links the structures write
// through persist<> survive a process kill.  A null return (arena
// exhausted) falls back to the volatile path — allocation never fails
// differently because a heap happens to be attached.
inline std::atomic<void* (*)(std::size_t)>& slab_source_cell() {
  static std::atomic<void* (*)(std::size_t)> s{nullptr};
  return s;
}

// Process-wide count of pool cells currently handed out (all pools, all
// node types).  One relaxed RMW per alloc/free; the bounded-RSS test
// asserts this stays O(live keys) under an update-only churn.
inline std::atomic<std::int64_t>& outstanding_cell() {
  static std::atomic<std::int64_t> c{0};
  return c;
}

// Process-wide reclamation pause depth, shared by every reclamation
// scheme (EBR, HP, POP).  While positive, no scheme recycles a retired
// cell — the crash engine relies on one switch freezing all of them,
// whatever reclaimer the structure under test was instantiated with.
inline std::atomic<int>& pause_depth_cell() {
  static std::atomic<int> d{0};
  return d;
}

// Cross-scheme hook table.  Each reclamation domain registers itself
// once (at construction): a drain function the *final* resume runs so
// a fuzz iteration's parked garbage is freed no matter which scheme
// parked it (with quiesce set, quiesce_all() runs the domain's
// quiesce(), which also drops the caller's pin and forces grace
// periods), and a parked-cell walker the crash-during-reclaim
// scenario uses to assert every cell sitting in a limbo/retire list is
// durably clean at crash time.  Slots are claimed by CAS on the walker
// (two domains may first-construct concurrently); both fields are
// plain function pointers so registration needs no allocation.
inline constexpr int kMaxReclaimerSchemes = 4;
using DrainFn = void (*)(bool quiesce);
using ParkedVisitor = void (*)(void* ctx, const void* cell,
                               std::size_t bytes);
using ParkedWalkFn = void (*)(void* ctx, ParkedVisitor visit);
struct ReclaimerHooks {
  std::atomic<ParkedWalkFn> walk{nullptr};  // claim marker
  std::atomic<DrainFn> drain{nullptr};
};
inline ReclaimerHooks* reclaimer_hooks() {
  static ReclaimerHooks h[kMaxReclaimerSchemes];
  return h;
}
inline void register_reclaimer_hooks(ParkedWalkFn walk, DrainFn drain) {
  ReclaimerHooks* hs = reclaimer_hooks();
  for (int i = 0; i < kMaxReclaimerSchemes; ++i) {
    ParkedWalkFn expected = nullptr;
    if (hs[i].walk.compare_exchange_strong(expected, walk,
                                           std::memory_order_acq_rel)) {
      hs[i].drain.store(drain, std::memory_order_release);
      return;
    }
  }
}
inline void drain_all_schemes(bool quiesce = false) {
  ReclaimerHooks* hs = reclaimer_hooks();
  for (int i = 0; i < kMaxReclaimerSchemes; ++i) {
    if (DrainFn fn = hs[i].drain.load(std::memory_order_acquire)) {
      fn(quiesce);
    }
  }
}
}  // namespace detail

// Every constructed reclamation domain's quiesce(), on the calling
// thread's slot (outside any Guard).
inline void quiesce_all() { detail::drain_all_schemes(true); }

// True while any ReclaimPause (any scheme's pause) is in force.
inline bool reclaim_paused() {
  return detail::pause_depth_cell().load(std::memory_order_relaxed) > 0;
}

// Visit every cell currently parked in any scheme's limbo/retire lists
// (all thread slots).  Single-threaded verification use only — the
// crash drivers call it after a simulated crash unwound, with every
// worker dead or parked.
inline void for_each_parked_cell(void* ctx, detail::ParkedVisitor v) {
  detail::ReclaimerHooks* hs = detail::reclaimer_hooks();
  for (int i = 0; i < detail::kMaxReclaimerSchemes; ++i) {
    if (detail::ParkedWalkFn fn =
            hs[i].walk.load(std::memory_order_acquire)) {
      fn(ctx, v);
    }
  }
}

inline Stats stats() { return detail::tl_stats; }
inline void reset_stats() { detail::tl_stats = Stats{}; }

// Live (handed-out, not yet freed) cells across every pool.
inline std::int64_t outstanding_blocks() {
  return detail::outstanding_cell().load(std::memory_order_relaxed);
}

namespace detail {
// Every NodePool type, for set_slab_source.
struct PoolLink {
  void (*forget_cells)();
  PoolLink* next = nullptr;
};
inline std::atomic<PoolLink*>& pool_list() {
  static std::atomic<PoolLink*> head{nullptr};
  return head;
}
inline void register_pool(PoolLink* link) {
  link->next = pool_list().load();
  while (!pool_list().compare_exchange_weak(link->next, link)) {
  }
}
}  // namespace detail

// Install (attach) or clear (detach) the persistent slab source.  Every
// pool then forgets (leaks) its free and fresh cells: a process that
// used a pool before attaching would otherwise build its heap root
// partly in malloc'd memory that no process mapping the file sees.  No
// structure may span a switch, and no thread may allocate during one.
inline void set_slab_source(void* (*fn)(std::size_t)) {
  detail::slab_source_cell().store(fn, std::memory_order_release);
  for (detail::PoolLink* l = detail::pool_list().load(); l != nullptr;
       l = l->next) {
    l->forget_cells();
  }
}

// Process-wide directory of every pool slab's address range.  The
// crash engine's durable-image walks validate each pointer they are
// about to dereference against it: after a simulated crash a rewound
// link may target memory that was never durably initialised, and
// "some pool's cell" is the strongest claim such a pointer can still
// honour.
//
// Each range records its cell alignment: a pool registers its slabs
// with its cell size (16, 32 or 64 bytes; 64 for the line-multiple
// cells of larger nodes), and a check accepts only addresses on that
// grid — for dense cells an exact cell-start check.  Slabs need not be
// malloc'd: ranges carved from a mapped persistent heap register
// through the same add().  A *recovered* process never saw the killed
// writer's per-slab registrations (they died with it), so
// pmem::MmapHeap::attach() re-registers the arena's used extent
// wholesale at the smallest cell alignment — without that, every
// durable walk after a real kill would reject the very first mapped
// node it reached.
//
// Two paths.  add() is the cold one, once per 64 KiB slab: under the
// mutex it keeps the ranges per alignment, each list sorted by base
// with touching/overlapping extents coalesced (consecutive slabs of a
// mapped arena collapse into one range; ranges of different alignments
// never coalesce), and bumps a generation.  view() hands out an
// immutable Table of those ranges, rebuilt under the mutex only when
// the generation moved since the last build (so once per registration,
// not once per walk), and a Table answers owns() with no lock: one hash
// probe, a bounds test and a mask.  A durable walk takes one view and
// checks every node through it, so a walk of a million nodes costs one
// mutex acquisition, not a million.  Checks run only while verifying a
// crash image, never on an operation's hot path.
//
// The table is keyed by 64 KiB address window (addr >> 16), each
// window listing the few ranges that touch it, rather than by slab:
// slab bases are only line-aligned (operator new with kCacheLine
// alignment, MmapHeap::carve_slab's 64-byte bump), so one slab may
// straddle two windows and no window boundary names a slab.  Every
// registered base is line-aligned and every alignment is a power of
// two dividing a line, so a grid check is a mask and touching ranges
// of one alignment share one grid.
class SlabDirectory {
  struct Range {
    std::uintptr_t lo, hi;
  };
  struct Grid {
    std::size_t align;
    std::vector<Range> ranges;  // sorted by lo, coalesced
  };

 public:
  static SlabDirectory& instance() {
    static SlabDirectory d;
    return d;
  }

  // An empty directory; pools all register with instance().
  SlabDirectory() = default;

  // Read-only snapshot of the directory's ranges at one view() call.
  class Table {
   public:
    // Whether p is a cell start inside some range: inside it and on
    // its alignment grid.
    bool owns(const void* p) const {
      const auto a = reinterpret_cast<std::uintptr_t>(p);
      const std::uintptr_t key = a >> kWindowBits;
      for (std::size_t i = (key * kHashMul) >> shift_;;
           i = (i + 1) & (windows_.size() - 1)) {
        const Window& w = windows_[i];
        if (w.key == key) {
          const Span* s = spans_.data() + w.first;
          for (const Span* end = s + w.count; s != end; ++s) {
            const std::uintptr_t off = a - s->lo;
            if (off < s->bytes && (off & s->mask) == 0) return true;
          }
          return false;
        }
        if (w.key == kNoWindow) return false;
      }
    }

   private:
    friend class SlabDirectory;
    static constexpr int kWindowBits = 16;
    static constexpr std::uintptr_t kNoWindow = ~std::uintptr_t{0};
    static constexpr std::uintptr_t kHashMul = 0x9E3779B97F4A7C15ull;
    struct Window {
      std::uintptr_t key = kNoWindow;  // addr >> kWindowBits
      std::uint32_t first = 0, count = 0;  // its slice of spans_
    };
    struct Span {
      std::uintptr_t lo, bytes, mask;  // one range; mask = align - 1
    };

    // Windows sit in an open-addressed table at most half full
    // (Fibonacci hash, linear probing); each lists, as a slice of
    // spans_, every range that touches it.
    explicit Table(const std::vector<Grid>& grids) {
      std::vector<std::pair<std::uintptr_t, Span>> touch;  // (window, range)
      for (const Grid& g : grids) {
        for (const Range& r : g.ranges) {
          for (std::uintptr_t k = r.lo >> kWindowBits;
               k <= (r.hi - 1) >> kWindowBits; ++k) {
            touch.push_back({k, {r.lo, r.hi - r.lo, g.align - 1}});
          }
        }
      }
      std::sort(touch.begin(), touch.end(), [](const auto& x, const auto& y) {
        return x.first < y.first;
      });
      const std::size_t slots =
          std::bit_ceil(std::max<std::size_t>(2 * touch.size(), 2));
      windows_.resize(slots);
      shift_ = 64 - std::countr_zero(slots);
      spans_.reserve(touch.size());
      for (std::size_t i = 0; i < touch.size();) {
        const std::uintptr_t key = touch[i].first;
        std::size_t s = (key * kHashMul) >> shift_;
        while (windows_[s].key != kNoWindow) s = (s + 1) & (slots - 1);
        windows_[s] = {key, static_cast<std::uint32_t>(spans_.size()), 0};
        for (; i < touch.size() && touch[i].first == key; ++i) {
          spans_.push_back(touch[i].second);
          ++windows_[s].count;
        }
      }
    }

    std::vector<Window> windows_;
    std::vector<Span> spans_;
    int shift_;  // 64 - log2(windows_.size()), set by the constructor
  };

  // Register [base, base + bytes) as cells on an `align` grid (a power
  // of two no larger than a line).
  void add(const void* base, std::size_t bytes,
           std::size_t align = kCacheLine) {
    const auto lo = reinterpret_cast<std::uintptr_t>(base);
    const auto hi = lo + bytes;
    assert(std::has_single_bit(align) && align <= kCacheLine);
    if (bytes == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    auto grid = std::find_if(grids_.begin(), grids_.end(),
                             [&](const Grid& g) { return g.align == align; });
    if (grid == grids_.end()) grid = grids_.insert(grids_.end(), {align, {}});
    std::vector<Range>& ranges = grid->ranges;
    auto it = std::lower_bound(
        ranges.begin(), ranges.end(), lo,
        [](const Range& r, std::uintptr_t v) { return r.lo < v; });
    if (it != ranges.begin() && (it - 1)->hi >= lo) {
      --it;                        // touches/overlaps predecessor
      if (it->hi >= hi) return;    // already covered
      it->hi = hi;
    } else {
      it = ranges.insert(it, {lo, hi});
    }
    // Absorb successors the (possibly extended) range now reaches.
    auto next = it + 1;
    while (next != ranges.end() && next->lo <= it->hi) {
      if (next->hi > it->hi) it->hi = next->hi;
      next = ranges.erase(next);
    }
    ++generation_;  // the next view() rebuilds the table
  }

  // The table of every range added so far.  It stays valid (and
  // unchanged) for as long as the caller holds it; ranges added later
  // show up in the next view.
  std::shared_ptr<const Table> view() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (table_generation_ != generation_) {
      table_.reset(new Table(grids_));
      table_generation_ = generation_;
    }
    return table_;
  }

  // One-off check; a walk should check its nodes through one view().
  bool owns(const void* p) const { return view()->owns(p); }

  // Coalesced extent count; the adjacency-merge unit test pins it.
  std::size_t range_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const Grid& g : grids_) n += g.ranges.size();
    return n;
  }

  SlabDirectory(const SlabDirectory&) = delete;
  SlabDirectory& operator=(const SlabDirectory&) = delete;

 private:
  mutable std::mutex mu_;
  std::vector<Grid> grids_;  // one per registered alignment
  std::uint64_t generation_ = 1;  // bumped by every add() that changes grids_
  // Table of grids_ as of generation table_generation_.
  mutable std::shared_ptr<const Table> table_;
  mutable std::uint64_t table_generation_ = 0;
};

template <typename T>
class NodePool {
  static_assert(alignof(T) <= kCacheLine,
                "pool slabs are aligned to one cache line");

 public:
  static NodePool& instance() {
    static NodePool p;
    return p;
  }

  // Allocate a cell and construct a T in it.  A throwing constructor
  // returns the cell to the free list instead of leaking it: node
  // constructors issue shadow-logged stores (QueueNode), which unwind
  // with CrashUnwind once a simulated crash has latched — without the
  // rollback every crashed fuzz iteration would leak cells and drift
  // the outstanding-blocks accounting.
  template <typename... Args>
  T* create(Args&&... args) {
    void* cell = alloc_cell();
    ++detail::tl_stats.allocs;
    detail::outstanding_cell().fetch_add(1, std::memory_order_relaxed);
    try {
      return ::new (cell) T(std::forward<Args>(args)...);
    } catch (...) {
      push_free(shards_[ds::thread_slot()], cell);
      detail::outstanding_cell().fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
  }

  // Destroy a T and return its cell to the calling thread's free list.
  void destroy(T* p) {
    p->~T();
    push_free(shards_[ds::thread_slot()], p);
    detail::outstanding_cell().fetch_sub(1, std::memory_order_relaxed);
  }

  // Slabs allocated so far (monotone; slabs are retained for reuse).
  std::size_t slab_count() {
    std::lock_guard<std::mutex> lock(slabs_mu_);
    return slabs_.size() + mapped_slabs_;
  }

  // Slabs carved from a mapped persistent heap (subset of slab_count).
  std::size_t mapped_slab_count() {
    std::lock_guard<std::mutex> lock(slabs_mu_);
    return mapped_slabs_;
  }

  // Accounting surface for the bounded-RSS / no-waste tests.
  static constexpr std::size_t cell_bytes() { return kCellBytes; }
  static constexpr std::size_t slab_payload_bytes() {
    return kSlabPayload;
  }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

 private:
  struct FreeCell {
    FreeCell* next;
  };

  // Cells are dense: a payload of up to one line gets the smallest
  // power-of-two cell (16, 32 or 64 bytes) that holds it and the
  // free-list link overlaid on dead cells; larger payloads get a whole
  // number of lines.  Power-of-two cells tile a line exactly and are
  // naturally aligned, so alignof(T) <= 16 holds for free and larger
  // alignments round the payload up first.  Packing several nodes per
  // line is safe because pwb is clwb (persist.hpp): a write-back keeps
  // the line resident instead of evicting the neighbours.
  static constexpr std::size_t kAlign =
      alignof(T) > alignof(FreeCell) ? alignof(T) : alignof(FreeCell);
  static constexpr std::size_t kPayloadBytes =
      ((sizeof(T) > sizeof(FreeCell) ? sizeof(T) : sizeof(FreeCell)) +
       kAlign - 1) /
      kAlign * kAlign;
  static constexpr std::size_t kCellBytes =
      kPayloadBytes <= kCacheLine
          ? std::bit_ceil(std::max(kPayloadBytes, kMinCellBytes))
          : (kPayloadBytes + kCacheLine - 1) / kCacheLine * kCacheLine;
  static_assert(kCellBytes <= kSlabBytes,
                "node type larger than one pool slab");

  // A slab is a column of stripes, each max(cell, line) bytes: one line
  // holding 64/cell dense cells, or one line-multiple cell.  Slabs are
  // requested as an exact number of stripes — when a large cell does
  // not divide 64 KiB, requesting the full kSlabBytes would strand the
  // tail (on the mmap heap, a permanent per-slab leak of arena bytes).
  static constexpr std::size_t kStripeBytes =
      kCellBytes > kCacheLine ? kCellBytes : kCacheLine;
  static constexpr std::size_t kStripes = kSlabBytes / kStripeBytes;
  static constexpr std::size_t kSlabPayload = kStripes * kStripeBytes;
  static constexpr std::size_t kCellsPerSlab = kSlabPayload / kCellBytes;
  // Directory grid: every cell start is a multiple of this from the
  // slab base.
  static constexpr std::size_t kCellAlign =
      kCellBytes < kCacheLine ? kCellBytes : kCacheLine;

  // Fresh cell i of a slab: stripe i % kStripes, slot i / kStripes.  The
  // first kStripes cells a shard hands out from a slab therefore sit on
  // distinct lines, so the pwb that persists one node (pre-publish,
  // persist-before-retire) commits no other fresh node's stores — the
  // shadow-NVM crash engine keeps its per-node detection power.  For
  // line-multiple cells this is the plain linear layout.
  static std::byte* cell_at(std::byte* slab, std::size_t i) {
    return slab + (i % kStripes) * kStripeBytes + (i / kStripes) * kCellBytes;
  }

  // Recycled cells are handed out in sorted runs.  Freed cells go on
  // the shard's free list; when the current run is used up, the most
  // recently freed kRunCells of them become the next run, sorted by
  // recycle_key — within each 64 KiB address window, by offset within
  // the line and then by line.  That is the order cell_at hands fresh
  // cells out in, so consecutive recycled cells also sit on distinct
  // lines while the run has more than one cell per line.
  //
  // Free order alone (the list as a LIFO) let the layout of a
  // long-lived structure drift with thread timing: each epoch batch
  // came back reversed, and a preempted thread that held the epoch back
  // let the other thread's backlog mix older cells in.  In 30 s
  // queue-pairs runs the share of steps on which a walk of the 1M-node
  // queue jumped more than 64 KiB grew from ~5% at 1 s to 47-63%, by an
  // amount set by how often the host preempted the workers, and the
  // walk's speed followed.  Sorted runs make the next cell depend on
  // which cells are free rather than on when they were freed: each
  // worker's successive nodes stayed within 64 KiB on over 99.5% of
  // steps, after 1 s and after 30 s alike.
  static std::uintptr_t recycle_key(const void* cell) {
    constexpr std::uintptr_t kWindow = kSlabBytes - 1;
    constexpr int kLineBits = std::countr_zero(kSlabBytes / kCacheLine);
    const auto a = reinterpret_cast<std::uintptr_t>(cell);
    return (a & ~kWindow) | ((a & (kCacheLine - 1)) << kLineBits) |
           ((a & kWindow) / kCacheLine);
  }
  // Run order: descending, so the next cell is the run's last.
  static bool after(const std::byte* x, const std::byte* y) {
    return recycle_key(x) > recycle_key(y);
  }
  // Well above the cells one epoch batch frees, so a run holds every
  // cell freed since the last one in steady state.
  static constexpr std::size_t kRunCells = 4096;

  struct alignas(kCacheLine) Shard {
    FreeCell* freed = nullptr;  // free list: freed since the run was built
    std::unique_ptr<std::byte*[]> run;  // kRunCells slots, by `after`
    std::size_t run_size = 0;
    std::byte* slab = nullptr;  // current slab
    std::size_t next = kCellsPerSlab;  // its next fresh cell index
  };

  NodePool() = default;

  ~NodePool() {
    // Process exit: return the malloc'd slabs.  Nothing dereferences
    // pool memory during static destruction (structures are all
    // function-scoped and limbo lists only hold pointers, never touch
    // them).  Mapped slabs belong to the heap file, not this pool —
    // operator-deleting one would hand mmap'd pages to the allocator.
    for (void* s : slabs_) {
      ::operator delete(s, std::align_val_t{kCacheLine});
    }
  }

  static void push_free(Shard& sh, void* cell) {
    auto* fc = static_cast<FreeCell*>(cell);
    fc->next = sh.freed;
    sh.freed = fc;
  }

  static void build_run(Shard& sh) {
    if (!sh.run) sh.run = std::make_unique<std::byte*[]>(kRunCells);
    std::size_t n = 0;
    for (; sh.freed != nullptr && n < kRunCells; sh.freed = sh.freed->next) {
      sh.run[n++] = reinterpret_cast<std::byte*>(sh.freed);
    }
    std::sort(sh.run.get(), sh.run.get() + n, after);
    sh.run_size = n;
  }

  void* alloc_cell() {
    Shard& sh = shards_[ds::thread_slot()];
    if (sh.run_size == 0 && sh.freed != nullptr) build_run(sh);
    if (sh.run_size != 0) {
      ++detail::tl_stats.reuses;
      return sh.run[--sh.run_size];
    }
    if (sh.next == kCellsPerSlab) {
      std::byte* slab = nullptr;
      bool mapped = false;
      if (auto* src = detail::slab_source_cell().load(
              std::memory_order_acquire)) {
        slab = static_cast<std::byte*>(src(kSlabPayload));
        mapped = slab != nullptr;
      }
      if (slab == nullptr) {
        slab = static_cast<std::byte*>(
            ::operator new(kSlabPayload, std::align_val_t{kCacheLine}));
      }
      {
        std::lock_guard<std::mutex> lock(slabs_mu_);
        if (mapped) {
          ++mapped_slabs_;
        } else {
          slabs_.push_back(slab);
        }
      }
      SlabDirectory::instance().add(slab, kSlabPayload, kCellAlign);
      if (!listed_.exchange(true)) detail::register_pool(&link_);
      sh.slab = slab;
      sh.next = 0;
    }
    return cell_at(sh.slab, sh.next++);
  }

  Shard shards_[ds::kMaxThreads];
  // Listed on the first slab, so the pool stays constant-initialized.
  static void forget_cells() {
    for (Shard& sh : instance().shards_) sh = Shard{};
  }
  detail::PoolLink link_{&forget_cells};
  std::atomic<bool> listed_{false};
  std::mutex slabs_mu_;
  std::vector<void*> slabs_;       // volatile (malloc'd) slabs only
  std::size_t mapped_slabs_ = 0;   // slabs carved from a mapped heap
};

}  // namespace repro::mem
