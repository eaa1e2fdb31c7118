// Hazard-pointer reclamation (Michael '04), the second scheme behind
// the Reclaimer concept.
//
// Where EBR (ebr.hpp) protects *everything reachable* for the duration
// of an epoch pin, hazard pointers protect *named pointers*: each
// thread slot owns a small array of hazard cells, and a traversal
// publishes the node it is about to dereference into one of them
// (Guard::protect), then re-reads the link it came from to validate
// the node was still reachable when the hazard became visible.  A
// retiring thread batches unlinked nodes per slot and, at a threshold,
// scans every slot's hazard cells: batch entries matching no hazard
// are freed, the rest stay parked.  The trade is the classic one —
// bounded garbage (at most kHpScanThreshold + hazards per slot) and no
// dependence on other threads' progress, against two seq_cst stores
// plus a validation re-read per traversal step.
//
// The protect/validate contract the cores implement (harris_core's
// search, msqueue_core's enqueue/dequeue): publish the candidate with
// protect(i, p) — a seq_cst store, so it is ordered before the re-read
// — then re-load the pointer p was read from; on mismatch restart the
// traversal.  If the re-read still returns p, then p was not unlinked
// before the hazard was visible, so any retirer's scan (whose batch
// entries were unlinked strictly before its hazard reads) must observe
// the hazard and keep p parked.  Guards clear their slot's hazards on
// outermost exit; EBR-style pinning-between-ops does not apply (there
// is no epoch to pin).
//
// Interplay with the rest of mem/: HpReclaimer is the same
// PooledReclaimer facade the epoch schemes use (ebr.hpp), so cells come
// from the same NodePool and retire goes through the same
// persist-before-retire flush+fence; scans respect the process-wide
// ReclaimPause, and the domain registers the cross-scheme drain/walk
// hooks (pool.hpp) so the final resume_reclaim() flushes HP batches
// and the crash-during-reclaim scenario sees HP-parked cells.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/mem/ebr.hpp"

namespace repro::mem {

// Three hazards cover the deepest traversal in tree: Harris search
// rotates {left, cur, prev} (slots 0/1/2); the MS-queue uses two.
inline constexpr int kHazardsPerSlot = 3;
// Retire-batch size that triggers a scan.  Large enough that the
// O(kMaxThreads * kHazardsPerSlot) hazard sweep amortises to a few
// loads per retire, small enough to bound parked garbage per slot.
inline constexpr std::size_t kHpScanThreshold = 128;

class HpDomain {
 public:
  static HpDomain& instance() {
    static HpDomain d;
    return d;
  }

 private:
  struct Slot;

 public:
  // RAII operation scope.  Unlike the epoch guard there is nothing to
  // announce on entry; the dtor clears the slot's hazards on outermost
  // exit so a completed operation stops blocking anyone's scan.
  class Guard {
   public:
    // Tells the cores to emit the protect/validate re-reads.
    static constexpr bool kHazards = true;

    Guard() : slot_(HpDomain::instance().slots_[ds::thread_slot()]) {
      ++slot_.depth;
    }
    ~Guard() {
      if (--slot_.depth == 0) {
        for (auto& h : slot_.hazard) {
          h.store(nullptr, std::memory_order_release);
        }
      }
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    // Publish p as hazardous in cell i.  seq_cst: the store must be
    // globally visible before the caller's validation re-read, or a
    // concurrent scan could miss both the hazard and the re-read miss
    // the unlink.
    void protect(int i, const void* p) {
      slot_.hazard[i].store(const_cast<void*>(p),
                            std::memory_order_seq_cst);
    }

   private:
    HpDomain::Slot& slot_;
  };

  using Deleter = void (*)(void*);

  // Park an unlinked node on this slot's retire batch; scan when the
  // batch is full (unless a ReclaimPause holds everything frozen — the
  // batch just grows, and the final resume drains it).
  void retire(void* p, Deleter del, std::size_t bytes) {
    Slot& s = slots_[ds::thread_slot()];
    s.batch.push_back({p, del, bytes});
    ++detail::tl_stats.retires;
    if (s.batch.size() >= kHpScanThreshold && !reclaim_paused()) {
      scan(s);
    }
  }

  // Scan-and-free: snapshot every slot's hazards, free batch entries
  // no hazard names, keep the rest parked for the next scan.
  void scan(Slot& s) {
    if (reclaim_paused()) return;
    std::vector<void*>& hz = s.scan_scratch;
    hz.clear();
    for (const Slot& o : slots_) {
      for (const auto& h : o.hazard) {
        if (void* p = h.load(std::memory_order_seq_cst)) {
          hz.push_back(p);
        }
      }
    }
    std::sort(hz.begin(), hz.end());
    std::size_t kept = 0;
    for (Retired& r : s.batch) {
      if (std::binary_search(hz.begin(), hz.end(), r.p)) {
        s.batch[kept++] = r;
      } else {
        r.del(r.p);
        ++detail::tl_stats.reclaims;
      }
    }
    s.batch.resize(kept);
  }

  // Parked (retired, not yet freed) nodes on this thread's batch — the
  // HP analogue of EpochDomain::limbo_size().
  std::size_t batch_size() {
    return slots_[ds::thread_slot()].batch.size();
  }

  // Force a scan of this thread's batch (tests, teardown).  Entries
  // still hazarded by live guards stay parked — safety first.
  void quiesce() { scan(slots_[ds::thread_slot()]); }

  HpDomain(const HpDomain&) = delete;
  HpDomain& operator=(const HpDomain&) = delete;

 private:
  struct Retired {
    void* p;
    Deleter del;
    std::size_t bytes;
  };
  struct alignas(64) Slot {
    Slot() {
      for (auto& h : hazard) h.store(nullptr, std::memory_order_relaxed);
    }
    std::atomic<void*> hazard[kHazardsPerSlot];
    int depth = 0;  // guard nesting (owner thread only)
    std::vector<Retired> batch;
    std::vector<void*> scan_scratch;  // hazard snapshot, reused
  };

  HpDomain() {
    detail::register_reclaimer_hooks(&HpDomain::walk_parked,
                                     &HpDomain::drain_current_slot);
  }

  // A scan is both the drain and the quiesce.
  static void drain_current_slot(bool /*quiesce*/) {
    HpDomain& d = instance();
    d.scan(d.slots_[ds::thread_slot()]);
  }
  static void walk_parked(void* ctx, detail::ParkedVisitor visit) {
    HpDomain& d = instance();
    for (Slot& s : d.slots_) {
      for (const Retired& r : s.batch) visit(ctx, r.p, r.bytes);
    }
  }

  Slot slots_[ds::kMaxThreads];
};

// The pooled facade over hazard pointers; the cores additionally call
// Guard::protect at their traversal steps because kHazards is true.
using HpReclaimer = PooledReclaimer<HpDomain>;

}  // namespace repro::mem
