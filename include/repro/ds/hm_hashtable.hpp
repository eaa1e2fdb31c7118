// Detectable Harris-Michael hash map: fixed power-of-two bucket array,
// each bucket an independent Harris-list segment driven by the shared
// HarrisOps algorithm layer (harris_core.hpp).  Because the buckets
// reuse the list's search/CAS logic verbatim, every persistence policy
// (IsbPolicy, DtPolicy, NullPolicy for the volatile baseline) transfers
// unchanged — the tracking transformation is per *operation*, and an
// operation here is one announce + one bucket-segment traversal.
//
// Topology: one head sentinel per bucket (key INT64_MIN) and ONE tail
// sentinel (key INT64_MAX) shared by every bucket — the tail's link is
// never mutated, so sharing it is race-free and keeps the durable walk
// termination condition identical to the flat list's.  The head
// sentinels live in pool-allocated directory blocks (HmBucketBlock)
// referenced from an inline pointer array in the map object:
//
//   HmHashMapCore ── blocks_[i] ──> HmBucketBlock ── heads[j] ──> sentinel ─> … ─> tail
//
// Every piece — blocks, sentinels, nodes — comes from the Reclaimer's
// node pool, so when a pmem::MmapHeap is attached the whole directory
// is carved from the mapped arena and the raw pointers rebase
// identically in every process that maps the heap file: a map object
// created with MmapHeap::root<IsbHashMapT<>>() recovers per-bucket in a
// fresh process exactly like the flat list does (harness/killfuzz.hpp
// Family::hm_map).  The map object itself is vtable-free with no
// heap-owning members, the requirement for heap roots.
//
// The bucket directory is immutable after construction (fixed bucket
// count, no resizing): only the sentinels' next links — pmem::persist
// cells like every Harris link — mutate, so shadow-NVM crash rewind and
// the mmap durability backend both see exactly the flat list's write
// set, one segment at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "repro/ds/harris_core.hpp"
#include "repro/ds/policies.hpp"

namespace repro::ds {

// One directory block of bucket-head sentinels.  Blocks are pool cells
// (4 KiB + padding, well under the 64 KiB slab ceiling) so they land in
// the mmap arena when a heap is attached.  Entries are written once at
// map construction and never again; construction is not logged, like
// node construction.
struct HmBucketBlock {
  static constexpr int kBits = 9;  // 512 heads per block
  static constexpr std::size_t kHeads = std::size_t{1} << kBits;
  HmBucketBlock() {
    for (auto& h : heads) h = nullptr;
  }
  ListNode* heads[kHeads];
};

template <typename Policy, typename Reclaimer = mem::EbrReclaimer>
class HmHashMapCore {
 public:
  static constexpr int kMinBucketBits = 0;
  static constexpr int kMaxBucketBits = 15;  // 32768 buckets
  static constexpr std::size_t kMaxBlocks =
      (std::size_t{1} << kMaxBucketBits) >> HmBucketBlock::kBits;

  // Policies hold atomics (announcement boards) and cannot be moved, so
  // the map constructs its policy in place from the trailing args.
  template <typename... Args>
  explicit HmHashMapCore(int bucket_bits, Args&&... args)
      : policy_(std::forward<Args>(args)...) {
    if (bucket_bits < kMinBucketBits) bucket_bits = kMinBucketBits;
    if (bucket_bits > kMaxBucketBits) bucket_bits = kMaxBucketBits;
    nbuckets_ = std::size_t{1} << bucket_bits;
    tail_ = Reclaimer::template create<Node>(
        std::numeric_limits<std::int64_t>::max(), nullptr);
    for (auto& b : blocks_) b = nullptr;
    const std::size_t nblocks =
        (nbuckets_ + HmBucketBlock::kHeads - 1) >> HmBucketBlock::kBits;
    for (std::size_t b = 0; b < nblocks; ++b) {
      blocks_[b] = Reclaimer::template create<HmBucketBlock>();
    }
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      // The sentinel's link is ctor-initialised to the shared tail:
      // construction is unlogged, so an empty bucket IS the durable
      // baseline a crash rewinds to.
      blocks_[i >> HmBucketBlock::kBits]
          ->heads[i & (HmBucketBlock::kHeads - 1)] =
          Reclaimer::template create<Node>(
              std::numeric_limits<std::int64_t>::min(), tail_);
    }
  }

  ~HmHashMapCore() {
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      Ops::destroy_segment(head_at(i), tail_);
    }
    Reclaimer::template destroy<Node>(tail_);
    for (auto& b : blocks_) {
      if (b != nullptr) Reclaimer::template destroy<HmBucketBlock>(b);
    }
  }

  HmHashMapCore(const HmHashMapCore&) = delete;
  HmHashMapCore& operator=(const HmHashMapCore&) = delete;

  bool insert(std::int64_t key) {
    return Ops::insert(head_of(key), tail_, policy_, key);
  }

  bool erase(std::int64_t key) {
    return Ops::erase(head_of(key), tail_, policy_, key);
  }

  bool find(std::int64_t key) {
    return Ops::find(head_of(key), tail_, policy_, key);
  }

  // Crash-time enumeration for the crash engine: concatenates the
  // per-bucket defensive walks in bucket order.  Bucket order is
  // deterministic (the same image always walks the same way — the
  // chain fuzzer's idempotence re-walk relies on that) but not sorted;
  // every consumer of durable contents (the contents oracle, the
  // durable-linearizability checker) compares order-insensitively.  The step budget is shared across buckets so
  // a cycle through any bucket's chain still terminates the walk.
  bool durable_keys(std::vector<std::int64_t>& out,
                    std::size_t max_steps = std::size_t{1} << 22) const {
    out.clear();
    std::size_t steps = 0;
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      Node* h = head_at(i);
      if (h == nullptr) return false;  // torn directory
      if (!Ops::durable_segment(h, tail_, out, steps, max_steps)) {
        return false;
      }
    }
    return true;
  }

  // Unmarked-node count; only meaningful while no other thread mutates.
  std::size_t size_slow() const {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    std::size_t n = 0;
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      n += Ops::size_segment(head_at(i), tail_);
    }
    return n;
  }

  Policy& policy() { return policy_; }
  std::size_t bucket_count() const { return nbuckets_; }

 private:
  using Node = ListNode;
  using Ops = HarrisOps<Policy, Reclaimer>;

  // SplitMix64 finalizer: full-avalanche mixing so dense integer key
  // ranges (the benchmarks draw uniform/zipfian keys from [1, range])
  // spread over the power-of-two bucket mask.
  std::size_t bucket_of(std::int64_t key) const {
    std::uint64_t x =
        static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & (nbuckets_ - 1);
  }

  Node* head_at(std::size_t i) const {
    const HmBucketBlock* b = blocks_[i >> HmBucketBlock::kBits];
    return b == nullptr ? nullptr
                        : b->heads[i & (HmBucketBlock::kHeads - 1)];
  }

  Node* head_of(std::int64_t key) const {
    return head_at(bucket_of(key));
  }

  Policy policy_;
  std::size_t nbuckets_ = 1;
  Node* tail_ = nullptr;
  HmBucketBlock* blocks_[kMaxBlocks];
};

// ---------------------------------------------------------------------
// Paper-facing wrappers, mirroring isb_list.hpp / dt_list.hpp.
// ---------------------------------------------------------------------

// The tracking (info-structure based) transformation over the hash map:
// "Isb-HashMap" / "Isb-HashMap-Opt" in the registry.
template <typename Reclaimer = mem::EbrReclaimer>
class IsbHashMapT {
 public:
  struct Config {
    PersistProfile profile = PersistProfile::general;
    bool read_only_opt = true;
    int bucket_bits = 13;  // 8192 buckets
  };

  IsbHashMapT() : IsbHashMapT(Config{}) {}
  explicit IsbHashMapT(Config c)
      : core_(c.bucket_bits,
              IsbPolicy::Options{c.profile, c.read_only_opt}) {}

  bool insert(std::int64_t key) { return core_.insert(key); }
  bool erase(std::int64_t key) { return core_.erase(key); }
  bool find(std::int64_t key) { return core_.find(key); }

  // Detectable recovery: what thread `slot` would learn about its last
  // operation after a crash.
  Recovered recover(int slot) const {
    return core_.policy().board().recover(slot);
  }

  // Crash-engine enumeration of the (durable, post-crash) logical
  // contents; see HmHashMapCore::durable_keys.
  bool snapshot_keys(std::vector<std::int64_t>& out) const {
    return core_.durable_keys(out);
  }

  std::size_t size_slow() const { return core_.size_slow(); }
  std::size_t bucket_count() const { return core_.bucket_count(); }

 private:
  mutable HmHashMapCore<IsbPolicy, Reclaimer> core_;
};

using IsbHashMap = IsbHashMapT<>;

// Direct tracking over the hash map ("DT-HashMap"): persists every
// logically-deleted node the bucket search traverses.
template <typename Reclaimer = mem::EbrReclaimer>
class DtHashMapT {
 public:
  explicit DtHashMapT(PersistProfile profile = PersistProfile::general,
                      int bucket_bits = 13)
      : core_(bucket_bits, profile) {}

  bool insert(std::int64_t key) { return core_.insert(key); }
  bool erase(std::int64_t key) { return core_.erase(key); }
  bool find(std::int64_t key) { return core_.find(key); }

  Recovered recover(int slot) const {
    return core_.policy().board().recover(slot);
  }

  bool snapshot_keys(std::vector<std::int64_t>& out) const {
    return core_.durable_keys(out);
  }

  std::size_t size_slow() const { return core_.size_slow(); }
  std::size_t bucket_count() const { return core_.bucket_count(); }

 private:
  mutable HmHashMapCore<DtPolicy, Reclaimer> core_;
};

using DtHashMap = DtHashMapT<>;

// Volatile baseline ("Harris-HashMap"): the untransformed Harris-
// Michael table, the yardstick persistence overhead is measured from.
// No recover()/snapshot surface — like the Harris-LL baseline it is
// not detectable and the fuzzers skip its contents check.
template <typename Reclaimer = mem::EbrReclaimer>
class HarrisHashMapT {
 public:
  explicit HarrisHashMapT(int bucket_bits = 13)
      : core_(bucket_bits) {}

  bool insert(std::int64_t key) { return core_.insert(key); }
  bool erase(std::int64_t key) { return core_.erase(key); }
  bool find(std::int64_t key) { return core_.find(key); }

  std::size_t size_slow() const { return core_.size_slow(); }
  std::size_t bucket_count() const { return core_.bucket_count(); }

 private:
  mutable HmHashMapCore<NullPolicy, Reclaimer> core_;
};

using HarrisHashMap = HarrisHashMapT<>;

}  // namespace repro::ds
