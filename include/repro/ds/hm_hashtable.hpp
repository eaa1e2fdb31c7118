// Detectable split-ordered hash map (Shalev & Shavit, "Split-Ordered
// Lists: Lock-Free Extensible Hash Tables", JACM 2006): ONE Harris list
// holding every key in split order, plus a growing directory of
// shortcuts into it, driven by the shared HarrisOps algorithm layer
// (harris_core.hpp).  Because the map reuses the list's search/CAS
// logic verbatim, every persistence policy (IsbPolicy, DtPolicy,
// NullPolicy for the volatile baseline) transfers unchanged — the
// tracking transformation is per *operation*, and an operation here is
// one announce + one traversal from its bucket's dummy node.
//
// Topology.  A key's node is ordered by its split-order key: the
// bit-reversed hash with the low bit set (odd).  Bucket b of a
// 2^i-bucket table owns the hashes congruent to b mod 2^i and is a
// *dummy* node keyed by the bit-reversed b (even), which sorts right
// before its keys; bucket 0's dummy is the list's head sentinel (key
// INT64_MIN) and the tail sentinel (INT64_MAX) ends every walk:
//
//   head=d(0) ─> k ─> d(2) ─> k ─> k ─> d(1) ─> k ─> d(3) ─> k ─> tail
//   directory[b] ──> d(b), for every published bucket b
//
// The directory is a cache of published dummy pointers, never the
// source of truth: lazily allocated 512-slot segments (pool cells, so
// they land in the mmap arena when a heap is attached) under an inline
// segment table, read through a bucket count that doubles — never
// shrinks — when the map holds more than kLoad keys per bucket.  A
// bucket is initialised on first use by linking its dummy after its
// parent's (b with its top bit cleared), recursively.  Elements are
// counted per thread slot and the growth condition is checked only by
// an insert that succeeds, so the hot path does no shared
// read-modify-write.  The map object itself is vtable-free with no
// heap-owning members, the requirement for pmem::MmapHeap roots.
//
// Dummy-publish rule.  Inserting a dummy is not an announced
// operation: the dummy goes in with the policy's pre_publish and a link
// CAS, and it is published in the directory only after policy.expose
// made every link from its parent's dummy to it durable, the link
// from its predecessor (&pred->next) last — whether this thread linked
// it or found it linked.  So every published dummy is durably
// reachable, and a crash or SIGKILL image of the directory is valid
// whichever of its plain stores survived.  NullPolicy's expose is
// empty: the volatile map issues no persistence instruction.
//
// Stale-size restart.  A search that read a stale bucket count starts
// at an ancestor of its bucket and can end with its predecessor on a
// younger dummy another thread has linked but not yet published.  Such
// a search does not settle (HarrisOps's `At` locator): it first helps
// publish that dummy, then restarts through the directory, so no CAS
// and no response ever depends on an unpublished dummy.
//
// The durable walk is the flat list's, with dummies skipped and node
// keys mapped back to user keys — interleaved over ~8 cursors for
// memory-level parallelism (see durable_keys).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "repro/ds/harris_core.hpp"
#include "repro/ds/policies.hpp"

namespace repro::ds {

// The map's node keys.  User keys are [0, 2^62); hash() is a bijection
// of that range (SplitMix64's finalizer steps, each invertible mod
// 2^62) whose low bits pick the bucket.  Reversing a 62-bit value
// leaves the low two bits clear, so a regular key (reversed hash | 1)
// is odd, a dummy key (reversed bucket) is even, neither reaches the
// tail's all-ones, and bucket 0's dummy is 0 — the head sentinel.
// Node keys are those unsigned values shifted into int64 order.
struct SplitOrder {
  static constexpr std::uint64_t kKeyLimit = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kMask = kKeyLimit - 1;
  static constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ull;
  static constexpr std::uint64_t kMul2 = 0x94d049bb133111ebull;

  static constexpr std::uint64_t inverse(std::uint64_t a) {
    std::uint64_t x = a;  // correct to 3 bits for odd a; Newton doubles
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  }

  static std::uint64_t hash(std::int64_t key) {
    assert(key >= 0 && static_cast<std::uint64_t>(key) < kKeyLimit);
    auto x = static_cast<std::uint64_t>(key);
    x ^= x >> 31;
    x = (x * kMul1) & kMask;
    x ^= x >> 31;
    x = (x * kMul2) & kMask;
    return x ^ (x >> 31);
  }

  // x ^= x >> 31 is its own inverse on 62 bits.
  static std::int64_t unhash(std::uint64_t x) {
    x ^= x >> 31;
    x = (x * inverse(kMul2)) & kMask;
    x ^= x >> 31;
    x = (x * inverse(kMul1)) & kMask;
    return static_cast<std::int64_t>(x ^ (x >> 31));
  }

  static std::uint64_t reverse(std::uint64_t x) {
    x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
    x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
    x = ((x >> 4) & 0x0f0f0f0f0f0f0f0full) | ((x & 0x0f0f0f0f0f0f0f0full) << 4);
    return __builtin_bswap64(x);
  }

  static std::int64_t to_node(std::uint64_t u) {
    return static_cast<std::int64_t>(u ^ (std::uint64_t{1} << 63));
  }
  static std::uint64_t from_node(std::int64_t k) {
    return static_cast<std::uint64_t>(k) ^ (std::uint64_t{1} << 63);
  }

  static std::int64_t regular(std::uint64_t h) {
    return to_node(reverse(h) | 1);
  }
  static std::int64_t dummy(std::size_t bucket) {
    return to_node(reverse(bucket));
  }
  static bool is_dummy(std::int64_t node_key) { return (node_key & 1) == 0; }
  static std::size_t bucket_of(std::int64_t dummy_key) {
    return static_cast<std::size_t>(reverse(from_node(dummy_key)));
  }
  static std::int64_t user_key(std::int64_t regular_key) {
    return unhash(reverse(from_node(regular_key) ^ 1));
  }
};

// One lazily allocated directory segment: 512 published dummies, a
// 4 KiB pool cell.
struct HmDirSegment {
  static constexpr int kBits = 9;
  static constexpr std::size_t kSlots = std::size_t{1} << kBits;
  HmDirSegment() {
    for (auto& s : slot) s.store(nullptr, std::memory_order_relaxed);
  }
  std::atomic<ListNode*> slot[kSlots];
};

template <typename Policy, typename Reclaimer = mem::EbrReclaimer>
class HmHashMapCore {
 public:
  static constexpr int kMaxBucketBits = 20;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << kMaxBucketBits;
  // Keys per bucket, on average, before the bucket count doubles.
  static constexpr std::int64_t kLoad = 8;

  // Policies hold atomics (announcement boards) and cannot be moved, so
  // the map constructs its policy in place from the trailing args.
  // `bucket_bits` is the initial bucket count's log2.
  template <typename... Args>
  explicit HmHashMapCore(int bucket_bits, Args&&... args)
      : policy_(std::forward<Args>(args)...) {
    bucket_bits = std::clamp(bucket_bits, 0, kMaxBucketBits);
    size_.store(std::size_t{1} << bucket_bits, std::memory_order_relaxed);
    for (auto& s : segs_) s.store(nullptr, std::memory_order_relaxed);
    // Construction is unlogged: an empty list IS the durable baseline
    // a crash rewinds to.
    tail_ = Reclaimer::template create<Node>(
        std::numeric_limits<std::int64_t>::max(), nullptr);
    head_ = Reclaimer::template create<Node>(SplitOrder::dummy(0), tail_);
    HmDirSegment* seg0 = Reclaimer::template create<HmDirSegment>();
    seg0->slot[0].store(head_, std::memory_order_relaxed);
    segs_[0].store(seg0, std::memory_order_release);
  }

  ~HmHashMapCore() {
    Ops::destroy_segment(head_, nullptr);  // keys, dummies and the tail
    for (auto& s : segs_) {
      if (HmDirSegment* p = s.load(std::memory_order_relaxed)) {
        Reclaimer::template destroy<HmDirSegment>(p);
      }
    }
  }

  HmHashMapCore(const HmHashMapCore&) = delete;
  HmHashMapCore& operator=(const HmHashMapCore&) = delete;

  bool insert(std::int64_t key) {
    if (!Ops::insert(Bucket{this, SplitOrder::hash(key)}, tail_, policy_,
                     key)) {
      return false;
    }
    const int s = thread_slot();
    add_count(s, 1);
    int hw = slots_.load(std::memory_order_relaxed);
    while (s >= hw &&
           !slots_.compare_exchange_weak(hw, s + 1,
                                         std::memory_order_relaxed)) {
    }
    maybe_grow();
    return true;
  }

  bool erase(std::int64_t key) {
    if (!Ops::erase(Bucket{this, SplitOrder::hash(key)}, tail_, policy_,
                    key)) {
      return false;
    }
    add_count(thread_slot(), -1);
    return true;
  }

  bool find(std::int64_t key) {
    return Ops::find(Bucket{this, SplitOrder::hash(key)}, tail_, policy_,
                     key);
  }

  // Crash-time enumeration for the crash engine: the flat list's
  // defensive walk (every node a pool cell, one shared step budget),
  // dummies skipped.  kCursors cursors walk consecutive stretches of
  // the list in lockstep, one node each per round, so ~8 cache misses
  // are in flight instead of one.  Cursor c starts at the first
  // *published* dummy of its share of the directory (in split order)
  // and stops at the next cursor's start; on the way it must meet
  // every published dummy of its share in order — the walk fails
  // unless each published dummy is reached from the stretch before it,
  // so the union of the stretches is exactly the flat walk from the
  // head.  Output order is the round-robin interleaving: deterministic
  // for one image (the chain fuzzer's idempotence re-walk relies on
  // that) but not sorted; every consumer of durable contents compares
  // order-insensitively.
  bool durable_keys(std::vector<std::int64_t>& out,
                    std::size_t max_steps = std::size_t{1} << 22) const {
    out.clear();
    out.reserve(static_cast<std::size_t>(
        std::clamp<std::int64_t>(count(kMaxThreads), 0,
                                 static_cast<std::int64_t>(max_steps))));
    const std::size_t n = size_.load(std::memory_order_acquire);
    if (!std::has_single_bit(n) || n > kMaxBuckets) return false;
    const int bits = std::countr_zero(n);
    const auto view = mem::SlabDirectory::instance().view();
    const mem::SlabDirectory::Table& slabs = *view;

    // First split position in [p, end) holding a published dummy
    // (bucket = position reversed in `bits` bits), stored in `d`; `end`
    // if none, kTorn if an entry is not a pool cell holding its dummy.
    constexpr std::size_t kTorn = ~std::size_t{0};
    auto next_published = [&](std::size_t p, std::size_t end,
                              const Node*& d) {
      for (; p < end; ++p) {
        const std::size_t b =
            bits == 0 ? 0 : SplitOrder::reverse(p) >> (64 - bits);
        d = lookup(b);
        if (d == nullptr) continue;
        if (!slabs.owns(d) || d->key != SplitOrder::dummy(b)) return kTorn;
        return p;
      }
      return end;
    };

    struct Cursor {
      const Node* cur;     // next node to visit
      const Node* expect;  // next published dummy due, or where to stop
      std::size_t pos;     // expect's split position
      std::size_t end;     // the next cursor's start position, or n
      const Node* stop;    // the node at `end` (tail when end == n)
    };
    Cursor cs[kCursors];
    int active = 0;
    const std::size_t k = std::min<std::size_t>(kCursors, n);
    for (std::size_t c = 0; c < k; ++c) {
      const Node* d = nullptr;
      const std::size_t lo = c * n / k, hi = (c + 1) * n / k;
      const std::size_t p = next_published(lo, hi, d);
      if (p == kTorn) return false;
      if (p == hi) continue;  // no published dummy in this share
      if (active > 0) {
        cs[active - 1].end = p;
        cs[active - 1].stop = d;
      }
      cs[active++] = {d, d, p, n, tail_};
    }

    std::size_t steps = 0;
    int live = active;
    while (live > 0) {
      for (int c = 0; c < active; ++c) {
        Cursor& x = cs[c];
        const Node* node = x.cur;
        if (node == nullptr) continue;  // finished
        if (node == x.expect) {  // a published dummy, already vetted
          if (x.pos == x.end) {  // reached the next cursor's start
            x.cur = nullptr;
            --live;
            continue;
          }
          const Node* d = nullptr;
          const std::size_t p = next_published(x.pos + 1, x.end, d);
          if (p == kTorn) return false;
          x.pos = p;
          x.expect = p == x.end ? x.stop : d;
        } else if (node == tail_ || !slabs.owns(node) ||
                   node->key > x.expect->key) {
          // Ran off the end, into unowned memory, or — keys increase
          // along every link — past a published dummy it never met.
          return false;
        }
        if (++steps > max_steps) return false;  // cycle / runaway chain
        Node* nx = node->next.load();
        if (!Ops::is_marked(nx) && !SplitOrder::is_dummy(node->key)) {
          out.push_back(SplitOrder::user_key(node->key));
        }
        x.cur = Ops::unmark(nx);
        // Start fetching the cursor's next node now, so its miss
        // overlaps the other cursors' steps.
        __builtin_prefetch(x.cur);
      }
    }
    return true;
  }

  // Unmarked-key count; only meaningful while no other thread mutates.
  std::size_t size_slow() const {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    std::size_t n = 0;
    for (Node* c = Ops::unmark(head_->next.load()); c != tail_;) {
      Node* nx = c->next.load();
      if (!Ops::is_marked(nx) && !SplitOrder::is_dummy(c->key)) ++n;
      c = Ops::unmark(nx);
    }
    return n;
  }

  Policy& policy() { return policy_; }
  std::size_t bucket_count() const {
    return size_.load(std::memory_order_acquire);
  }

 private:
  using Node = ListNode;
  static constexpr int kCursors = 8;
  static constexpr std::size_t kSegMask = HmDirSegment::kSlots - 1;

  // Where an operation on a key with hash `hash` searches from: its
  // bucket's dummy under the bucket count read now (see HarrisOps's `At`).
  struct Bucket {
    HmHashMapCore* map;
    std::uint64_t hash;
    std::int64_t order(std::int64_t) const {
      return SplitOrder::regular(hash);
    }
    Node* start() const {
      return map->bucket(hash &
                         (map->size_.load(std::memory_order_acquire) - 1));
    }
    bool settled(const Node* start, const Node* left) const {
      return map->settled(start, left);
    }
  };

  // A dummy insertion's search (DummyOps::search only, so no order()):
  // from the parent bucket's dummy.
  struct From {
    HmHashMapCore* map;
    Node* parent;
    Node* start() const { return parent; }
    bool settled(const Node* start, const Node* left) const {
      return map->settled(start, left);
    }
  };

  using Ops = HarrisOps<Policy, Reclaimer, Bucket>;
  using DummyOps = HarrisOps<Policy, Reclaimer, From>;

  // A search may act on its predecessor unless that is a dummy other
  // than where it started and not yet published: then help publish it
  // and restart (see the stale-size rule in the header comment).
  bool settled(const Node* start, const Node* left) {
    if (left == start || !SplitOrder::is_dummy(left->key)) return true;
    const std::size_t b = SplitOrder::bucket_of(left->key);
    if (lookup(b) == left) return true;
    bucket(b);
    return false;
  }

  Node* lookup(std::size_t b) const {
    assert(b < kMaxBuckets);
    const HmDirSegment* s =
        segs_[b >> HmDirSegment::kBits].load(std::memory_order_acquire);
    return s == nullptr ? nullptr
                        : s->slot[b & kSegMask].load(std::memory_order_acquire);
  }

  // Bucket b's published dummy, initialising the bucket (and its
  // unpublished ancestors) first if needed.
  Node* bucket(std::size_t b) {
    Node* d = lookup(b);
    return d != nullptr ? d : init_bucket(b);
  }

  // Links bucket b's dummy after its parent's, or finds it already
  // linked, makes the path to it durable, then publishes it.  b > 0:
  // bucket 0 is the head, published at construction.
  [[gnu::noinline]] Node* init_bucket(std::size_t b) {
    Node* parent = bucket(b ^ std::bit_floor(b));
    const std::int64_t key = SplitOrder::dummy(b);
    typename Reclaimer::Guard guard;
    Node* node = nullptr;
    Node* left = nullptr;
    Node* d = nullptr;
    while (d == nullptr) {
      Node* right = DummyOps::search(From{this, parent}, tail_, policy_,
                                     guard, key, &left);
      if (right->key == key) {  // never the tail: its key is odd
        d = right;
        break;
      }
      if (node == nullptr) {
        node = Reclaimer::template create<Node>(key, nullptr);
      }
      node->next.store(right, std::memory_order_relaxed);
      policy_.pre_publish(node);
      Node* expected = right;
      if (left->next.cas(expected, node)) std::swap(d, node);
    }
    if (node != nullptr) {
      Reclaimer::template destroy<Node>(node);  // never linked
    }
    expose_path(parent, d, guard);
    publish(b, d);
    return d;
  }

  // Makes every link from `from`, a published dummy, to `to` durable
  // with policy.expose.  The link into `to` alone is not enough: its
  // predecessor may be a key whose insert has not yet persisted the
  // link into *it* (ROADMAP item 2), and a crash that drops that link
  // would leave the published dummy, and every later update of its
  // bucket, durably unreachable.  Later updates of a persisted path
  // keep `to` reachable: they link pre-published nodes or skip marked
  // ones.  A walk that stops leading to `to` — through a node unlinked
  // under it, or past `to` — restarts from `from`.
  void expose_path(Node* from, const Node* to,
                   typename Reclaimer::Guard& guard) {
    (void)guard;
    [[maybe_unused]] int hz = 1;
    for (Node* src = from; src != to;) {
      Node* link = src->next.load(std::memory_order_acquire);
      Node* n = Ops::unmark(link);
      if constexpr (Reclaimer::Guard::kHazards) {
        guard.protect(hz, n);  // as in HarrisOps::search
        if (src->next.load(std::memory_order_acquire) != link) {
          src = from;
          continue;
        }
        hz ^= 3;
      }
      policy_.expose(&src->next);
      src = n->key > to->key ? from : n;  // the tail's key is past all
    }
  }

  void publish(std::size_t b, Node* d) {
    std::atomic<HmDirSegment*>& cell = segs_[b >> HmDirSegment::kBits];
    HmDirSegment* s = cell.load(std::memory_order_acquire);
    if (s == nullptr) {
      HmDirSegment* fresh = Reclaimer::template create<HmDirSegment>();
      if (cell.compare_exchange_strong(s, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        s = fresh;
      } else {
        Reclaimer::template destroy<HmDirSegment>(fresh);
      }
    }
    s->slot[b & kSegMask].store(d, std::memory_order_release);
  }

  // Element counts live in per-thread-slot lines: each slot's count is
  // written only by its owner, with a plain load/store.
  void add_count(int slot, std::int64_t delta) {
    std::atomic<std::int64_t>& c = counts_[slot].n;
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }

  // Elements over the first `slots` thread slots.
  std::int64_t count(int slots) const {
    std::int64_t n = 0;
    for (int i = 0; i < slots; ++i) {
      n += counts_[i].n.load(std::memory_order_relaxed);
    }
    return n;
  }

  void maybe_grow() {
    std::size_t n = size_.load(std::memory_order_relaxed);
    if (n >= kMaxBuckets ||
        count(slots_.load(std::memory_order_relaxed)) <=
            kLoad * static_cast<std::int64_t>(n)) {
      return;
    }
    size_.compare_exchange_strong(n, 2 * n, std::memory_order_release,
                                  std::memory_order_relaxed);
  }

  struct alignas(64) SlotCount {
    std::atomic<std::int64_t> n{0};
  };

  Policy policy_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::atomic<std::size_t> size_{1};
  std::atomic<int> slots_{0};  // 1 + the highest slot that has counted
  std::atomic<HmDirSegment*> segs_[kMaxBuckets >> HmDirSegment::kBits];
  SlotCount counts_[kMaxThreads];
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
    int bucket_bits = 0;  // initial bucket count 1; grows with the keys
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
                      int bucket_bits = 0)
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

// Volatile baseline ("Harris-HashMap"): the untransformed split-ordered
// table, the yardstick persistence overhead is measured from.  No
// recover()/snapshot surface — like the Harris-LL baseline it is not
// detectable and the fuzzers skip its contents check.
template <typename Reclaimer = mem::EbrReclaimer>
class HarrisHashMapT {
 public:
  explicit HarrisHashMapT(int bucket_bits = 0) : core_(bucket_bits) {}

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
