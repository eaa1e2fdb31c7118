// Harris lock-free linked list, parameterised by a persistence policy
// and a memory reclaimer.
//
// The paper evaluates one underlying list (Harris's marked-pointer list)
// under several detectable-recovery transformations that differ only in
// *where* they place pwb/pfence/psync and what per-thread recovery
// metadata they maintain.  The core therefore owns all traversal and CAS
// logic exactly once and surfaces the transformation points as policy
// hooks:
//
//   op_start(kind, key, read_only)      — operation announced
//   visit(node, marked)                 — node traversed during search
//   pre_cas(addr)                       — about to attempt a CAS
//   post_update(primary, secondary)     — a structural CAS succeeded
//   op_end(ok, result, read_only)       — operation response decided
//
// The algorithm itself lives in HarrisOps: static functions over an
// explicit *segment* — a start node, a tail sentinel, and the chain
// between them.  HarrisListCore runs them over its single segment from
// its head sentinel; the split-ordered hash map (hm_hashtable.hpp) runs
// them over one flat list from a bucket's dummy node, ordering nodes by
// a split-order key instead of the announced one and sharing one
// policy, so every persistence transformation transfers to the hash
// map without a line of new CAS logic.
//
// baselines::HarrisList instantiates the core with the no-op policy;
// the ISB, DT and Capsules lists instantiate it with their respective
// policies (see isb_list.hpp / dt_list.hpp / baselines/capsules_list.hpp).
//
// Memory management (the Reclaimer parameter, default mem::EbrReclaimer):
// nodes come from the per-thread pool, every operation runs inside an
// epoch guard, and each physically-unlinked node is retired exactly once
// — by the thread whose CAS removed it from the list (erase's unlink CAS
// or search's marked-chain snip; expected-value CAS semantics make the
// winner unique).  After its grace period a retired node is recycled
// into the owning pool instead of leaked.  mem::LeakReclaimer recovers
// the seed's leak-everything behaviour for ablation runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/mem/ebr.hpp"

namespace repro::ds {

// One list cell; shared by every policy instantiation so all Harris
// variants draw from (and recycle into) the same node pool.  The link
// is a pmem::persist word: it is the state the persistence policies
// flush, so in shadow-NVM mode its mutations route through the
// write-log and a simulated crash can rewind it to the durable image.
// Construction is not logged (a node's initial fields model its state
// before it was ever published); outside shadow mode persist<> is a
// plain atomic.
struct ListNode {
  ListNode(std::int64_t k, ListNode* n) : key(k), next(n) {}
  std::int64_t key;
  pmem::persist<ListNode*> next;
};

// ---------------------------------------------------------------------
// The algorithm layer: Harris search/insert/erase/find over one
// segment.  Each entry point brackets itself with the policy's
// op_start/op_end and an epoch guard, so a caller that starts searches
// at many places (the hash map) announces exactly one operation per
// call — the detectability contract is per *operation*, not per
// segment.
//
// Where a search starts is the `At` parameter, passed by value.  The
// flat list passes its head node.  The split-ordered hash map
// (hm_hashtable.hpp) passes a locator with three members:
//   order(key)          — the node key `key` is stored and searched
//                         under;
//   start()             — the node a search begins at, and restarts
//                         from after an unsettled result;
//   settled(start, l)   — whether an update may act on a search that
//                         began at `start` and ended with predecessor
//                         `l`; false restarts the search from start().
// A head node is the identity on all three (kFlat below), so the flat
// list compiles to the code its (head, tail) signature did.
// ---------------------------------------------------------------------
template <typename Policy, typename Reclaimer = mem::EbrReclaimer,
          typename At = ListNode*>
struct HarrisOps {
  using Node = ListNode;

  static constexpr bool kFlat = std::is_same_v<At, Node*>;
  static std::int64_t order_of(const At& at, std::int64_t key) {
    if constexpr (kFlat) return key;
    else return at.order(key);
  }
  static Node* start_of(const At& at) {
    if constexpr (kFlat) return at;
    else return at.start();
  }
  static bool settled_at(const At& at, const Node* start, const Node* left) {
    if constexpr (kFlat) return true;
    else return at.settled(start, left);
  }

  static bool is_marked(Node* p) {
    return (reinterpret_cast<std::uintptr_t>(p) & 1u) != 0;
  }
  static Node* mark(Node* p) {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) |
                                   1u);
  }
  static Node* unmark(Node* p) {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) &
                                   ~std::uintptr_t{1});
  }

  static bool insert(At at, Node* tail, Policy& policy, std::int64_t key) {
    typename Reclaimer::Guard guard;
    policy.op_start(OpKind::insert, key, false);
    const std::int64_t okey = order_of(at, key);
    Node* node = nullptr;
    bool ok = false;
    while (true) {
      Node* left = nullptr;
      Node* right = search(at, tail, policy, guard, okey, &left);
      if (right != tail && right->key == okey) {
        ok = false;
        break;
      }
      if (node == nullptr) {
        node = Reclaimer::template create<Node>(okey, nullptr);
      }
      node->next.store(right, std::memory_order_relaxed);
      // Persist the initialised node before any durable link to it can
      // exist (see the policies' pre_publish contract).
      policy.pre_publish(node);
      policy.pre_cas(&left->next);
      Node* expected = right;
      if (left->next.cas(expected, node)) {
        policy.post_update(&left->next, node);
        ok = true;
        break;
      }
    }
    if (!ok && node != nullptr) {
      Reclaimer::template destroy<Node>(node);  // never linked
    }
    policy.op_end(ok, ok ? 1 : 0, false);
    return ok;
  }

  static bool erase(At at, Node* tail, Policy& policy, std::int64_t key) {
    typename Reclaimer::Guard guard;
    policy.op_start(OpKind::erase, key, false);
    const std::int64_t okey = order_of(at, key);
    bool ok = false;
    while (true) {
      Node* left = nullptr;
      Node* right = search(at, tail, policy, guard, okey, &left);
      if (right == tail || right->key != okey) {
        ok = false;
        break;
      }
      Node* right_next = right->next.load(std::memory_order_acquire);
      if (!is_marked(right_next)) {
        policy.pre_cas(&right->next);
        Node* expected = right_next;
        // Logical deletion: set the mark bit on right's next pointer.
        if (right->next.cas(expected, mark(right_next))) {
          policy.post_update(&right->next, nullptr);
          // Best-effort physical unlink; search() will finish the job
          // if this fails.
          policy.pre_cas(&left->next);
          Node* expl = right;
          if (left->next.cas(expl, right_next)) {
            policy.post_update(&left->next, nullptr);
            // This CAS (uniquely) unlinked right: it is ours to retire.
            Reclaimer::template retire<Node>(right);
          }
          ok = true;
          break;
        }
      }
    }
    policy.op_end(ok, ok ? 1 : 0, false);
    return ok;
  }

  static bool find(At at, Node* tail, Policy& policy, std::int64_t key) {
    typename Reclaimer::Guard guard;
    policy.op_start(OpKind::find, key, true);
    const std::int64_t okey = order_of(at, key);
    Node* left = nullptr;
    Node* right = search(at, tail, policy, guard, okey, &left);
    const bool ok = (right != tail && right->key == okey);
    policy.op_end(ok, ok ? 1 : 0, true);
    return ok;
  }

  // Harris search: returns the first unmarked node with key >= `key`
  // and its unmarked predecessor, unlinking (and retiring) any marked
  // chain in between.  A predecessor that `at` does not settle restarts
  // the search before any CAS on it.
  //
  // Under a hazard-pointer reclaimer (Guard::kHazards) every step runs
  // the protect/validate protocol: the candidate is published in a
  // hazard cell, then the link it was read from is re-read — a
  // mismatch means the candidate may already be unlinked (and past a
  // scan), so the traversal restarts.  Three hazard cells suffice:
  // slot 0 pins `left` (the CAS target after the search returns) and
  // slots 1/2 alternate between the current node and its source, so
  // the node a link was read *from* stays protected while the node it
  // points *to* is validated.  Epoch reclaimers compile all of it out
  // (kHazards == false).
  static Node* search(At at, Node* tail, Policy& policy,
                      typename Reclaimer::Guard& guard,
                      std::int64_t key, Node** left_node) {
    (void)guard;
    Node* head = start_of(at);
    while (true) {
      Node* left = head;
      Node* left_next = head->next.load(std::memory_order_acquire);
      Node* t = head;
      Node* t_next = left_next;
      [[maybe_unused]] int hz = 1;
      bool restart = false;
      // Phase 1: advance until the first unmarked node with key >= key,
      // remembering the last unmarked predecessor.
      do {
        if (!is_marked(t_next)) {
          left = t;
          left_next = t_next;
          if constexpr (Reclaimer::Guard::kHazards) {
            // t is already covered by a rotating slot; slot 0 keeps it
            // covered after the rotation moves on.
            guard.protect(0, left);
          }
        }
        [[maybe_unused]] Node* src = t;
        [[maybe_unused]] Node* link = t_next;
        t = unmark(t_next);
        if (t == tail) break;
        if constexpr (Reclaimer::Guard::kHazards) {
          guard.protect(hz, t);
          // Validate: src (head, or protected by the other rotating
          // slot) must still link to t exactly as first read, or t may
          // already be unlinked — and reclaimed the moment our hazard
          // store lost the race with a scan.
          if (src->next.load(std::memory_order_acquire) != link) {
            restart = true;
            break;
          }
          hz ^= 3;  // 1 <-> 2: keep t protected while its successor is
                    // validated against it next iteration
        }
        t_next = t->next.load(std::memory_order_acquire);
        policy.visit(t, is_marked(t_next));
      } while (is_marked(t_next) || t->key < key);
      if (restart) continue;
      if (!settled_at(at, head, left)) {
        head = start_of(at);
        continue;
      }
      Node* right = t;

      // Phase 2: adjacent — done, unless right got marked meanwhile.
      if (left_next == right) {
        if (right != tail &&
            is_marked(right->next.load(std::memory_order_acquire))) {
          continue;
        }
        *left_node = left;
        return right;
      }

      // Phase 3: snip out the marked chain between left and right.
      policy.pre_cas(&left->next);
      Node* expected = left_next;
      if (left->next.cas(expected, right)) {
        policy.post_update(&left->next, nullptr);
        // The snip succeeded, so this thread exclusively owns the
        // marked chain [left_next, right): retire each node once.
        for (Node* p = unmark(left_next); p != right;) {
          Node* nx = unmark(p->next.load(std::memory_order_relaxed));
          Reclaimer::template retire<Node>(p);
          p = nx;
        }
        if (right != tail &&
            is_marked(right->next.load(std::memory_order_acquire))) {
          continue;
        }
        *left_node = left;
        return right;
      }
    }
  }

  // Crash-time enumeration of one segment: appends the logical
  // (unmarked) keys reachable from `head` (exclusive) up to `tail`, in
  // link order.  After a simulated crash the links physically hold the
  // durable image, so an ordinary traversal reads durable truth — but
  // a detectability bug can leave a durable link into memory that was
  // never durably initialised, so the walk is defensive: each candidate
  // node must be a pool cell of `slabs` (the caller's view of
  // mem::SlabDirectory) and at most max_steps nodes are visited, which
  // caps cycles.  Returns false — a verification failure, not UB — on
  // any anomaly.  Single-threaded: call with no concurrent mutators.
  static bool durable_segment(Node* head, Node* tail,
                              std::vector<std::int64_t>& out,
                              const mem::SlabDirectory::Table& slabs,
                              std::size_t max_steps) {
    Node* c = unmark(head->next.load());
    std::size_t steps = 0;
    while (c != tail) {
      if (++steps > max_steps) return false;  // cycle / runaway chain
      if (!slabs.owns(c)) return false;
      Node* nx = c->next.load();
      if (!is_marked(nx)) out.push_back(c->key);
      c = unmark(nx);
    }
    return true;
  }

  // Unmarked-node count of one segment; only meaningful while no other
  // thread mutates.
  static std::size_t size_segment(Node* head, Node* tail) {
    std::size_t n = 0;
    for (Node* c = unmark(head->next.load()); c != tail;
         c = unmark(c->next.load())) {
      if (!is_marked(c->next.load())) ++n;
    }
    return n;
  }

  // Teardown: destroys every node linked from `head` (inclusive) until
  // `stop` (exclusive; pass nullptr to run off the end of the chain) —
  // including marked (logically-deleted but not yet physically
  // unlinked) nodes, which the unmark() walk reaches like any other
  // cell.  Unlinked nodes are not the destructor's to free: their
  // unlinker retired them and the epoch reclaimer returns them to the
  // pool independently of the structure's lifetime.
  static void destroy_segment(Node* head, Node* stop) {
    Node* n = head;
    while (n != stop) {
      Node* nx = unmark(n->next.load(std::memory_order_relaxed));
      Reclaimer::template destroy<Node>(n);
      n = nx;
    }
  }
};

template <typename Policy, typename Reclaimer = mem::EbrReclaimer>
class HarrisListCore {
 public:
  // Policies hold atomics (announcement boards, capsules) and cannot be
  // moved, so the core constructs its policy in place.
  template <typename... Args>
  explicit HarrisListCore(Args&&... args)
      : policy_(std::forward<Args>(args)...) {
    head_ = Reclaimer::template create<Node>(
        std::numeric_limits<std::int64_t>::min(), nullptr);
    tail_ = Reclaimer::template create<Node>(
        std::numeric_limits<std::int64_t>::max(), nullptr);
    head_->next.store(tail_, std::memory_order_relaxed);
  }

  ~HarrisListCore() { Ops::destroy_segment(head_, nullptr); }

  HarrisListCore(const HarrisListCore&) = delete;
  HarrisListCore& operator=(const HarrisListCore&) = delete;

  bool insert(std::int64_t key) {
    return Ops::insert(head_, tail_, policy_, key);
  }

  bool erase(std::int64_t key) {
    return Ops::erase(head_, tail_, policy_, key);
  }

  bool find(std::int64_t key) {
    return Ops::find(head_, tail_, policy_, key);
  }

  // Crash-time enumeration for the crash engine: collects the logical
  // (unmarked) keys reachable from head_, in order; see
  // HarrisOps::durable_segment for the defensive-walk contract.
  bool durable_keys(std::vector<std::int64_t>& out,
                    std::size_t max_steps = 1u << 20) const {
    out.clear();
    return Ops::durable_segment(head_, tail_, out,
                                *mem::SlabDirectory::instance().view(),
                                max_steps);
  }

  // Unmarked-node count; only meaningful while no other thread mutates.
  std::size_t size_slow() const {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    return Ops::size_segment(head_, tail_);
  }

  Policy& policy() { return policy_; }

 private:
  using Node = ListNode;
  using Ops = HarrisOps<Policy, Reclaimer>;

  Node* head_;
  Node* tail_;
  Policy policy_;
};

}  // namespace repro::ds
