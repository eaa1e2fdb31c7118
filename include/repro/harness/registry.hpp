// Process-wide registry of the evaluated structures.
//
// Every structure in ds/ and baselines/ registers exactly once, under
// its paper name (Section 5 / Section 6 naming), as a trait-tagged
// factory producing a type-erased instance.  Experiment specs select
// series by exact name, shell glob ("Isb*"), trait ("trait:paper-
// list"), kind ("kind:set"), or an '&'-composition of those atoms
// ("trait:detectable&kind:set"), so adding a structure to every
// relevant figure is one registration — no bench binary changes.
//
// Kinds and their type-erased interfaces:
//   set       — insert/erase/find over int64 keys (lists, BST, skiplist)
//   queue     — enqueue/dequeue of uint64 values
//   stack     — push/pop of uint64 values
//   exchanger — paired exchange of uint64 values
//
// Structures exposing the announcement-board recovery protocol
// (detectable.hpp) surface it through Structure::recover(); the crash
// scenario in experiment.hpp requires it (trait "detectable").
// Structures with a durable walk also get an on_heap hook that roots
// them on the mmap heap, which is how the kill harness drives them.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "repro/baselines/capsules_list.hpp"
#include "repro/baselines/capsules_queue.hpp"
#include "repro/baselines/harris_list.hpp"
#include "repro/baselines/log_queue.hpp"
#include "repro/baselines/ms_queue.hpp"
#include "repro/ds/detectable.hpp"
#include "repro/ds/dt_list.hpp"
#include "repro/ds/dt_skiplist.hpp"
#include "repro/ds/dt_stack.hpp"
#include "repro/ds/isb_bst.hpp"
#include "repro/ds/isb_exchanger.hpp"
#include "repro/ds/hm_hashtable.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/mem/hp.hpp"
#include "repro/mem/pop.hpp"
#include "repro/pmem/mmap_heap.hpp"

namespace repro::harness {

enum class Kind { set, queue, stack, exchanger };

inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::set: return "set";
    case Kind::queue: return "queue";
    case Kind::stack: return "stack";
    case Kind::exchanger: return "exchanger";
  }
  return "?";
}

// ---------------------------------------------------------------------
// Type-erased structure interfaces
// ---------------------------------------------------------------------

class Structure {
 public:
  virtual ~Structure() = default;
  // Detectable recovery, when the implementation supports it: what
  // thread `slot` would learn about its last operation after a crash.
  virtual bool detectable() const { return false; }
  virtual ds::Recovered recover(int /*slot*/) const { return {}; }
  // Crash-engine enumeration of the durable image, when the
  // implementation exposes one (lists: logical key set; queues: values
  // front to back).  Returning false means "no snapshot surface" from
  // the default, or "the durable image is inconsistent" from an
  // implementation — the fuzz verifier distinguishes the two by
  // checking the capability before the crash.
  virtual bool snapshot_keys(std::vector<std::int64_t>& /*out*/) const {
    return false;
  }
  virtual bool snapshot_values(
      std::vector<std::uint64_t>& /*out*/) const {
    return false;
  }
  virtual bool has_snapshot() const { return false; }
};

class SetIface : public Structure {
 public:
  static constexpr Kind kKind = Kind::set;
  virtual bool insert(std::int64_t k) = 0;
  virtual bool erase(std::int64_t k) = 0;
  virtual bool find(std::int64_t k) = 0;
};

class QueueIface : public Structure {
 public:
  static constexpr Kind kKind = Kind::queue;
  virtual void enqueue(std::uint64_t v) = 0;
  virtual bool dequeue(std::uint64_t& out) = 0;
};

class StackIface : public Structure {
 public:
  static constexpr Kind kKind = Kind::stack;
  virtual void push(std::uint64_t v) = 0;
  virtual bool pop(std::uint64_t& out) = 0;
};

class ExchangerIface : public Structure {
 public:
  static constexpr Kind kKind = Kind::exchanger;
  virtual bool exchange(std::uint64_t v, int attempts,
                        std::uint64_t& out) = 0;
};

namespace detail {
template <typename T>
concept Recoverable = requires(const T& t) {
  { t.recover(0) } -> std::convertible_to<ds::Recovered>;
};

template <typename T>
concept KeySnapshottable =
    requires(const T& t, std::vector<std::int64_t>& out) {
      { t.snapshot_keys(out) } -> std::convertible_to<bool>;
    };

template <typename T>
concept ValueSnapshottable =
    requires(const T& t, std::vector<std::uint64_t>& out) {
      { t.snapshot_values(out) } -> std::convertible_to<bool>;
    };
}  // namespace detail

// Adapters: recovery support is detected from the implementation, so a
// structure gains the "detectable" surface by merely exposing
// recover(int) (the shared AnnouncementBoard protocol).  `Impl` may be
// a reference: Adapter<Impl&> wraps an object it does not own, such as
// a root on the mmap heap.
template <typename Impl, typename Base>
class AdapterBase : public Base {
 public:
  template <typename... Args>
  explicit AdapterBase(Args&&... args)
      : impl(std::forward<Args>(args)...) {}

  bool detectable() const override { return detail::Recoverable<Impl>; }
  ds::Recovered recover(int slot) const override {
    if constexpr (detail::Recoverable<Impl>) {
      return impl.recover(slot);
    } else {
      (void)slot;
      return {};
    }
  }

  bool has_snapshot() const override {
    return detail::KeySnapshottable<Impl> ||
           detail::ValueSnapshottable<Impl>;
  }
  bool snapshot_keys(std::vector<std::int64_t>& out) const override {
    if constexpr (detail::KeySnapshottable<Impl>) {
      return impl.snapshot_keys(out);
    } else {
      (void)out;
      return false;
    }
  }
  bool snapshot_values(std::vector<std::uint64_t>& out) const override {
    if constexpr (detail::ValueSnapshottable<Impl>) {
      return impl.snapshot_values(out);
    } else {
      (void)out;
      return false;
    }
  }

 protected:
  Impl impl;
};

template <typename L>
struct SetAdapter final : AdapterBase<L, SetIface> {
  using AdapterBase<L, SetIface>::AdapterBase;
  bool insert(std::int64_t k) override { return this->impl.insert(k); }
  bool erase(std::int64_t k) override { return this->impl.erase(k); }
  bool find(std::int64_t k) override { return this->impl.find(k); }
};

template <typename Q>
struct QueueAdapter final : AdapterBase<Q, QueueIface> {
  using AdapterBase<Q, QueueIface>::AdapterBase;
  void enqueue(std::uint64_t v) override { this->impl.enqueue(v); }
  // Every queue, including the volatile MS-queue baseline, returns the
  // unified ds::DequeueResult, so one adapter body covers them all.
  bool dequeue(std::uint64_t& out) override {
    const auto r = this->impl.dequeue();
    out = r.value;
    return r.ok;
  }
};

template <typename S>
struct StackAdapter final : AdapterBase<S, StackIface> {
  using AdapterBase<S, StackIface>::AdapterBase;
  void push(std::uint64_t v) override { this->impl.push(v); }
  bool pop(std::uint64_t& out) override {
    const auto r = this->impl.pop();
    out = r.value;
    return r.ok;
  }
};

template <typename E>
struct ExchangerAdapter final : AdapterBase<E, ExchangerIface> {
  using AdapterBase<E, ExchangerIface>::AdapterBase;
  bool exchange(std::uint64_t v, int attempts,
                std::uint64_t& out) override {
    const auto r = this->impl.exchange(v, attempts);
    out = r.value;
    return r.ok;
  }
};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

struct AlgoEntry {
  std::string name;  // paper name, unique within the registry
  Kind kind;
  std::vector<std::string> traits;  // e.g. "detectable", "paper-list"
  std::function<std::unique_ptr<Structure>()> make;
  // Set when the implementation has a durable walk: roots it on `heap`
  // (constructing it when `create`, else only reattaching) and returns
  // a process-local adapter over the root, or nullptr when there is no
  // such root.  The root itself is vtable-free, so a fresh process that
  // maps the same heap file can reattach it.
  std::function<std::unique_ptr<Structure>(pmem::MmapHeap& heap,
                                           bool create)>
      on_heap = nullptr;

  // Whether verifiers check the durable image against a model: the
  // entry has a durable walk, and allocates from the pools that the
  // walk vouches for pointers against (the no-reclaim ablations use
  // raw `new`).
  bool walk_checked() const {
    return on_heap != nullptr && !has_trait("no-reclaim");
  }

  bool has_trait(std::string_view t) const {
    if (t == kind_name(kind)) return true;
    for (const auto& x : traits) {
      if (x == t) return true;
    }
    return false;
  }
};

// Shell-style glob over names: `*` any run, `?` any one character.
inline bool glob_match(std::string_view pat, std::string_view s) {
  if (pat.empty()) return s.empty();
  if (pat[0] == '*') {
    for (std::size_t i = 0; i <= s.size(); ++i) {
      if (glob_match(pat.substr(1), s.substr(i))) return true;
    }
    return false;
  }
  if (s.empty()) return false;
  if (pat[0] != '?' && pat[0] != s[0]) return false;
  return glob_match(pat.substr(1), s.substr(1));
}

class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  // Idempotent: a second registration under an existing name is
  // ignored (the inline-variable self-registration below runs once per
  // process, but user code re-registering a name is not an error).
  bool add(AlgoEntry e) {
    if (find(e.name) != nullptr) return false;
    entries_.push_back(std::move(e));
    return true;
  }

  const AlgoEntry* find(std::string_view name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  // One selector atom against one entry:
  //   "trait:X" — entries carrying trait X (the kind name counts as a
  //               trait, so "trait:set" works too);
  //   "kind:K"  — entries of kind K (the explicit spelling, clearer in
  //               composed selectors than the trait alias);
  //   glob      — anything containing `*`/`?` globs over names;
  //   otherwise — an exact name.
  static bool matches_atom(std::string_view atom, const AlgoEntry& e) {
    constexpr std::string_view kTrait = "trait:";
    constexpr std::string_view kKind = "kind:";
    if (atom.substr(0, kTrait.size()) == kTrait) {
      return e.has_trait(atom.substr(kTrait.size()));
    }
    if (atom.substr(0, kKind.size()) == kKind) {
      return atom.substr(kKind.size()) == kind_name(e.kind);
    }
    if (atom.find('*') != std::string_view::npos ||
        atom.find('?') != std::string_view::npos) {
      return glob_match(atom, e.name);
    }
    return atom == e.name;
  }

  // A selector is one or more atoms joined by '&'; an entry matches
  // when every atom does, so "trait:detectable&kind:set" selects
  // exactly the detectable sets (fuzzable key-value structures) and
  // "trait:hashmap&Isb-*" narrows a trait by name.  No registered name
  // contains '&', so the split is unambiguous.
  static bool matches(std::string_view selector, const AlgoEntry& e) {
    while (true) {
      const std::size_t amp = selector.find('&');
      const std::string_view atom = selector.substr(0, amp);
      if (!matches_atom(atom, e)) return false;
      if (amp == std::string_view::npos) return true;
      selector.remove_prefix(amp + 1);
    }
  }

  std::vector<const AlgoEntry*> select(std::string_view selector) const {
    std::vector<const AlgoEntry*> out;
    for (const auto& e : entries_) {
      if (matches(selector, e)) out.push_back(&e);
    }
    return out;
  }

  // Union over selectors, de-duplicated, selector order preserved.
  // Membership is tracked in a pointer set so N overlapping selectors
  // over an R-entry registry cost O(N·R) instead of the quadratic
  // every-entry-against-every-kept scan this used to do.
  std::vector<const AlgoEntry*> select_all(
      const std::vector<std::string>& selectors) const {
    std::vector<const AlgoEntry*> out;
    std::unordered_set<const AlgoEntry*> seen;
    for (const auto& sel : selectors) {
      for (const AlgoEntry* e : select(sel)) {
        if (seen.insert(e).second) out.push_back(e);
      }
    }
    return out;
  }

  const std::deque<AlgoEntry>& entries() const { return entries_; }

 private:
  Registry() = default;
  // A deque keeps AlgoEntry references/pointers stable across add():
  // expanded Points and registered benchmark lambdas hold AlgoEntry*,
  // and user code may register structures at any time.
  std::deque<AlgoEntry> entries_;
};

// One registration: `make` builds Adapter<Impl>(args...), the kind is
// the adapter's interface kind, and an Impl with a durable walk also
// gets the on_heap hook, which roots Impl(args...) on the heap under
// the entry's name and hands out an Adapter<Impl&> over it.
template <template <typename> class Adapter, typename Impl,
          typename... Args>
bool register_structure(std::string name, std::vector<std::string> traits,
                        Args... args) {
  AlgoEntry e{std::move(name), Adapter<Impl>::kKind, std::move(traits),
              [args...]() -> std::unique_ptr<Structure> {
                return std::make_unique<Adapter<Impl>>(args...);
              }};
  if constexpr (detail::KeySnapshottable<Impl> ||
                detail::ValueSnapshottable<Impl>) {
    e.on_heap = [root = e.name, args...](
                    pmem::MmapHeap& heap,
                    bool create) -> std::unique_ptr<Structure> {
      Impl* p = create ? heap.root<Impl>(root.c_str(), args...)
                       : heap.find_root<Impl>(root.c_str());
      if (p == nullptr) return nullptr;
      return std::make_unique<Adapter<Impl&>>(*p);
    };
  }
  return Registry::instance().add(std::move(e));
}

// ---------------------------------------------------------------------
// Built-in registrations (the paper's evaluated structures)
// ---------------------------------------------------------------------

namespace detail {

// Initial bucket count (log2) of the registry's hash maps: one bucket,
// which each map doubles as it fills.
inline constexpr int hm_bucket_bits() { return 0; }

// REPRO_RECLAIMER=ebr|hp|pop narrows reclaimer-tagged selectors to one
// scheme (the CI fuzz legs sweep the matrix one column at a time).
// Returns the validated scheme name, or "" when unset/garbage — the
// caller then runs its full default selection.
inline std::string reclaimer_filter() {
  if (const char* v = std::getenv("REPRO_RECLAIMER")) {
    const std::string s = v;
    if (s == "ebr" || s == "hp" || s == "pop") return s;
  }
  return "";
}

inline bool register_builtins() {
  using baselines::CapsulesList;
  using baselines::CapsulesQueue;
  using ds::DtStack;
  using ds::IsbHashMap;
  using ds::IsbList;
  using ds::PersistProfile;
  constexpr PersistProfile kGeneral = PersistProfile::general;
  constexpr PersistProfile kOptimized = PersistProfile::optimized;

  // Section 5 list series (Figures 1, 3-6): trait "paper-list".
  register_structure<SetAdapter, IsbList>(
      "Isb",
      {"detectable", "persistent", "paper-list", "isb-list",
       "reclaimer-ebr"},
      IsbList::Config{kGeneral, true});
  // reclaimer-ebr keeps Isb-Opt inside the REPRO_RECLAIMER=ebr CI leg:
  // it rides along in the reclaim-fuzz figure (its fence-free
  // post_update flushes are the persist-before-retire detection path).
  register_structure<SetAdapter, IsbList>(
      "Isb-Opt",
      {"detectable", "persistent", "paper-list", "isb-list",
       "reclaimer-ebr"},
      IsbList::Config{kOptimized, true});
  register_structure<SetAdapter, CapsulesList>(
      "Capsules", {"persistent", "paper-list", "capsules"},
      CapsulesList::Variant::general);
  register_structure<SetAdapter, CapsulesList>(
      "Capsules-Opt", {"persistent", "paper-list", "capsules"},
      CapsulesList::Variant::optimized);
  register_structure<SetAdapter, ds::DtList>(
      "DT-Opt", {"detectable", "persistent", "paper-list", "dt"},
      kOptimized);
  // Outside the headline series: the general DT placement and the
  // volatile Harris baseline (Figure 4).
  register_structure<SetAdapter, ds::DtList>(
      "DT", {"detectable", "persistent", "dt"}, kGeneral);
  register_structure<SetAdapter, baselines::HarrisList>(
      "Harris-LL", {"volatile", "baseline"});
  // Memory-subsystem ablations: the seed's raw-new / leak-everything
  // allocation, so the EBR+pool win stays measurable in-tree.
  register_structure<SetAdapter, baselines::HarrisListLeaky>(
      "Harris-LL-leak", {"volatile", "baseline", "ablation", "no-reclaim"});
  register_structure<SetAdapter, ds::IsbListT<mem::LeakReclaimer>>(
      "Isb-leak",
      {"detectable", "persistent", "isb-list", "ablation", "no-reclaim"});
  // Ablation variants: Algorithm-2 read-only optimization disabled.
  register_structure<SetAdapter, IsbList>(
      "Isb-noROopt", {"detectable", "persistent", "isb-list", "ablation"},
      IsbList::Config{kGeneral, false});
  register_structure<SetAdapter, IsbList>(
      "Isb-Opt-noROopt",
      {"detectable", "persistent", "isb-list", "ablation"},
      IsbList::Config{kOptimized, false});

  // Harris-Michael hash map (ROADMAP item 1): the same transformations
  // over a split-ordered Harris list — trait "hashmap", and
  // "detectable" so every fuzz family sweeps the detectable variants
  // automatically.
  register_structure<SetAdapter, IsbHashMap>(
      "Isb-HashMap", {"detectable", "persistent", "hashmap", "isb-list"},
      IsbHashMap::Config{kGeneral, true, hm_bucket_bits()});
  register_structure<SetAdapter, IsbHashMap>(
      "Isb-HashMap-Opt",
      {"detectable", "persistent", "hashmap", "isb-list"},
      IsbHashMap::Config{kOptimized, true, hm_bucket_bits()});
  register_structure<SetAdapter, ds::DtHashMap>(
      "DT-HashMap",
      {"detectable", "persistent", "hashmap", "dt", "reclaimer-ebr"},
      kGeneral, hm_bucket_bits());
  register_structure<SetAdapter, ds::HarrisHashMap>(
      "Harris-HashMap", {"volatile", "baseline", "hashmap"},
      hm_bucket_bits());

  // Reclamation-scheme matrix (ROADMAP item 2): the same structures
  // under hazard pointers and publish-on-ping epochs.  One list, one
  // queue and one hash map per scheme keeps the cross-product useful
  // without doubling every fuzz sweep; trait "reclaimer-<scheme>"
  // selects a column (the EBR bases above carry "reclaimer-ebr").
  register_structure<SetAdapter, ds::IsbListT<mem::HpReclaimer>>(
      "Isb-List-HP",
      {"detectable", "persistent", "isb-list", "reclaimer-hp"});
  register_structure<SetAdapter, ds::IsbListT<mem::PopReclaimer>>(
      "Isb-List-POP",
      {"detectable", "persistent", "isb-list", "reclaimer-pop"});
  register_structure<QueueAdapter, ds::IsbQueueT<mem::HpReclaimer>>(
      "Isb-Queue-HP", {"detectable", "persistent", "reclaimer-hp"});
  register_structure<QueueAdapter, ds::IsbQueueT<mem::PopReclaimer>>(
      "Isb-Queue-POP", {"detectable", "persistent", "reclaimer-pop"});
  register_structure<SetAdapter, ds::DtHashMapT<mem::HpReclaimer>>(
      "DT-HashMap-HP",
      {"detectable", "persistent", "hashmap", "dt", "reclaimer-hp"},
      kGeneral, hm_bucket_bits());
  register_structure<SetAdapter, ds::DtHashMapT<mem::PopReclaimer>>(
      "DT-HashMap-POP",
      {"detectable", "persistent", "hashmap", "dt", "reclaimer-pop"},
      kGeneral, hm_bucket_bits());

  // Queue series (Figure 7): trait "paper-queue".
  register_structure<QueueAdapter, ds::IsbQueue>(
      "Isb-Queue",
      {"detectable", "persistent", "paper-queue", "reclaimer-ebr"});
  register_structure<QueueAdapter, baselines::LogQueue>(
      "Log-Queue", {"persistent", "paper-queue"});
  register_structure<QueueAdapter, CapsulesQueue>(
      "Capsules-General", {"persistent", "paper-queue", "capsules"},
      CapsulesQueue::Variant::general);
  register_structure<QueueAdapter, CapsulesQueue>(
      "Capsules-Normal", {"persistent", "paper-queue", "capsules"},
      CapsulesQueue::Variant::normalized);
  register_structure<QueueAdapter, baselines::MsQueue>(
      "MS-Queue", {"volatile", "baseline"});
  register_structure<QueueAdapter, baselines::MsQueueLeaky>(
      "MS-Queue-leak", {"volatile", "baseline", "ablation", "no-reclaim"});

  // Section 6 structures.
  register_structure<SetAdapter, ds::IsbBst>(
      "Bst-Isb", {"detectable", "persistent", "bst"}, kGeneral);
  register_structure<SetAdapter, ds::IsbBst>(
      "Bst-Isb-Opt", {"detectable", "persistent", "bst"}, kOptimized);
  register_structure<SetAdapter, ds::DtSkipList>(
      "DT-SkipList", {"detectable", "persistent", "skiplist"});
  register_structure<StackAdapter, DtStack>(
      "DT-Treiber", {"detectable", "persistent"});
  register_structure<StackAdapter, DtStack>(
      "DT-Elimination", {"detectable", "persistent", "elimination"},
      DtStack::Config{true});
  register_structure<ExchangerAdapter, ds::IsbExchanger>(
      "Isb-Exchanger", {"detectable", "persistent"});
  return true;
}

// Self-registration: including this header anywhere in the program
// populates the registry during static initialisation, once.
inline const bool builtins_registered = register_builtins();

}  // namespace detail

}  // namespace repro::harness
