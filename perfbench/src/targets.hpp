// The structures a perfbench workload drives, each reached through the
// registry (`Registry::find(name)->make()`, the path every figure and
// fuzzer uses) and driven through its type-erased interface.  A target
// checks its own outputs, and builds the fresh structures the layer
// ladder compares: the same structure (also called through its concrete
// adapter type, a `final` class, so the call is direct), its volatile
// baseline, and its leak-reclaimer variant.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "measure.hpp"
#include "repro/harness/registry.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/workload.hpp"

namespace perfbench {

namespace h = repro::harness;

inline const h::AlgoEntry& registry_entry(const char* name) {
  const h::AlgoEntry* e = h::Registry::instance().find(name);
  if (e == nullptr) {
    std::fprintf(stderr, "perfbench: '%s' is not registered\n", name);
    std::exit(1);
  }
  return *e;
}

template <typename T>
T& checked_cast(h::Structure* s, const char* name) {
  auto* t = dynamic_cast<T*>(s);
  if (t == nullptr) {
    std::fprintf(stderr, "perfbench: '%s' has an unexpected adapter type\n",
                 name);
    std::exit(1);
  }
  return *t;
}

using Factory = std::function<std::unique_ptr<h::Structure>()>;

struct SetSpec {
  const char* name;           // the detectable structure (registry)
  const char* volatile_name;  // its volatile baseline (registry)
  Factory make_leak;          // the same structure over LeakReclaimer
  std::int64_t range;         // keys drawn uniformly from [1, range]
  int prefill_pct;
  h::Mix mix;
};

// A set under a uniform insert/erase/find mix, checked by per-key
// conservation against live finds and the durable walk.  `Direct` is
// the registry's concrete adapter type for `spec.name`.
template <typename Direct>
class SetTarget {
 public:
  static constexpr int kKinds = 3;
  static constexpr const char* kKindNames[kKinds] = {"insert", "erase",
                                                     "find"};

  SetTarget(SetSpec spec, std::uint64_t seed, int threads)
      : spec_(std::move(spec)),
        seed_(seed),
        threads_(threads),
        workload_(spec_.range, spec_.mix),
        check_(spec_.range, threads),
        scratch_(spec_.range, threads) {}

  // Makes and prefills the measured structure; returns the seconds
  // make() took.  Any previous structure is destroyed first.
  double setup() {
    set_ = nullptr;
    main_.reset();
    check_ = SetCheck(spec_.range, threads_);
    scratch_ = SetCheck(spec_.range, threads_);
    const auto t0 = Clock::now();
    main_ = registry_entry(spec_.name).make();
    const double make_s = seconds_since(t0);
    set_ = &checked_cast<h::SetIface>(main_.get(), spec_.name);
    prefill(*set_, [this](std::int64_t k) { check_.mark_prefilled(k); });
    rngs_.clear();
    scratch_rngs_.clear();
    for (int t = 0; t < threads_; ++t) {
      const auto salt = static_cast<std::uint64_t>(t);
      rngs_.emplace_back(h::mix_seed(seed_, 0x5E70000 + salt));
      scratch_rngs_.emplace_back(h::mix_seed(seed_, 0x5C70000 + salt));
    }
    return make_s;
  }

  int body(int t) { return op(*set_, t, rngs_, check_); }

  // Ladder structures: fresh, prefilled like the measured one, driven
  // by the same op stream; their outputs are not checked.
  int scratch_body(h::Structure& s, int t) {
    return op(static_cast<h::SetIface&>(s), t, scratch_rngs_, scratch_);
  }
  int scratch_direct_body(h::Structure& s, int t) {
    return op(static_cast<Direct&>(s), t, scratch_rngs_, scratch_);
  }
  std::unique_ptr<h::Structure> make_subject() const {
    auto s = prefilled(registry_entry(spec_.name).make());
    checked_cast<Direct>(s.get(), spec_.name);
    return s;
  }
  std::unique_ptr<h::Structure> make_volatile() const {
    return prefilled(registry_entry(spec_.volatile_name).make());
  }
  std::unique_ptr<h::Structure> make_leak() const {
    return prefilled(spec_.make_leak());
  }

  h::Structure& structure() { return *main_; }
  // Keys whose membership each verification pass checks.
  std::uint64_t items() const {
    return static_cast<std::uint64_t>(spec_.range);
  }

  // One verification pass: the durable walk (timed into `walk_s`)
  // and per-key conservation against it.
  std::uint64_t verify(double& walk_s) {
    std::vector<std::int64_t> keys;
    const auto t0 = Clock::now();
    const bool ok = set_->snapshot_keys(keys);
    walk_s = seconds_since(t0);
    return check_.check(ok, keys);
  }

  // Checked once, after the verification passes: conservation against
  // live finds.
  std::uint64_t final_check() {
    return check_.check_live([this](std::int64_t k) { return set_->find(k); });
  }

 private:
  template <typename S>
  int op(S& s, int t, std::vector<h::Rng>& rngs, SetCheck& check) {
    h::Rng& rng = rngs[static_cast<std::size_t>(t)];
    const std::int64_t k = workload_.pick_key(rng);
    switch (workload_.pick_op(rng)) {
      case h::OpType::insert:
        if (s.insert(k)) ++check.lane(t)[k];
        return 0;
      case h::OpType::erase:
        if (s.erase(k)) --check.lane(t)[k];
        return 1;
      case h::OpType::find:
        break;
    }
    (void)s.find(k);
    return 2;
  }

  template <typename Mark>
  void prefill(h::SetIface& s, Mark&& mark) const {
    h::Rng rng(h::mix_seed(seed_, 0xC0FFEE));
    for (std::int64_t k = 1; k <= spec_.range; ++k) {
      if (rng.below(100) < static_cast<std::uint64_t>(spec_.prefill_pct) &&
          s.insert(k)) {
        mark(k);
      }
    }
  }

  std::unique_ptr<h::Structure> prefilled(
      std::unique_ptr<h::Structure> s) const {
    prefill(checked_cast<h::SetIface>(s.get(), spec_.name),
            [](std::int64_t) {});
    return s;
  }

  SetSpec spec_;
  std::uint64_t seed_;
  int threads_;
  h::Workload workload_;
  SetCheck check_;
  SetCheck scratch_;
  std::vector<h::Rng> rngs_;
  std::vector<h::Rng> scratch_rngs_;
  std::unique_ptr<h::Structure> main_;
  h::SetIface* set_ = nullptr;
};

struct QueueSpec {
  const char* name;
  const char* volatile_name;
  Factory make_leak;
  std::uint64_t prefill;
};

// A prefilled queue; each worker alternates enqueue and dequeue.
// Checked by per-producer FIFO order, exactly-once delivery, size
// conservation, and a final drain that must match the durable walk.
template <typename Direct>
class QueueTarget {
 public:
  static constexpr int kKinds = 2;
  static constexpr const char* kKindNames[kKinds] = {"enqueue", "dequeue"};

  QueueTarget(QueueSpec spec, std::uint64_t seed, int threads)
      : spec_(std::move(spec)),
        seed_(seed),
        threads_(threads),
        tag_(h::mix_seed(seed, 0x7A6) & 0xFF),
        check_(threads + 1, threads + 1, tag_) {}

  double setup() {
    queue_ = nullptr;
    main_.reset();
    check_ = QueueCheck(threads_ + 1, threads_ + 1, tag_);
    const auto t0 = Clock::now();
    main_ = registry_entry(spec_.name).make();
    const double make_s = seconds_since(t0);
    queue_ = &checked_cast<h::QueueIface>(main_.get(), spec_.name);
    prefill(*queue_);
    lanes_.assign(static_cast<std::size_t>(threads_), Lane{});
    scratch_lanes_.assign(static_cast<std::size_t>(threads_), Lane{});
    for (int t = 0; t < threads_; ++t) {
      // Which half of its pair each worker starts with.
      const bool first = (h::mix_seed(seed_, static_cast<std::uint64_t>(t)) &
                          1) != 0;
      lanes_[static_cast<std::size_t>(t)].enqueue_next = first;
      scratch_lanes_[static_cast<std::size_t>(t)].enqueue_next = first;
    }
    return make_s;
  }

  int body(int t) { return op(*queue_, t, lanes_, true); }

  int scratch_body(h::Structure& s, int t) {
    return op(static_cast<h::QueueIface&>(s), t, scratch_lanes_, false);
  }
  int scratch_direct_body(h::Structure& s, int t) {
    return op(static_cast<Direct&>(s), t, scratch_lanes_, false);
  }
  std::unique_ptr<h::Structure> make_subject() const {
    auto s = prefilled(registry_entry(spec_.name).make());
    checked_cast<Direct>(s.get(), spec_.name);
    return s;
  }

  std::unique_ptr<h::Structure> make_volatile() const {
    return prefilled(registry_entry(spec_.volatile_name).make());
  }
  std::unique_ptr<h::Structure> make_leak() const {
    return prefilled(spec_.make_leak());
  }

  h::Structure& structure() { return *main_; }
  // Values in the last durable walk.
  std::uint64_t items() const { return walk_.size(); }

  // One verification pass: the durable walk (timed), each producer's
  // values in FIFO order along it, and its length equal to prefill +
  // enqueued - dequeued.
  std::uint64_t verify(double& walk_s) {
    const auto t0 = Clock::now();
    const bool ok = queue_->snapshot_values(walk_);
    walk_s = seconds_since(t0);
    QueueCheck order(threads_ + 1, 1, tag_);
    for (const std::uint64_t v : walk_) order.observe(0, v);
    std::uint64_t failures = order.violations() + (ok ? 0 : 1);
    if (walk_.size() != expected_size()) ++failures;
    return failures;
  }

  // Checked once, after the verification passes: with the walk read as
  // one more consumer, every produced value must appear exactly once
  // across the workers' dequeues and the walk; a failed dequeue is a
  // lost value (the prefill keeps the queue far from empty); and a
  // live drain must yield the walk's values in order.
  std::uint64_t final_check() {
    QueueCheck c = check_;
    for (const std::uint64_t v : walk_) c.observe(threads_, v);
    std::uint64_t failures = c.finish(produced());
    for (const Lane& l : lanes_) failures += l.empty;
    std::size_t i = 0;
    std::uint64_t v = 0;
    while (queue_->dequeue(v)) {
      if (i >= walk_.size() || walk_[i] != v) ++failures;
      ++i;
    }
    if (i != walk_.size()) ++failures;
    return failures;
  }

 private:
  struct alignas(64) Lane {
    bool enqueue_next = true;
    std::uint64_t seq = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t empty = 0;
  };

  template <typename Q>
  int op(Q& q, int t, std::vector<Lane>& lanes, bool checked) {
    Lane& lane = lanes[static_cast<std::size_t>(t)];
    if (lane.enqueue_next) {
      lane.enqueue_next = false;
      q.enqueue(queue_value(tag_, static_cast<std::uint64_t>(t) + 1,
                            lane.seq++));
      return 0;
    }
    lane.enqueue_next = true;
    std::uint64_t v = 0;
    if (q.dequeue(v)) {
      ++lane.dequeued;
      if (checked) check_.observe(t, v);
    } else {
      ++lane.empty;
    }
    return 1;
  }

  std::vector<std::uint64_t> produced() const {
    std::vector<std::uint64_t> p{spec_.prefill};
    for (const Lane& l : lanes_) p.push_back(l.seq);
    return p;
  }

  std::uint64_t expected_size() const {
    std::uint64_t n = spec_.prefill;
    for (const Lane& l : lanes_) n += l.seq - l.dequeued;
    return n;
  }

  void prefill(h::QueueIface& q) const {
    for (std::uint64_t i = 0; i < spec_.prefill; ++i) {
      q.enqueue(queue_value(tag_, 0, i));
    }
  }

  std::unique_ptr<h::Structure> prefilled(
      std::unique_ptr<h::Structure> s) const {
    prefill(checked_cast<h::QueueIface>(s.get(), spec_.name));
    return s;
  }

  QueueSpec spec_;
  std::uint64_t seed_;
  int threads_;
  std::uint64_t tag_;
  QueueCheck check_;
  std::vector<Lane> lanes_;
  std::vector<Lane> scratch_lanes_;
  std::vector<std::uint64_t> walk_;
  std::unique_ptr<h::Structure> main_;
  h::QueueIface* queue_ = nullptr;
};

}  // namespace perfbench
