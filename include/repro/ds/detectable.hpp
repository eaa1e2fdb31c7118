// The shared "detectable operation" API.
//
// Every recoverable structure in ds/ announces each update in a
// per-thread operation descriptor before touching the structure and
// commits its response into the same descriptor afterwards.  After a
// (simulated) crash, recover() reads the descriptor back and tells the
// owning thread whether its last operation took effect and what it
// returned — the paper's definition of detectable recovery.  Keeping
// announce/commit/recover here means IsbList, IsbQueue, DtList, the
// BST, the skiplist, the stack and the exchanger all share one
// implementation of the recovery protocol instead of re-deriving it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "repro/pmem/persist.hpp"

namespace repro::ds {

using pmem::PersistProfile;

// Unified queue/stack response: `ok` is false when the container was
// observed empty.  Every queue in ds/ and baselines/ returns this from
// dequeue(), including the volatile MS-queue baseline.
struct DequeueResult {
  bool ok = false;
  std::uint64_t value = 0;
};

enum class OpKind : std::uint64_t {
  none = 0,
  insert,
  erase,
  find,
  enqueue,
  dequeue,
  push,
  pop,
  exchange,
};

enum class OpStatus : std::uint64_t { idle = 0, pending, done };

// Fixed upper bound on concurrently announcing threads; descriptors are
// indexed by a process-wide thread slot.  Slots are recycled when a
// thread exits, so any number of threads may run over a process's
// lifetime — but more than kMaxThreads *live* at once is a hard error
// (two live threads sharing a descriptor would corrupt recovery state
// silently).
inline constexpr int kMaxThreads = 128;

namespace detail {
inline std::atomic<bool>* slot_table() {
  static std::atomic<bool> used[kMaxThreads];
  return used;
}
}  // namespace detail

inline int thread_slot() {
  struct Holder {
    int id;
    Holder() : id(-1) {
      std::atomic<bool>* used = detail::slot_table();
      for (int i = 0; i < kMaxThreads; ++i) {
        if (!used[i].exchange(true, std::memory_order_acq_rel)) {
          id = i;
          return;
        }
      }
      std::fprintf(stderr,
                   "repro: more than %d concurrent threads announcing "
                   "operations\n",
                   kMaxThreads);
      std::abort();
    }
    ~Holder() {
      detail::slot_table()[id].store(false, std::memory_order_release);
    }
  };
  thread_local const Holder holder;
  return holder.id;
}

// One cache line of notionally-persistent announcement state per
// thread.  The response is two separate words (ok + result) so the
// full 64-bit value space survives recovery intact.  The per-thread
// operation counter, the OpKind and the OpStatus share one word, `op`:
// the announcement stores (J+1, kind, pending) before anything else and
// the commit stores (J+1, kind, done) after everything else, so no
// crash — not even a SIGKILL between two plain stores on another
// lane's instruction — can pair op J+1's seq with op J's "done",
// response or kind.
struct alignas(64) OpDesc {
  pmem::persist<std::uint64_t> op{0};      // word(seq, kind, status)
  pmem::persist<std::int64_t> key{0};      // operand (key / value)
  pmem::persist<std::uint64_t> ok{0};      // committed success flag
  pmem::persist<std::uint64_t> result{0};  // committed response value

  static constexpr std::uint64_t word(std::uint64_t seq, OpKind kind,
                                      OpStatus s) {
    return seq << 6 | static_cast<std::uint64_t>(kind) << 2 |
           static_cast<std::uint64_t>(s);
  }
  static_assert(static_cast<std::uint64_t>(OpKind::exchange) < 16);
  static constexpr std::uint64_t seq_of(std::uint64_t w) { return w >> 6; }
  static constexpr OpKind kind_of(std::uint64_t w) {
    return static_cast<OpKind>(w >> 2 & 15);
  }
  static constexpr OpStatus status_of(std::uint64_t w) {
    return static_cast<OpStatus>(w & 3);
  }
};

// What a recovering thread learns from its descriptor.
struct Recovered {
  std::uint64_t seq = 0;
  OpKind kind = OpKind::none;
  std::int64_t key = 0;
  bool completed = false;      // commit reached the descriptor
  bool ok = false;             // operation's boolean response
  std::uint64_t result = 0;    // operation's value (valid when completed)
};

// The per-structure array of descriptors (the paper's Info structures).
class AnnouncementBoard {
 public:
  OpDesc& mine() { return slots_[thread_slot()]; }
  const OpDesc& slot(int i) const { return slots_[i]; }

  Recovered recover(int slot) const {
    const OpDesc& d = slots_[slot];
    const std::uint64_t op = d.op.load();
    Recovered r;
    r.seq = OpDesc::seq_of(op);
    r.kind = OpDesc::kind_of(op);
    r.key = d.key.load();
    r.completed = OpDesc::status_of(op) == OpStatus::done;
    r.ok = d.ok.load() != 0;
    r.result = d.result.load();
    return r;
  }

 private:
  OpDesc slots_[kMaxThreads];
};

// RAII announce/commit for one detectable operation.
//
// Persistence placement by profile (this is the Isb vs Isb-Opt split the
// figures plot):
//   general   — the announcement itself is flushed and fenced before the
//               structure is touched, and the commit is flushed and
//               fenced before the final psync: 2 pwb + 2 pfence + 1
//               psync of descriptor traffic per operation.
//   optimized — the announcement write stays in the store buffer (a
//               crash before the structure's durable CAS makes the op a
//               no-op either way, so persisting it early is redundant);
//               only the commit is flushed, with a leading pfence that
//               orders the structure's pending write-backs before the
//               "done" record: 1 pwb + 2 pfence + 1 psync.
//
// Structure-specific pwbs (the modified link, the new node) are issued
// by the caller between announce and commit.
class DetectableOp {
 public:
  DetectableOp(AnnouncementBoard& board, OpKind kind, std::int64_t key,
               PersistProfile profile, bool persist_this_op = true)
      : d_(board.mine()),
        seq_(OpDesc::seq_of(d_.op.load(std::memory_order_relaxed)) + 1),
        kind_(kind),
        profile_(profile),
        persisted_(persist_this_op) {
    d_.op.store(OpDesc::word(seq_, kind_, OpStatus::pending));
    d_.key.store(key);
    if (persisted_ && profile_ == PersistProfile::general) {
      pmem::flush(&d_);
      pmem::fence();
    }
  }

  // Record the response and make the whole operation durable.  The
  // effect must be durable before the "done" record is: the general
  // profile got that ordering from the pfence its policy issues after
  // every structural update, but the optimized placement leaves the
  // structure's pwbs pending, so an adversarial crash (shadow-NVM
  // mode, unordered write-backs) could persist the response while
  // losing the effect — a detectability violation the crash fuzzer
  // finds immediately.  The leading pfence closes that window.
  void commit(bool ok, std::uint64_t result) {
    if (persisted_ && profile_ == PersistProfile::optimized) {
      pmem::fence();
    }
    if (pmem::crash::mutated(pmem::crash::Mutant::drop_msync) &&
        pmem::mode() == pmem::Mode::mmap) [[unlikely]] {
      commit_reordered(ok, result);
      return;
    }
    d_.ok.store(ok ? 1 : 0);
    d_.result.store(result);
    d_.op.store(OpDesc::word(seq_, kind_, OpStatus::done));
    if (persisted_) {
      pmem::flush(&d_);
      pmem::fence();
      pmem::psync();
    }
    committed_ = true;
  }

  // An uncommitted descriptor left behind models a crash mid-operation;
  // recover() will report it as not completed.
  ~DetectableOp() = default;

  DetectableOp(const DetectableOp&) = delete;
  DetectableOp& operator=(const DetectableOp&) = delete;

  bool committed() const { return committed_; }

 private:
  // Mutant::drop_msync: in the mmap backend the commit's pwb/pfence/
  // psync mapping orders the response before the durable "done"
  // record.  A SIGKILL cannot reorder one thread's stores, so this
  // emulates the reorder eliding it permits: the done word, a persistence
  // boundary (where an armed kill lands), then the response — a
  // durable done-with-stale-response the kill verifier must flag.
  // Out of line and cold, so commit() keeps its size.
  [[gnu::cold, gnu::noinline]] void commit_reordered(bool ok,
                                                     std::uint64_t result) {
    d_.op.store(OpDesc::word(seq_, kind_, OpStatus::done));
    if (persisted_) {
      pmem::flush(&d_);
      pmem::psync();
    }
    d_.ok.store(ok ? 1 : 0);
    d_.result.store(result);
    if (persisted_) pmem::fence();
    committed_ = true;
  }

  OpDesc& d_;
  std::uint64_t seq_;
  OpKind kind_;
  PersistProfile profile_;
  bool persisted_;
  bool committed_ = false;
};

// No-op persistence policy: instantiating a core with it yields the
// original volatile structure (the Harris-LL / MS-Queue baselines).
struct NullPolicy {
  void op_start(OpKind, std::int64_t, bool) {}
  void visit(const void*, bool) {}
  void pre_publish(const void*) {}
  void pre_cas(const void*) {}
  void post_update(const void*, const void*) {}
  // A durable word is about to become reachable through a shared hot
  // pointer (the queue's tail swing): tracking policies must make it
  // durable *now*, or effects other threads durably commit on top of
  // it are orphaned by a crash (see MsQueueCore::enqueue).
  void expose(const void*) {}
  void op_end(bool, std::uint64_t, bool) {}
};

}  // namespace repro::ds
