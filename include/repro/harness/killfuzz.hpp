// Fork-kill-recover fuzzing: the true-crash half of the crash engine.
//
// The shadow-NVM fuzzers (crashfuzz.hpp) simulate power failure inside
// one process.  This harness makes the durability claim for real: the
// parent forks a CHILD that attaches the mmap heap (pmem/mmap_heap.hpp),
// builds a detectable structure as a heap root and runs a journaled
// workload against it in Mode::mmap; the child is SIGKILLed — either at
// a deterministic persistence-instruction boundary
// (pmem::crash::arm_kill, replayable from a {seed, kill_point} pair) or
// by a parent-timed signal — and a FRESH verifier process then maps the
// same heap file and asserts the paper's detectability contract DC1–DC4
// (harness/oracle.hpp) against what the dead process durably left
// behind.  Each worker lane's journal is its completed-op record, so
// the per-lane oracle (judge_lane) checks its descriptor, and the
// contents oracle (judge_contents) checks each lane's key range for
// lists and the whole FIFO at one lane for queues.  Multi-lane queues
// add a global value audit: every durable value was enqueued and not
// yet dequeued, and losses only where an in-flight dequeue can account
// for them.
//
// What a SIGKILL does and does not test: the page cache survives the
// signal, so every store the child executed — fenced or not — is in
// the reattached image; the kill boundary truncates the *instruction
// stream*, not the write-back queue.  The harness therefore exercises
// reattach/recovery machinery and store-ORDER protocol bugs (a "done"
// record written before its response, a link published before its
// node).  The REPRO_MUTATE_DROP_MSYNC build (detectable.hpp) emulates
// exactly such a reorder and must be caught here; unordered write-back
// LOSS remains the shadow fuzzers' jurisdiction.
//
// Journaling: the child appends one JSONL line per completed operation
// with a single write(2) each (durable-in-page-cache at the kill, and
// the "flush after every row" contract the sinks satellite demands), a
// per-lane hello line before the lane's first operation, and the
// verifier tolerates a torn final line.  Because every executed store
// survives, each journaled op is one the descriptor must reflect, so
// the oracle admits only descriptor seq J or J+1 against a journal of
// J ops.  Each trial uses a private
// heap file (REPRO_HEAP_PATH or /tmp/repro_heap.<pid>.pmem) that the
// driver deletes or reuses — nothing accumulates.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "repro/ds/dt_list.hpp"
#include "repro/ds/hm_hashtable.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/harness/history.hpp"
#include "repro/harness/oracle.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/sinks.hpp"
#include "repro/pmem/crash.hpp"
#include "repro/pmem/mmap_heap.hpp"

namespace repro::harness::kill {

// The detectable structure families the kill harness drives.  These
// are the concrete non-virtual templates, not registry wrappers: a
// polymorphic object's vtable pointer is process-specific and would be
// stale in the verifier, so the heap root must be vtable-free.
enum class Family { isb_list, isb_queue, dt_list, hm_map };

inline const char* family_name(Family f) {
  static const char* const kNames[] = {"isb-list", "isb-queue", "dt-list",
                                       "hm-map"};
  return kNames[static_cast<int>(f)];
}

inline const std::vector<Family>& all_families() {
  static const std::vector<Family> fams = {
      Family::isb_list, Family::isb_queue, Family::dt_list,
      Family::hm_map};
  return fams;
}

// Family dispatch: calls fn with a null pointer of the family's
// structure type.  The hash map drives like the lists — the identical
// insert/erase/find + recover surface, with each lane's key span
// scattered across buckets by the map's hash — and its whole bucket
// directory is carved from the arena at construction, so a fresh
// verifier walks it through the same fixed-base pointers.
template <typename Fn>
decltype(auto) visit_family(Family f, Fn&& fn) {
  switch (f) {
    case Family::isb_queue: return fn(static_cast<ds::IsbQueueT<>*>(nullptr));
    case Family::dt_list: return fn(static_cast<ds::DtListT<>*>(nullptr));
    case Family::hm_map: return fn(static_cast<ds::IsbHashMapT<>*>(nullptr));
    default: return fn(static_cast<ds::IsbListT<>*>(nullptr));
  }
}

// One trial's full parameterisation; {family, seed, threads,
// kill_point} replays a deterministic single-lane trial bit-for-bit.
struct KillPlan {
  Family family = Family::isb_list;
  std::string heap_path = "/tmp/repro_heap.pmem";
  std::uint64_t seed = 1;
  int threads = 1;
  int ops_budget = 512;          // operations per lane
  std::uint64_t kill_point = 0;  // >0: SIGKILL at n-th persistence instr
  int kill_delay_us = 0;         // >0: parent-timed SIGKILL instead
  std::size_t heap_bytes = pmem::MmapHeap::kDefaultBytes;
  // Double-kill scenario: after the workload child dies, a second
  // SIGKILL (its instruction index derived from `seed`) is armed
  // inside the first VERIFIER's recovery/verify pass, and a third
  // fresh process then delivers the verdict — crash-during-recovery
  // with real process death.
  bool double_kill = false;

  std::string journal_path() const { return heap_path + ".journal"; }
  std::string detail_path() const { return heap_path + ".viol"; }
};

struct TrialResult {
  bool infra_ok = true;  // fork/attach/exec machinery worked
  bool killed = false;   // the SIGKILL landed (else the budget ran out)
  bool vacuous = false;  // killed before the root finished setup
  bool verifier_killed = false;  // double_kill: pass one died mid-verify
  int violations = 0;
  std::string what;  // first violation's diagnostic
};

struct KillFailure {
  std::string family;
  std::uint64_t seed = 0;
  std::uint64_t kill_point = 0;
  int delay_us = 0;
  int threads = 0;
  std::string what;
  bool double_kill = false;
};

struct KillReport {
  int trials = 0;
  int kills = 0;       // trials where the SIGKILL landed
  int completed = 0;   // child ran out its budget before the kill
  int vacuous = 0;
  int verifier_kills = 0;  // double_kill: verifier passes SIGKILLed
  int infra_skips = 0; // environment failures (not violations)
  int violations = 0;
  std::vector<KillFailure> failures;  // first few, for the reproducer
};

namespace detail {

inline constexpr std::int64_t kLaneKeySpan = 32;
inline constexpr const char* kRootName = "structure";
inline constexpr const char* kSealRootName = "vseal";

// Verifier-pass seal (double-kill scenario).  verify_in_process is
// pure loads — it issues no persistence instructions of its own — so
// a kill armed inside the verifier would never fire.  The seal gives
// the second SIGKILL a deterministic landing zone: a monotone
// started/done counter pair bracketing the verify pass, written
// through counted persist<> cells.  Each store_persist is a pwb +
// pfence, so the bracket spans exactly kSealInstructions counted
// instructions and a kill point in [1, kSealInstructions] always
// lands (unless the pass exits vacuous between the brackets).
// Invariant any later pass may check: started >= done.
struct VerifySeal {
  alignas(64) pmem::persist<std::uint64_t> started;
  alignas(64) pmem::persist<std::uint64_t> done;
};
inline constexpr std::uint64_t kSealInstructions = 4;

inline std::int64_t lane_key_base(int lane) {
  return static_cast<std::int64_t>(lane) * kLaneKeySpan;
}

// Queue values are unique and lane-tagged so the global audit can
// attribute every durable value.
inline std::uint64_t lane_value(int lane, int op) {
  return static_cast<std::uint64_t>(lane + 1) * 1'000'000u +
         static_cast<std::uint64_t>(op) + 1;
}

// One write(2) per line: atomic for O_APPEND regular files and already
// in the page cache when the SIGKILL lands — the journal needs no
// flush discipline beyond "don't buffer in userspace".
struct JournalWriter {
  int fd = -1;
  bool open_trunc(const std::string& path) {
    fd = ::open(path.c_str(),
                O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                0644);
    return fd >= 0;
  }
  void line(const char* fmt, ...)
      __attribute__((format(printf, 2, 3))) {
    char buf[192];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf) - 1, fmt, ap);
    va_end(ap);
    // A line that does not fit would not parse either; journal lines
    // are far shorter than the buffer.
    if (n < 0 || n > static_cast<int>(sizeof(buf)) - 2) return;
    buf[n] = '\n';
    [[maybe_unused]] ssize_t w = ::write(fd, buf, static_cast<std::size_t>(n) + 1);
  }
};

// A whole file; empty when it does not exist.
inline std::string slurp(const std::string& path) {
  std::string data;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
    std::fclose(f);
  }
  return data;
}

struct Journal {
  std::map<int, int> lane_slot;                        // hello lines
  std::map<int, std::vector<oracle::LaneOp>> ops;      // per lane, in order

  // Tolerates a missing file (killed before the journal opened) and a
  // torn final line (killed mid-write).
  void parse(const std::string& path) {
    const std::string data = slurp(path);
    std::size_t pos = 0;
    while (true) {
      const std::size_t nl = data.find('\n', pos);
      if (nl == std::string::npos) break;  // torn tail dropped
      const std::string line = data.substr(pos, nl - pos);
      pos = nl + 1;
      int lane = 0, ok = 0, slot = 0;
      unsigned long long seq = 0, result = 0;
      long long key = 0;
      char kind[16] = {0};
      if (std::sscanf(line.c_str(),
                      "{\"lane\":%d,\"seq\":%llu,\"kind\":\"%15[a-z]\","
                      "\"key\":%lld,\"ok\":%d,\"result\":%llu}",
                      &lane, &seq, kind, &key, &ok, &result) == 6) {
        oracle::LaneOp op;
        op.board_seq = seq;
        op.kind = op_kind_from_name(kind);
        op.key = key;
        op.ok = ok != 0;
        op.result = result;
        ops[lane].push_back(op);
      } else if (std::sscanf(line.c_str(), "{\"lane\":%d,\"slot\":%d}",
                             &lane, &slot) == 2) {
        lane_slot[lane] = slot;
      }
    }
  }
};

// ------------------------------------------------------------------
// Child side: the workload that gets killed.
// ------------------------------------------------------------------

// All lanes must hold their thread slots SIMULTANEOUSLY before any
// operation runs: slots recycle when a thread exits, so without the
// start barrier a fast early lane can finish and die before a later
// lane spawns, which would hand two lanes one descriptor and make the
// journal→slot binding meaningless.
struct StartBarrier {
  std::atomic<int> ready{0};
  void arrive_and_wait(int parties) {
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < parties) {
    }
  }
};

template <typename S>
inline constexpr bool kIsQueue = requires(S& s) { s.dequeue(); };

// One lane's operation: sets draw a key in the lane's own span and a
// 40/40/20 insert/erase/find dice; queues enqueue lane-tagged values
// 60% of the time and dequeue otherwise.
template <typename S>
oracle::LaneOp lane_op(S* s, Rng& rng, int lane, int& enqueued) {
  oracle::LaneOp op;
  if constexpr (kIsQueue<S>) {
    if (rng.below(10) < 6) {
      const std::uint64_t v = lane_value(lane, enqueued++);
      s->enqueue(v);
      op = {0, ds::OpKind::enqueue, static_cast<std::int64_t>(v), true, v};
    } else {
      const ds::DequeueResult r = s->dequeue();
      op = {0, ds::OpKind::dequeue, 0, r.ok, r.value};
    }
  } else {
    op.key = lane_key_base(lane) + 1 +
             static_cast<std::int64_t>(
                 rng.below(static_cast<std::uint64_t>(kLaneKeySpan)));
    const std::uint64_t dice = rng.below(10);
    op.kind = dice < 4   ? ds::OpKind::insert
              : dice < 8 ? ds::OpKind::erase
                         : ds::OpKind::find;
    op.ok = op.kind == ds::OpKind::insert  ? s->insert(op.key)
            : op.kind == ds::OpKind::erase ? s->erase(op.key)
                                           : s->find(op.key);
    op.result = op.ok ? 1 : 0;
  }
  return op;
}

// Runs the lanes: hello, start barrier, then the journaled ops.
template <typename S>
void run_lanes(const KillPlan& plan, S* s, JournalWriter& j) {
  std::vector<std::thread> lanes;
  lanes.reserve(static_cast<std::size_t>(plan.threads));
  StartBarrier barrier;
  for (int t = 0; t < plan.threads; ++t) {
    lanes.emplace_back([&, t] {
      const int slot = ds::thread_slot();
      j.line("{\"lane\":%d,\"slot\":%d}", t, slot);
      barrier.arrive_and_wait(plan.threads);
      Rng rng(mix_seed(plan.seed, static_cast<std::uint64_t>(t)));
      int enqueued = 0;
      for (int o = 0; o < plan.ops_budget; ++o) {
        const oracle::LaneOp op = lane_op(s, rng, t, enqueued);
        const std::uint64_t seq = s->recover(slot).seq;
        j.line("{\"lane\":%d,\"seq\":%llu,\"kind\":\"%s\",\"key\":%lld,"
               "\"ok\":%d,\"result\":%llu}",
               t, static_cast<unsigned long long>(seq),
               op_kind_name(op.kind), static_cast<long long>(op.key),
               op.ok ? 1 : 0, static_cast<unsigned long long>(op.result));
      }
    });
  }
  for (std::thread& th : lanes) th.join();
}

// The forked child's whole life.  Exit 0 = budget completed; the
// interesting exits are the ones that never happen (SIGKILL).
[[noreturn]] inline void run_child_workload(const KillPlan& plan,
                                            int notify_fd) {
  ::signal(SIGPIPE, SIG_IGN);  // parent may not be reading the pipe
  pmem::MmapHeap* heap =
      pmem::MmapHeap::attach(plan.heap_path, plan.heap_bytes);
  if (heap == nullptr) ::_exit(120);
  pmem::set_mode(pmem::Mode::mmap);
  visit_family(plan.family, [&](auto* tag) {
    using S = std::remove_pointer_t<decltype(tag)>;
    S* root = heap->root<S>(kRootName);
    JournalWriter j;
    if (root == nullptr || !j.open_trunc(plan.journal_path())) {
      ::_exit(120);
    }
    // Setup is durable; tell the parent it may start the kill timer.
    if (notify_fd >= 0) {
      const char ready = 'r';
      [[maybe_unused]] ssize_t w = ::write(notify_fd, &ready, 1);
      ::close(notify_fd);
    }
    // Armed AFTER setup: heap bookkeeping persists through the raw
    // (uncounted) path, so instruction n is the n-th *algorithm*
    // persistence instruction — the deterministic replay anchor.
    if (plan.kill_point > 0) pmem::crash::arm_kill(plan.kill_point);
    run_lanes(plan, root, j);
  });
  ::_exit(0);
}

// ------------------------------------------------------------------
// Verifier side: runs in a FRESH process that maps the heap file.
// ------------------------------------------------------------------

template <typename S>
int verify(S* s, const Journal& j, int threads, std::string& detail) {
  constexpr bool kQueue = kIsQueue<S>;
  int violations = 0;
  auto fail = [&](const std::string& w) {
    ++violations;
    if (detail.empty()) detail = w;
  };

  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> durable;
  bool walked;
  if constexpr (kQueue) {
    walked = s->snapshot_values(durable);
  } else {
    walked = s->snapshot_keys(keys);
  }
  if (!walked) {
    fail("durable walk failed: link into unowned memory or a cycle");
    return violations;
  }
  const std::set<std::uint64_t> durable_set(durable.begin(), durable.end());

  // Lanes interact through a queue (one lane dequeues another's
  // values), so judgement is two-pass: first every lane's journal
  // facts and descriptor verdict — an in-flight dequeue may return a
  // value whose enqueue is in flight on a lane not yet visited — then
  // each lane against the complete picture.
  struct LaneView {
    int lane;
    const std::vector<oracle::LaneOp>* ops;
    oracle::LaneVerdict v;
  };
  static const std::vector<oracle::LaneOp> kNone;
  std::vector<LaneView> lanes;
  std::set<std::uint64_t> enq_done, deq_done;
  std::set<std::uint64_t> inflight_enq;  // pending or committed
  for (const auto& [lane, slot] : j.lane_slot) {
    const auto it = j.ops.find(lane);
    const std::vector<oracle::LaneOp>& ops =
        it != j.ops.end() ? it->second : kNone;
    // Journal well-formedness: each lane's seqs are 1..J contiguous.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].board_seq != i + 1) {
        fail("journal gap in lane " + std::to_string(lane));
        return violations;
      }
      if (ops[i].kind == ds::OpKind::enqueue) {
        enq_done.insert(ops[i].result);
      } else if (kQueue && ops[i].ok &&
                 !deq_done.insert(ops[i].result).second) {
        fail("value " + std::to_string(ops[i].result) +
             " journaled as dequeued twice");
      }
    }
    LaneView lv{lane, &ops,
                oracle::judge_lane(ds::Recovered{}, ops, s->recover(slot),
                                   oracle::InFlight::unknown)};
    if (lv.v.in_flight() && lv.v.desc.kind == ds::OpKind::enqueue) {
      inflight_enq.insert(static_cast<std::uint64_t>(lv.v.desc.key));
    }
    lanes.push_back(std::move(lv));
  }

  // The op a lane's descriptor names as in flight, if any.
  auto inflight_of = [](const LaneView& lv, oracle::LaneOp& op) {
    op.kind = lv.v.desc.kind;
    op.key = lv.v.desc.key;
    return lv.v.in_flight() ? &op : nullptr;
  };

  std::set<std::int64_t> attributed;
  int pending_deq = 0;
  for (const LaneView& lv : lanes) {
    const std::string who = "lane " + std::to_string(lv.lane) + ": ";
    // The lane's key span of the durable walk (lists).
    std::vector<std::int64_t> mine;
    const std::int64_t lo = lane_key_base(lv.lane) + 1;
    for (std::int64_t k : keys) {
      if (k >= lo && k < lo + kLaneKeySpan) {
        mine.push_back(k);
        attributed.insert(k);
      }
    }
    if (lv.v.verdict == oracle::Verdict::violation) {
      fail(who + lv.v.what);
      continue;
    }
    if constexpr (!kQueue) {
      const ds::OpKind k = lv.v.desc.kind;
      oracle::Contents model;
      oracle::LaneOp in;
      std::string why =
          lv.v.in_flight() && k != ds::OpKind::insert &&
                  k != ds::OpKind::erase && k != ds::OpKind::find
              ? "in-flight descriptor has a non-list op kind"
              : oracle::replay(model, *lv.ops);
      if (why.empty()) {
        why = oracle::judge_contents(model, lv.v, inflight_of(lv, in),
                                     oracle::Contents::walked(mine, {}));
      }
      if (!why.empty()) fail(who + why);
      continue;
    }
    if (!lv.v.in_flight()) continue;
    const ds::Recovered& rec = lv.v.desc;
    if (rec.kind == ds::OpKind::enqueue) {
      const auto v = static_cast<std::uint64_t>(rec.key);
      if (rec.completed) {
        // Enqueue commits (true, value); the effect must be there (or
        // already consumed by a journaled dequeue).
        if (!rec.ok || rec.result != v) {
          fail(who + "committed in-flight enqueue carries a stale/wrong "
                     "response");
        } else if (durable_set.count(v) == 0 && deq_done.count(v) == 0) {
          fail(who + "committed enqueue's value is durably lost");
        }
      }
    } else if (rec.kind == ds::OpKind::dequeue) {
      if (!rec.completed) {
        ++pending_deq;
      } else if (rec.ok) {
        const std::uint64_t v = rec.result;
        if (enq_done.count(v) == 0 && inflight_enq.count(v) == 0) {
          fail(who + "committed dequeue returned a never-enqueued value "
                     "(stale response?)");
        } else if (durable_set.count(v) != 0) {
          fail(who + "committed dequeue's value is still durably "
                     "enqueued");
        } else if (!deq_done.insert(v).second) {
          fail("value " + std::to_string(v) + " dequeued twice");
        }
      }
    } else {
      fail(who + "in-flight descriptor has a non-queue op kind");
    }
  }

  // Keys no hello'd lane owns cannot exist: lanes write their hello
  // before their first operation.
  for (std::int64_t k : keys) {
    if (attributed.count(k) == 0) {
      fail("durable key " + std::to_string(k) +
           " belongs to no journaled lane");
      break;
    }
  }
  if constexpr (!kQueue) return violations;

  // Global value audit.
  for (std::uint64_t v : durable) {
    if (enq_done.count(v) == 0 && inflight_enq.count(v) == 0) {
      fail("durable value " + std::to_string(v) +
           " was never enqueued (lost node payload?)");
      break;
    }
  }
  for (std::uint64_t v : deq_done) {
    if (durable_set.count(v) != 0) {
      fail("journaled dequeue of " + std::to_string(v) +
           " left the value durably enqueued");
      break;
    }
  }
  int missing = 0;
  for (std::uint64_t v : enq_done) {
    if (deq_done.count(v) == 0 && durable_set.count(v) == 0) ++missing;
  }
  if (missing > pending_deq) {
    fail(std::to_string(missing) +
         " enqueued values durably lost with only " +
         std::to_string(pending_deq) + " in-flight dequeues");
  }

  // One lane: the journal is a total order, so FIFO is checkable
  // exactly against the contents oracle.
  if (threads == 1 && violations == 0 && !lanes.empty()) {
    oracle::Contents model;
    oracle::LaneOp in;
    std::string why = oracle::replay(model, *lanes[0].ops);
    if (why.empty()) {
      why = oracle::judge_contents(model, lanes[0].v,
                                   inflight_of(lanes[0], in),
                                   oracle::Contents::walked({}, durable));
    }
    if (!why.empty()) fail("single-lane FIFO: " + why);
  }
  return violations;
}

// Attach + dispatch inside the verifier process.  Returns violations,
// -1 for a vacuous trial (setup never finished), -2 for environment
// failure.  A non-zero kill2_point arms a SIGKILL over the seal's
// counted instructions (double-kill scenario) — this pass may never
// return; the caller's parent process observes the signal instead.
inline int verify_in_process(const KillPlan& plan, std::string& detail,
                             std::uint64_t kill2_point = 0) {
  pmem::MmapHeap* heap =
      pmem::MmapHeap::attach(plan.heap_path, plan.heap_bytes);
  if (heap == nullptr) return -2;
  Journal j;
  j.parse(plan.journal_path());
  VerifySeal* seal = nullptr;
  if (plan.double_kill) {
    // The seal's writes must run through the counted mmap persistence
    // path (the root directory itself persists through the raw,
    // uncounted path, so creating the root consumes no countdown).
    pmem::set_mode(pmem::Mode::mmap);
    seal = heap->root<VerifySeal>(kSealRootName);
    if (seal == nullptr) return -2;
    if (seal->done.load() > seal->started.load()) {
      if (detail.empty()) {
        detail = "verify seal corrupted: done counter ran ahead of "
                 "started (recovery-pass bracket ordering broke)";
      }
      return 1;
    }
    if (kill2_point > 0) pmem::crash::arm_kill(kill2_point);
    seal->started.store_persist(seal->started.load() + 1);
  }
  const int v = visit_family(plan.family, [&](auto* tag) {
    using S = std::remove_pointer_t<decltype(tag)>;
    S* s = heap->find_root<S>(kRootName);
    return s == nullptr ? -1 : verify(s, j, plan.threads, detail);
  });
  if (seal != nullptr) seal->done.store_persist(seal->done.load() + 1);
  return v;
}

}  // namespace detail

// Verification exit-code protocol (the verifier is a forked fresh
// process; its address space must never have seen the child's heap).
inline constexpr int kVerifyVacuous = 110;
inline constexpr int kVerifyInfraFail = 120;
// Sentinel (never an exit code): the armed verifier pass was itself
// SIGKILLed — the double-kill landed mid-recovery.  The caller runs a
// third fresh-process pass for the verdict.
inline constexpr int kVerifyKilled = -3;

// Remove a trial's on-disk residue (heap file + journal + detail).
inline void cleanup_heap_files(const KillPlan& plan) {
  ::unlink(plan.heap_path.c_str());
  ::unlink(plan.journal_path().c_str());
  ::unlink(plan.detail_path().c_str());
}

// Forks a fresh process that maps the heap file, recovers, verifies,
// and reports through its exit code (violations capped at 99).  The
// first diagnostic lands in plan.detail_path().  kill2_point > 0 arms
// the double-kill inside the verifier child; if that SIGKILL lands
// the parent returns kVerifyKilled instead of an exit code.
inline int fork_verify(const KillPlan& plan,
                       std::uint64_t kill2_point = 0) {
  const pid_t pid = ::fork();
  if (pid < 0) return kVerifyInfraFail;
  if (pid == 0) {
    std::string detail;
    const int v = detail::verify_in_process(plan, detail, kill2_point);
    if (v == -2) ::_exit(kVerifyInfraFail);
    if (v == -1) ::_exit(kVerifyVacuous);
    if (v > 0) {
      if (std::FILE* f =
              std::fopen(plan.detail_path().c_str(), "w")) {
        std::fputs(detail.c_str(), f);
        std::fclose(f);
      }
      ::_exit(v > 99 ? 99 : v);
    }
    ::_exit(0);
  }
  int st = 0;
  ::waitpid(pid, &st, 0);
  if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) return kVerifyKilled;
  if (!WIFEXITED(st)) return kVerifyInfraFail;
  return WEXITSTATUS(st);
}

// One full trial: fresh heap file, forked workload child, SIGKILL
// (armed or parent-timed), then TWO independent fresh-process
// verifications — recovery must be idempotent, so pass two re-walks
// everything pass one recovered and must agree with it.  With
// plan.double_kill the first verifier pass is itself SIGKILLed at a
// seed-derived point inside its recovery seal and a third fresh
// process becomes "pass one" — the idempotence agreement then spans a
// state that already absorbed a crash during recovery.
inline TrialResult kill_one(const KillPlan& plan) {
  TrialResult r;
  cleanup_heap_files(plan);

  int pfd[2] = {-1, -1};
  if (::pipe(pfd) != 0) {
    r.infra_ok = false;
    return r;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pfd[0]);
    ::close(pfd[1]);
    r.infra_ok = false;
    return r;
  }
  if (pid == 0) {
    ::close(pfd[0]);
    detail::run_child_workload(plan, pfd[1]);  // never returns
  }
  ::close(pfd[1]);
  char ready = 0;
  [[maybe_unused]] ssize_t got = ::read(pfd[0], &ready, 1);
  if (plan.kill_delay_us > 0) {
    ::usleep(static_cast<useconds_t>(plan.kill_delay_us));
    ::kill(pid, SIGKILL);
  }
  ::close(pfd[0]);
  int st = 0;
  ::waitpid(pid, &st, 0);
  if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
    r.killed = true;
  } else if (WIFEXITED(st) && WEXITSTATUS(st) == 0) {
    r.killed = false;  // budget ran out first; still verified
  } else {
    r.infra_ok = false;
    return r;
  }

  // Double-kill scenario: arm a second SIGKILL inside the first
  // verifier's recovery pass (point derived from the trial seed, so
  // the reproducer replays it).  When it lands, a THIRD fresh process
  // delivers the verdict — verifying that crashing during recovery
  // leaves a state a later recovery still handles.
  std::uint64_t kill2_point = 0;
  if (plan.double_kill) {
    kill2_point =
        1 + mix_seed(plan.seed, 0xD0B13ull) % detail::kSealInstructions;
  }
  int first = fork_verify(plan, kill2_point);
  if (first == kVerifyKilled) {
    r.verifier_killed = true;
    first = fork_verify(plan);
  }
  if (first == kVerifyInfraFail) {
    r.infra_ok = false;
    return r;
  }
  if (first == kVerifyVacuous) {
    r.vacuous = true;
    return r;
  }
  r.violations = first;
  const int second = fork_verify(plan);
  if (second != first) {
    ++r.violations;
    r.what = "recovery is not idempotent: verifier passes disagree (" +
             std::to_string(first) + " vs " + std::to_string(second) +
             ")";
  } else if (first > 0) {
    r.what = detail::slurp(plan.detail_path());
  }
  return r;
}

// Randomized campaign over one family: `trials` forked kills, each
// with a fresh {seed, kill point} pair.  Deterministic mode (default)
// arms the kill at a drawn persistence-instruction index — each
// failure is replayable via kill_one{seed, kill_point}; timed mode
// SIGKILLs after a drawn microsecond delay instead.
inline KillReport kill_many(const KillPlan& proto, int trials,
                            bool timed = false) {
  KillReport rep;
  const std::uint64_t base =
      proto.seed != 0 ? proto.seed : global_seed();
  Rng rng(mix_seed(base, 0x6B116Cull));
  const std::uint64_t horizon =
      static_cast<std::uint64_t>(proto.ops_budget) *
      static_cast<std::uint64_t>(proto.threads) * 6u;
  for (int i = 0; i < trials; ++i) {
    KillPlan p = proto;
    p.seed = mix_seed(base, static_cast<std::uint64_t>(i));
    if (timed) {
      p.kill_point = 0;
      p.kill_delay_us = 50 + static_cast<int>(rng.below(5'000));
      // The default budgets finish in well under the shortest delay;
      // give the child enough work that the wall-clock kill lands
      // mid-run instead of reaping a finished process.
      p.ops_budget = std::max(p.ops_budget, 200'000);
    } else {
      p.kill_point = 1 + rng.below(horizon);
      p.kill_delay_us = 0;
    }
    const TrialResult t = kill_one(p);
    ++rep.trials;
    if (!t.infra_ok) {
      ++rep.infra_skips;
      continue;
    }
    if (t.killed) {
      ++rep.kills;
    } else {
      ++rep.completed;
    }
    if (t.vacuous) ++rep.vacuous;
    if (t.verifier_killed) ++rep.verifier_kills;
    rep.violations += t.violations;
    if (t.violations > 0 && rep.failures.size() < 8) {
      KillFailure f;
      f.family = family_name(p.family);
      f.seed = p.seed;
      f.kill_point = p.kill_point;
      f.delay_us = p.kill_delay_us;
      f.threads = p.threads;
      f.what = t.what;
      f.double_kill = p.double_kill;
      rep.failures.push_back(std::move(f));
    }
  }
  return rep;
}

// Failing-trial reproducers as JSON lines (the CI artifact).  Replay
// one line with
//   kill_one({family, seed, threads, kill_point})
// (deterministic for threads == 1; timed failures replay the same
// workload draws, not the same kill instant).
inline void write_kill_reproducer(const KillReport& report,
                                  const std::string& path) {
  std::string lines;
  for (const KillFailure& x : report.failures) {
    lines += failure_jsonl(
        "\"family\":\"" + x.family + "\",\"seed\":" +
            std::to_string(x.seed) +
            ",\"kill_point\":" + std::to_string(x.kill_point) +
            ",\"delay_us\":" + std::to_string(x.delay_us) +
            ",\"threads\":" + std::to_string(x.threads) +
            ",\"double_kill\":" + (x.double_kill ? "1" : "0"),
        x.what);
  }
  append_jsonl(path, lines);
}

// Default heap path: REPRO_HEAP_PATH, or a pid-scoped /tmp file so
// concurrent CI jobs never collide.  The caller deletes it afterwards
// (see kill_recovery's teardown and the tests' RAII guard).
inline std::string default_heap_path() {
  if (const char* p = std::getenv("REPRO_HEAP_PATH")) return p;
  return "/tmp/repro_heap." + std::to_string(::getpid()) + ".pmem";
}

}  // namespace repro::harness::kill
