// Crash-point fuzzing: the dynamic half of the crash-simulation engine.
// One driver, two entry points:
//
//   fuzz_one / fuzz_structure — one lane on the calling thread, every
//     draw from the iteration's PRNG, verified exactly against the
//     detectability contract DC1–DC4 (harness/oracle.hpp).
//   concurrent_fuzz_one / concurrent_fuzz_structure — N racing worker
//     lanes; the crash lands on whichever thread issues the armed
//     instruction, and the per-lane oracle's must/may verdicts feed the
//     durable-linearizability checker (harness/linearize.hpp).
//
// One iteration builds a fresh structure, prefills it (durable by
// construction), switches the pmem layer into shadow-NVM mode, arms a
// crash at a persistence-instruction boundary (pmem/crash.hpp) and
// runs the lanes until it fires.  Every operation goes through
// history.hpp's recording adapters, so a pending-at-crash op is a
// dangling invoke.  The simulated power failure rewinds every tracked
// word to the durable image (pmem/shadow.hpp; under adversarial
// fidelity a PRNG coin decides each pending write-back), each lane's
// recover() goes through the per-lane oracle, the durable contents are
// walked, and the entry point's verification runs: the exact contents
// oracle, or the checker.  The crash is then undone (shadow::uncrash)
// and the structure torn down through its destructor — a real crash
// never runs destructors, but a simulation has to.  Reclamation is
// paused for the iteration so a rewound durable link never targets a
// recycled cell.
//
// Scenario code (README "Crash scenarios") runs at four fixed points
// of that sequence, whatever the lane count:
//
//   pre-rewind    reclaim_crash: every parked (retired) cell must be
//                 durably clean.  stalled_thread: quiesce around the
//                 parked worker instead of joining it.
//   post-recover  repeated_crash: crash again inside recovery, at the
//                 RecoverySeal write, up to chain_depth times.
//   post-join     thread_death: a fresh thread adopts the dead lane's
//                 slot and recovers it.
//   post-uncrash  stalled_thread: release the parked worker; check its
//                 late response and the resumed history.
//
// thread_death and stalled_thread need a bystander: the concurrent
// driver floors them at two lanes, and fuzz_one — whose lane is the
// calling thread — runs them as a single crash.
//
// Determinism: everything derives from {seed, iteration}.  The one-lane
// draw order — the crash point, the per-key prefill coin, then per op
// the key and dice draws (sets) or a coin and a `1 + (next >> 1)` value
// (queues, stacks), exchanges spinning 2 — is what
// tests/corpus/regressions.jsonl replays.  A concurrent {seed,
// crash_point} pair reruns the same draws but not the same
// interleaving, so its failures carry the recorded history (JSONL),
// which re-checks deterministically.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/harness/history.hpp"
#include "repro/harness/linearize.hpp"
#include "repro/harness/oracle.hpp"
#include "repro/harness/registry.hpp"
#include "repro/harness/sinks.hpp"
#include "repro/harness/workload.hpp"
#include "repro/mem/ebr.hpp"
#include "repro/mem/hp.hpp"
#include "repro/mem/pop.hpp"
#include "repro/pmem/crash.hpp"
#include "repro/pmem/persist.hpp"
#include "repro/pmem/shadow.hpp"

namespace repro::harness {

// Which adversarial crash family an iteration runs (README "Crash
// scenarios").  single_crash is one full-system stop and one recovery
// pass; the others hook into the driver at the points listed above.
enum class ScenarioKind {
  single_crash,    // one full-system stop, one recovery pass
  repeated_crash,  // chained crashes landing inside recovery (K <= 4)
  thread_death,    // one thread dies; survivors race on; slot adopted
  stalled_thread,  // a worker parks across crash+recovery, resumes late
  reclaim_crash,   // erase-heavy mix; parked cells checked for durability
};

inline const char* scenario_name(ScenarioKind k) {
  switch (k) {
    case ScenarioKind::repeated_crash: return "repeated-crash";
    case ScenarioKind::thread_death: return "thread-death";
    case ScenarioKind::stalled_thread: return "stalled-thread";
    case ScenarioKind::reclaim_crash: return "reclaim-crash";
    default: return "single-crash";
  }
}

// REPRO_SCENARIO parsing (bench drivers).  Returns false on an
// unknown name, leaving `out` untouched.
inline bool scenario_from_name(const std::string& name,
                               ScenarioKind& out) {
  for (ScenarioKind k :
       {ScenarioKind::single_crash, ScenarioKind::repeated_crash,
        ScenarioKind::thread_death, ScenarioKind::stalled_thread,
        ScenarioKind::reclaim_crash}) {
    if (name == scenario_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

// The crash-schedule dimension of an ExperimentSpec: how many crash
// points to fuzz per structure, and where they land.
struct CrashPlan {
  std::uint64_t seed = 0;  // 0 → global_seed() (REPRO_SEED)
  // Fixed crash point: the n-th persistence instruction of every
  // iteration.  0 → drawn per iteration from [1, max_events].
  std::uint64_t after_n_events = 0;
  int points = 0;           // fuzz iterations per structure; 0 → off
  std::uint64_t max_events = 192;  // horizon for random crash points
  int ops_budget = 256;     // ops per iteration if the crash never fires
  pmem::shadow::CrashFidelity fidelity =
      pmem::shadow::CrashFidelity::adversarial;
  ScenarioKind scenario = ScenarioKind::single_crash;
  // repeated_crash: maximum chained crashes after the first (clamped to
  // [1, 3], so one iteration sees at most 4 power failures).  Each
  // chain point is derived from {iter_seed, crash_point, depth}, so a
  // {seed, crash_point} pair replays the whole chain bit-for-bit;
  // `replay_chain` overrides the derivation with explicit points (the
  // reproducer's crash_chain field).
  int chain_depth = 3;
  std::vector<std::uint64_t> replay_chain;

  std::uint64_t effective_seed() const {
    return seed != 0 ? seed : global_seed();
  }
};

// One confirmed detectability violation, with everything needed to
// replay it (the CI artifact's payload).  `seed` is the per-iteration
// seed for a fuzz_one() replay; `base_seed` is the run's plan seed —
// REPRO_SEED=<base_seed> re-runs the whole failing point, reaching the
// same iteration.
struct FuzzFailure {
  std::string structure;
  std::uint64_t seed = 0;         // iteration seed fed to fuzz_one
  std::uint64_t base_seed = 0;    // the run's CrashPlan seed
  std::uint64_t crash_point = 0;  // persistence-instruction index
  int iteration = -1;
  std::string what;
  // repeated_crash only: the chained crash points that had fired before
  // the violation (in order).  Empty for the single-crash family, so
  // old-format reproducers stay valid.
  std::vector<std::uint64_t> crash_chain;
};

// Aggregate over one structure's fuzz run.
struct FuzzReport {
  int points = 0;      // iterations executed
  int crashes = 0;     // iterations where the crash actually fired
  // repeated_crash: crashes that landed inside a recovery pass, on top
  // of `crashes` (which keeps its one-per-iteration meaning so the
  // corpus replay invariants hold unchanged).
  int chain_crashes = 0;
  int violations = 0;  // failed contract checks (0 == pass)
  std::uint64_t total_ops = 0;
  double recovery_us_total = 0;
  std::vector<FuzzFailure> failures;  // first few, for the reproducer
};

struct ConcurrentCrashPlan {
  int threads = 3;
  int ops_per_thread = 10;  // threads * ops_per_thread must stay <= 128
  std::uint64_t seed = 0;   // 0 → global_seed() (REPRO_SEED)
  int points = 0;           // fuzz iterations per structure; 0 → off
  // Horizon for the random crash-point draw; sized so most draws land
  // inside the workload's persistence-instruction stream.
  std::uint64_t max_events = 160;
  pmem::shadow::CrashFidelity fidelity =
      pmem::shadow::CrashFidelity::adversarial;
  std::uint64_t checker_states = 4'000'000;  // DFS node budget
  // Any scenario; repeated_crash chains up to 3 crashes inside
  // recovery.
  ScenarioKind scenario = ScenarioKind::single_crash;
  // stalled_thread: horizon for the stall-point draw (the stalled
  // worker parks at that persistence instruction, strictly before the
  // crash point).  0 → max_events / 2.
  std::uint64_t stall_horizon = 0;

  std::uint64_t effective_seed() const {
    return seed != 0 ? seed : global_seed();
  }
};

// One confirmed violation.  The history replays deterministically
// through the checker (tests/test_corpus.cpp shows how); {base_seed,
// iteration} re-runs the same workload draws, though not the same
// thread interleaving.
struct ConcurrentFuzzFailure {
  std::string structure;
  std::uint64_t seed = 0;         // iteration seed
  std::uint64_t base_seed = 0;    // the run's plan seed
  std::uint64_t crash_point = 0;  // persistence-instruction index
  int threads = 0;
  int iteration = -1;
  std::string what;
  std::string history_jsonl;  // metadata line + recorded events
};

struct ConcurrentFuzzReport {
  int points = 0;      // iterations executed
  int crashes = 0;     // iterations where the crash actually fired
  int violations = 0;  // checker/walk failures (0 == pass)
  int undecided = 0;   // checker state-budget exhaustions (not failures)
  std::uint64_t total_ops = 0;       // history ops across iterations
  std::uint64_t checker_states = 0;  // DFS nodes across iterations
  double recovery_us_total = 0;
  std::vector<ConcurrentFuzzFailure> failures;  // first few
};

namespace fuzz_detail {

// The recovery pass itself (AnnouncementBoard::recover) is pure loads,
// so a crash re-armed "inside recovery" would have no persistence
// instruction to land on.  Real recovery procedures checkpoint what
// they computed, and that consolidation write is exactly where the
// repeated-crash adversary aims: after every recovery pass the driver
// persists a {seq, valid} pair on two separate cache lines with the
// ordered protocol
//
//   seq := epoch;   pwb(seq);   pfence;        <- the ordering fence
//   valid := epoch; pwb(valid); pfence;
//
// whose invariant — valid durable at epoch e implies seq durable at e —
// is checked after each chained crash.  REPRO_MUTATE_DROP_RECOVERY_FENCE
// elides the first pfence, leaving both lines pending at the second
// fence; an adversarial crash there can commit valid while dropping
// seq, the classic recovery-path ordering bug this family exists to
// catch (the repeated-crash mutation self-test pins the detection
// budget).
struct RecoverySeal {
  struct alignas(64) Cell {
    pmem::persist<std::uint64_t> v;
  };
  Cell seq;
  Cell valid;

  // Persistence instructions one write() issues: 4 unmutated, 3 with
  // the fence dropped.  Chain points are drawn from [1, kSealWindow];
  // a point past the seal's instruction stream simply lets the seal
  // complete and ends the chain.
  static constexpr std::uint64_t kSealWindow = 5;

  void write(std::uint64_t epoch) {
    seq.v.store(epoch);
    pmem::flush(&seq.v);
#if !defined(REPRO_MUTATE_DROP_RECOVERY_FENCE)
    pmem::fence();
#endif
    valid.v.store(epoch);
    pmem::flush(&valid.v);
    pmem::fence();
  }

  // Post-crash invariant over the (physically rewound) durable values.
  bool durable_consistent() const {
    const std::uint64_t s = seq.v.load();
    const std::uint64_t ok = valid.v.load();
    return ok == 0 || s >= ok;
  }
};

inline constexpr std::int64_t kKeyRange = 24;

// What an entry point fixes about its iterations.  `exact` is
// fuzz_one: one lane on the calling thread, values drawn from the
// iteration's PRNG, DC3/DC4 checked by the contents oracle.
struct Config {
  bool exact = false;
  ScenarioKind scenario = ScenarioKind::single_crash;
  pmem::shadow::CrashFidelity fidelity =
      pmem::shadow::CrashFidelity::adversarial;
  int lanes = 1;
  int ops_per_lane = 0;
  int chain_depth = 3;
  std::vector<std::uint64_t> replay_chain;
  std::uint64_t stall_horizon = 0;
  std::uint64_t checker_states = 0;
};

// The replay coordinates every fuzz failure line starts with.
template <typename Failure>
std::string replay_fields(const Failure& x) {
  return "\"structure\":\"" + x.structure +
         "\",\"seed\":" + std::to_string(x.seed) +
         ",\"base_seed\":" + std::to_string(x.base_seed) +
         ",\"crash_point\":" + std::to_string(x.crash_point);
}

// What one iteration adds to its entry point's report.
struct Tally {
  int crashes = 0;
  int undecided = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t checker_states = 0;
  double recovery_us = 0;
};

inline double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One fuzz iteration, for either entry point.  Each violation goes to
// `on_failure`, which reads the replay coordinates off the driver.
class Driver {
 public:
  using OnFailure = std::function<void(const Driver&, const std::string&)>;

  Driver(const AlgoEntry& algo, Config cfg, std::uint64_t iter_seed,
         std::uint64_t crash_point, Rng& rng, OnFailure on_failure)
      : algo_(algo),
        cfg_(std::move(cfg)),
        seed_(iter_seed),
        crash_point_(crash_point),
        rng_(rng),
        on_failure_(std::move(on_failure)),
        history_(cfg_.lanes, static_cast<std::size_t>(cfg_.ops_per_lane)),
        lanes_(static_cast<std::size_t>(cfg_.lanes)) {}

  std::uint64_t crash_point() const { return crash_point_; }
  const std::vector<std::uint64_t>& chain() const { return chain_points_; }
  const HistoryRecorder& history() const { return history_; }

  Tally run() {
    namespace shadow = pmem::shadow;
    std::vector<lin::Op> ops;
    {
      mem::ReclaimPause pause;
      auto holder = algo_.make();
      s_ = holder.get();
      // Kind dispatch: exactly one interface matches.
      set_ = dynamic_cast<SetIface*>(s_);
      queue_ = dynamic_cast<QueueIface*>(s_);
      stack_ = dynamic_cast<StackIface*>(s_);
      ex_ = dynamic_cast<ExchangerIface*>(s_);
      // The durable-image walk vouches for pointers by checking them
      // against the pool slab directory; the no-reclaim ablations
      // allocate with raw `new` outside any pool, so they are verified
      // at the descriptor level only.
      contents_checked_ = s_->has_snapshot() &&
                          (set_ != nullptr || queue_ != nullptr) &&
                          !algo_.has_trait("no-reclaim");
      prefill();
      {
        pmem::ModeGuard mode(pmem::Mode::shadow);
        shadow::reset();
        arm();
        run_lanes();
        crashed_ = pmem::crash::crashed();
        pmem::crash::disarm();
        ops = lin::ops_from_history(history_);
        if (crashed_) {
          ++tally_.crashes;
          history_.mark_crash();
          if (cfg_.scenario == ScenarioKind::reclaim_crash) {
            scan_parked_cells();
          }
          // Power failure: rewind to the durable image.
          Rng coin(mix_seed(seed_, crash_point_));
          shadow::crash(cfg_.fidelity,
                        [&coin] { return coin.below(2) == 0; });
          recover_lanes(ops);
          walk();
          if (cfg_.scenario == ScenarioKind::repeated_crash) {
            crash_inside_recovery();
          }
        }
        if (cfg_.scenario == ScenarioKind::thread_death) {
          adopt_dead_lane(ops);
        }
        if (cfg_.exact) {
          verify_contents();
        } else if (walk_ok_) {
          verify_history(ops);
        }
        // Back to the pre-crash machine state so teardown and
        // reclamation run on consistent memory.  The seal is a member,
        // so the words uncrash() replays outlive it.
        if (crashed_) shadow::uncrash();
        if (parked_) resume_stalled(ops);
        if (cfg_.scenario == ScenarioKind::stalled_thread) {
          pmem::crash::disarm_stall();
        }
        shadow::reset();
      }
      tally_.total_ops = cfg_.exact ? lanes_[0].done.size() : ops.size();
      holder.reset();
    }  // ReclaimPause ends here, so the quiesce below drains the limbo
    mem::EpochDomain::instance().quiesce();
    mem::PopDomain::instance().quiesce();
    mem::HpDomain::instance().quiesce();
    return tally_;
  }

 private:
  struct alignas(64) Lane {
    int slot = -1;
    Rng rng;
    ds::Recovered base;                // before the lane's first op
    oracle::LaneVerdict verdict;       // desc: latest recovered descriptor
    oracle::LaneOp inflight;           // kind none: nothing pending
    std::vector<oracle::LaneOp> done;  // completed ops, with board seqs
  };

  // Prefill before shadow tracking starts: durable by construction.
  void prefill() {
    if (set_ != nullptr) {
      for (std::int64_t k = 1; k <= kKeyRange; ++k) {
        if (rng_.below(2) == 0 && set_->insert(k)) initial_.keys.push_back(k);
      }
    }
    const std::uint64_t n = queue_ != nullptr || stack_ != nullptr
                                ? (cfg_.exact ? 8 : 6)
                                : 0;
    for (std::uint64_t v = 1; v <= n; ++v) {
      queue_ != nullptr ? queue_->enqueue(v) : stack_->push(v);
      initial_.values.push_back(v);
    }
  }

  void arm() {
    if (cfg_.scenario == ScenarioKind::thread_death) {
      pmem::crash::set_thread_latch(true);
    }
    if (cfg_.scenario == ScenarioKind::stalled_thread) {
      // Stall strictly before the crash so the parked worker spans the
      // failure: both countdowns drain on the same instruction stream,
      // and the parked thread stops consuming instructions, so the
      // crash lands on a survivor.
      const std::uint64_t stall_point = 1 + rng_.below(cfg_.stall_horizon);
      if (crash_point_ <= stall_point) {
        crash_point_ = stall_point + 1 + (crash_point_ % 8);
      }
      pmem::crash::arm_stall(stall_point);
    }
    pmem::crash::arm(crash_point_);
  }

  void run_lanes() {
    if (cfg_.exact) {
      // On the calling thread, continuing the iteration's draw stream:
      // the replayed triple keeps its slot and its exact draws.
      lanes_[0].rng = rng_;
      run_lane(0);
      return;
    }
    workers_.reserve(lanes_.size());
    for (int t = 0; t < cfg_.lanes; ++t) {
      lanes_[static_cast<std::size_t>(t)].rng =
          Rng(mix_seed(seed_, 0x777u + static_cast<std::uint64_t>(t)));
      workers_.emplace_back([this, t] {
        run_lane(t);
        // Hold the thread slot, asleep, until every lane is done: slots
        // recycle at thread exit, and a lane that exited early would
        // hand its descriptor to a lane spawned after it.
        int n = finished_.fetch_add(1, std::memory_order_acq_rel) + 1;
        finished_.notify_all();
        while (n < cfg_.lanes) {
          finished_.wait(n, std::memory_order_acquire);
          n = finished_.load(std::memory_order_acquire);
        }
      });
    }
    // Pre-rewind, stalled_thread: quiescence is every worker finished
    // but the parked one.  It sits inside on_instruction's gate spin,
    // before the instruction's effect, holding no shard locks — so
    // rewind and verification can run around it; its join waits for
    // the post-uncrash release.
    if (cfg_.scenario == ScenarioKind::stalled_thread) {
      for (;;) {
        const int n = finished_.load(std::memory_order_acquire);
        if (n == cfg_.lanes) break;
        if (n == cfg_.lanes - 1 && pmem::crash::stall_hit()) {
          parked_ = true;
          return;
        }
        std::this_thread::yield();
      }
    }
    for (std::thread& th : workers_) th.join();
  }

  void run_lane(int t) {
    Lane& l = lanes_[static_cast<std::size_t>(t)];
    l.slot = ds::thread_slot();
    // Own-slot descriptor reads are race-free: only this thread writes
    // it.
    l.base = s_->recover(l.slot);
    l.done.reserve(static_cast<std::size_t>(cfg_.ops_per_lane));
    try {
      for (int o = 0; o < cfg_.ops_per_lane && !pmem::crash::crashed();
           ++o) {
        oracle::LaneOp op = step(l, t, o);
        op.board_seq = s_->recover(l.slot).seq;  // volatile ground truth
        l.done.push_back(op);
      }
    } catch (const pmem::crash::CrashUnwind&) {
      // The lane's last invoke stays dangling: pending at the crash (or
      // at this thread's own death in latch mode).
    }
  }

  // One operation, drawn from the lane's PRNG and run through the
  // recording adapter.  The one-lane replay draws values from its PRNG;
  // concurrent lanes use unique per-(lane, op) values above the
  // prefill range, so FIFO/LIFO violations — and the zero/stale
  // payloads a dropped pre_publish leaves durable — cannot alias a
  // legitimate value.
  oracle::LaneOp step(Lane& l, int t, int o) {
    auto value = [&](std::uint64_t bias) {
      return cfg_.exact ? bias + (l.rng.next() >> 1)
                    : static_cast<std::uint64_t>((t + 1) * 100 + o);
    };
    oracle::LaneOp op;
    std::uint64_t out = 0;
    if (set_ != nullptr) {
      op.key = 1 + static_cast<std::int64_t>(
                       l.rng.below(static_cast<std::uint64_t>(kKeyRange)));
      const std::uint64_t dice = l.rng.below(10);
      // reclaim_crash is erase-biased: each successful erase retires a
      // node, so the instruction stream is dense in retire/scan-path
      // instructions and the armed crash lands inside reclamation far
      // more often.
      const bool reclaim = cfg_.scenario == ScenarioKind::reclaim_crash;
      op.kind = dice < (reclaim ? 3u : 4u)   ? ds::OpKind::insert
                : dice < (reclaim ? 9u : 8u) ? ds::OpKind::erase
                                             : ds::OpKind::find;
      op.traced = op.kind != ds::OpKind::find;
      RecordedSet r(*set_, history_, t);
      op.ok = op.kind == ds::OpKind::insert  ? r.insert(op.key)
              : op.kind == ds::OpKind::erase ? r.erase(op.key)
                                             : r.find(op.key);
      op.result = op.ok ? 1 : 0;
    } else if (ex_ != nullptr) {
      const std::uint64_t v = value(0);
      op.kind = ds::OpKind::exchange;
      op.key = static_cast<std::int64_t>(v);
      // One lane has no partner: a short spin times out.
      op.ok = RecordedExchanger(*ex_, history_, t)
                  .exchange(v, cfg_.exact ? 2 : 24, out);
      op.result = out;
    } else if (l.rng.below(2) == 0) {
      const std::uint64_t v = value(1);
      op.key = static_cast<std::int64_t>(v);
      op.ok = true;
      op.result = v;
      if (queue_ != nullptr) {
        op.kind = ds::OpKind::enqueue;
        RecordedQueue(*queue_, history_, t).enqueue(v);
      } else {
        op.kind = ds::OpKind::push;
        RecordedStack(*stack_, history_, t).push(v);
      }
    } else {
      op.kind = queue_ != nullptr ? ds::OpKind::dequeue : ds::OpKind::pop;
      op.ok = queue_ != nullptr
                  ? RecordedQueue(*queue_, history_, t).dequeue(out)
                  : RecordedStack(*stack_, history_, t).pop(out);
      op.result = out;
    }
    return op;
  }

  // Pre-rewind, reclaim_crash — checked against the pre-rewind
  // tracking state (shadow::crash makes every word clean): every parked
  // cell, retired into any scheme's limbo/batch under the iteration's
  // ReclaimPause, must be durably equal to its volatile contents.
  // persist-before-retire (mem::detail::persist_retired) guarantees
  // it; the REPRO_MUTATE_DROP_RETIRE_PERSIST build elides its fence and
  // must be caught here — a retired-but-dirty cell means a rewound
  // durable link could reach a torn image of it.
  void scan_parked_cells() {
    struct {
      std::size_t parked = 0;
      std::size_t dirty = 0;
    } scan;
    mem::for_each_parked_cell(
        &scan, [](void* ctx, const void* cell, std::size_t bytes) {
          auto* d = static_cast<decltype(scan)*>(ctx);
          ++d->parked;
          if (pmem::shadow::range_dirty(cell, bytes)) ++d->dirty;
        });
    if (scan.dirty != 0) {
      fail(std::to_string(scan.dirty) + " of " +
           std::to_string(scan.parked) +
           " parked cells hold unpersisted stores at crash "
           "(persist-before-retire)");
    }
  }

  static lin::Op* pending_op(std::vector<lin::Op>& ops, std::size_t lane) {
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      if (it->lane == static_cast<int>(lane) && it->response_ts == lin::kNever) {
        return &*it;
      }
    }
    return nullptr;
  }

  // The per-lane oracle on one recovered descriptor.  A must verdict
  // makes the lane's pending op a `must` with the descriptor's
  // response — the checker input the paper's contract implies.
  void judge(std::size_t t, const ds::Recovered& d,
             std::vector<lin::Op>& ops, const char* who) {
    Lane& l = lanes_[t];
    lin::Op* pend = pending_op(ops, t);
    if (pend != nullptr) {
      l.inflight.kind = pend->kind;
      l.inflight.key = pend->input;
    }
    l.verdict = oracle::judge_lane(
        l.base, l.done, d,
        pend != nullptr ? oracle::InFlight::known : oracle::InFlight::none,
        l.inflight);
    if (l.verdict.verdict == oracle::Verdict::violation) {
      fail(std::string(who) + " " + std::to_string(t) + ": " +
           l.verdict.what);
    }
    if (pend == nullptr) return;
    if (l.verdict.verdict == oracle::Verdict::must) {
      pend->pending = lin::Pending::must;
      pend->ok = d.ok;
      pend->result = d.result;
    }
    char diag[128];
    std::snprintf(diag, sizeof(diag),
                  "; %s %zu pending %s(%lld) verdict=%s ok=%d result=%llu",
                  who, t, op_kind_name(pend->kind),
                  static_cast<long long>(pend->input),
                  pend->pending == lin::Pending::must ? "must" : "may",
                  pend->ok ? 1 : 0,
                  static_cast<unsigned long long>(pend->result));
    diag_ += diag;
  }

  void recover_lanes(std::vector<lin::Op>& ops) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
      judge(t, s_->recover(lanes_[t].slot), ops, "lane");
    }
    tally_.recovery_us += us_since(t0);
  }

  bool walk_into(std::vector<std::int64_t>& keys,
                 std::vector<std::uint64_t>& values) const {
    return set_ != nullptr ? s_->snapshot_keys(keys)
                           : s_->snapshot_values(values);
  }

  // Durable contents, walked while the structure physically holds the
  // durable image.
  void walk() {
    if (!contents_checked_) return;
    walk_ok_ = walk_into(durable_keys_, durable_values_);
    if (!walk_ok_) {
      fail("durable image walk failed: link into never-persisted memory "
           "or a cycle");
    }
  }

  // Post-recover, repeated_crash: the adversary crashes again inside
  // the recovery pass — at the RecoverySeal consolidation write — up to
  // chain_depth times, re-recovering after each and holding recovery
  // to idempotence.  The machine stays crashed between links (each
  // shadow::crash keeps the accumulated undo log); the one uncrash()
  // after verification restores the whole pre-crash state.
  void crash_inside_recovery() {
    const std::uint64_t link = mix_seed(seed_, crash_point_);
    const int depth_cap = std::clamp(cfg_.chain_depth, 1, 3);
    for (int depth = 0; depth < depth_cap; ++depth) {
      const auto du = static_cast<std::uint64_t>(depth);
      const std::uint64_t point =
          du < cfg_.replay_chain.size()
              ? cfg_.replay_chain[du]
              : 1 + mix_seed(link, du) % RecoverySeal::kSealWindow;
      pmem::crash::arm(point);
      bool chained = false;
      try {
        seal_.write(du + 1);
      } catch (const pmem::crash::CrashUnwind&) {
        chained = true;
      }
      pmem::crash::disarm();
      if (!chained) break;  // seal completed; the chain ends here
      chain_points_.push_back(point);
      Rng coin(mix_seed(link, 0x5EA1'0000ull + du));
      pmem::shadow::crash(
          cfg_.fidelity, [&coin] { return coin.below(2) == 0; },
          /*keep_undo=*/true);
      if (!seal_.durable_consistent()) {
        fail("recovery seal ordering violated: valid durable without its "
             "seq (crash inside recover())");
      }
      // Idempotence: every recovery pass returns the verdict the first
      // did — the chained crash could only touch the seal's own lines.
      const auto t1 = std::chrono::steady_clock::now();
      for (Lane& l : lanes_) {
        const ds::Recovered again = s_->recover(l.slot);
        if (!oracle::same_descriptor(again, l.verdict.desc)) {
          fail("recovery is not idempotent across a crash inside "
               "recover()");
        }
        l.verdict.desc = again;
      }
      tally_.recovery_us += us_since(t1);
      // Nor can the structure's durable contents have moved.
      std::vector<std::int64_t> keys;
      std::vector<std::uint64_t> values;
      if (contents_checked_ && walk_ok_ &&
          (!walk_into(keys, values) || keys != durable_keys_ ||
           values != durable_values_)) {
        fail("chained recovery mutated the durable contents");
      }
    }
  }

  // Post-join, thread_death: the machine never lost power — the
  // latch-mode countdown killed one worker mid-op while the survivors
  // ran to completion, so the only pending op is the dead lane's.  A
  // fresh thread adopts its slot and recovers it, and the verdict feeds
  // the checker.  No durable cut: the volatile state is the truth.
  void adopt_dead_lane(std::vector<lin::Op>& ops) {
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
      if (pending_op(ops, t) == nullptr) continue;
      ++tally_.crashes;  // the adversary fired
      const int slot = lanes_[t].slot;
      // The dead worker's thread-exit cleanup already cleared its epoch
      // pin; reset_slot_pin makes the harness's "this lane is dead"
      // claim explicit before the slot is adopted.
      mem::EpochDomain::instance().reset_slot_pin(slot);
      mem::PopDomain::instance().reset_slot_pin(slot);
      ds::Recovered adopted;
      std::thread([&] { adopted = s_->recover(slot); }).join();
      judge(t, adopted, ops, "dead lane");
    }
  }

  // fuzz_one: DC3/DC4 against the exact one-lane model.
  void verify_contents() {
    if (!crashed_ || !contents_checked_ || !walk_ok_) return;
    const Lane& l = lanes_[0];
    oracle::Contents model = initial_;
    std::string why = oracle::replay(model, l.done);
    if (why.empty()) {
      why = oracle::judge_contents(
          model, l.verdict,
          l.inflight.kind != ds::OpKind::none ? &l.inflight : nullptr,
          oracle::Contents::walked(durable_keys_, durable_values_));
    }
    if (!why.empty()) fail(why);
  }

  lin::Spec spec() const {
    lin::Spec sp;
    sp.kind = set_ != nullptr     ? lin::Semantics::set
              : queue_ != nullptr ? lin::Semantics::queue
              : stack_ != nullptr ? lin::Semantics::stack
                                  : lin::Semantics::exchanger;
    sp.initial_keys = initial_.keys;
    sp.initial_values = initial_.values;
    sp.max_states = cfg_.checker_states;
    return sp;
  }

  // concurrent_fuzz_one: the history must linearize, with the durable
  // cut when the machine crashed.
  void verify_history(const std::vector<lin::Op>& ops) {
    lin::Spec sp = spec();
    if (crashed_ && contents_checked_) {
      // Stalled-thread + set: the parked worker can hold an unfenced
      // incoming link across the whole window, so later completed
      // inserts build durably on top of it and the durable image need
      // not be a prefix of any linearization — the same cross-thread
      // hostage window that already exempts sets from the
      // must-inside-the-cut rule (linearize.hpp), held open for the
      // stall's full duration.  The walk integrity check and the
      // linearization itself still run; only the prefix-cut constraint
      // is waived.  Queues/stacks keep it: persist-link-before-publish
      // closes the window.
      sp.check_durable = !(cfg_.scenario == ScenarioKind::stalled_thread &&
                           set_ != nullptr);
      sp.durable_keys = durable_keys_;
      sp.durable_values = durable_values_;
    }
    check(ops, sp, "");
  }

  void check(const std::vector<lin::Op>& ops, const lin::Spec& sp,
             const std::string& prefix) {
    const lin::Result res = lin::check(ops, sp);
    tally_.checker_states += res.states;
    if (res.verdict == lin::Verdict::budget_exhausted) ++tally_.undecided;
    if (res.verdict != lin::Verdict::violation) return;
    // The walked durable image is part of the verdict's input; carry it
    // so a dumped failure is self-contained.
    std::string what = prefix + res.what;
    auto join = [](const auto& xs) {
      std::string out;
      for (auto x : xs) out += (out.empty() ? "" : " ") + std::to_string(x);
      return out;
    };
    if (sp.check_durable) {  // one of the two is empty
      what += "; durable image = [" + join(sp.durable_keys) +
              join(sp.durable_values) + "]";
    }
    fail(what + diag_);
  }

  // Post-uncrash, stalled_thread: power is back and the plan disarmed,
  // so the parked worker is released.  It finishes the op it was parked
  // inside — its late stores land on the restored state — and runs the
  // rest of its budget as ordinary ops.
  void resume_stalled(const std::vector<lin::Op>& before) {
    pmem::crash::release_stall();
    for (std::thread& th : workers_) th.join();
    const std::vector<lin::Op> after = lin::ops_from_history(history_);
    // A committed-at-crash op cannot come back claiming a different
    // outcome than its durable must-verdict.
    for (const lin::Op& b : before) {
      for (const lin::Op& a : after) {
        if (b.pending == lin::Pending::must && a.lane == b.lane &&
            a.id == b.id && a.response_ts != lin::kNever &&
            (a.ok != b.ok || a.result != b.result)) {
          fail("stalled thread resumed with a response disagreeing with "
               "its durable must-verdict");
        }
      }
    }
    // And the full post-resume history must still linearize (no durable
    // cut: the machine is back on) — the staller's late stores must not
    // have corrupted the recovered state.
    check(after, spec(), "post-resume history fails to linearize: ");
  }

  void fail(const std::string& what) { on_failure_(*this, what); }

  const AlgoEntry& algo_;
  const Config cfg_;
  const std::uint64_t seed_;
  std::uint64_t crash_point_;
  Rng& rng_;
  const OnFailure on_failure_;
  Tally tally_;

  Structure* s_ = nullptr;
  SetIface* set_ = nullptr;
  QueueIface* queue_ = nullptr;
  StackIface* stack_ = nullptr;
  ExchangerIface* ex_ = nullptr;
  bool contents_checked_ = false;
  oracle::Contents initial_;

  HistoryRecorder history_;
  std::vector<Lane> lanes_;
  std::vector<std::thread> workers_;
  std::atomic<int> finished_{0};
  bool parked_ = false;
  bool crashed_ = false;

  bool walk_ok_ = true;
  std::vector<std::int64_t> durable_keys_;
  std::vector<std::uint64_t> durable_values_;
  RecoverySeal seal_;
  std::vector<std::uint64_t> chain_points_;
  std::string diag_;  // lane verdicts, appended to checker failures
};

}  // namespace fuzz_detail

// Runs one deterministic fuzz iteration.  `crash_point` of 0 lets the
// iteration's own PRNG draw it (as fuzz_structure does); a non-zero
// value replays an exact reported failure.  Appends to `report`.
inline void fuzz_one(const AlgoEntry& algo, const CrashPlan& plan,
                     std::uint64_t iter_seed, std::uint64_t crash_point,
                     int iteration, FuzzReport& report) {
  Rng rng(iter_seed);
  // The crash-point draw is consumed unconditionally so that replaying
  // a reported failure with an explicit crash_point leaves the Rng in
  // the same state as the original iteration — otherwise every
  // subsequent prefill/op draw would shift by one and the replayed
  // workload would differ.
  if (plan.after_n_events != 0) {
    if (crash_point == 0) crash_point = plan.after_n_events;
  } else {
    const std::uint64_t drawn = 1 + rng.below(plan.max_events);
    if (crash_point == 0) crash_point = drawn;
  }
  fuzz_detail::Config cfg;
  cfg.exact = true;
  cfg.scenario = plan.scenario == ScenarioKind::thread_death ||
                         plan.scenario == ScenarioKind::stalled_thread
                     ? ScenarioKind::single_crash
                     : plan.scenario;
  cfg.fidelity = plan.fidelity;
  cfg.ops_per_lane = plan.ops_budget;
  cfg.chain_depth = plan.chain_depth;
  cfg.replay_chain = plan.replay_chain;
  ++report.points;
  fuzz_detail::Driver driver(
      algo, std::move(cfg), iter_seed, crash_point, rng,
      [&](const fuzz_detail::Driver& d, const std::string& what) {
        ++report.violations;
        if (report.failures.size() < 8) {
          report.failures.push_back({algo.name, iter_seed,
                                     plan.effective_seed(), d.crash_point(),
                                     iteration, what, d.chain()});
        }
      });
  const fuzz_detail::Tally t = driver.run();
  report.crashes += t.crashes;
  report.chain_crashes += static_cast<int>(driver.chain().size());
  report.total_ops += t.total_ops;
  report.recovery_us_total += t.recovery_us;
}

// Fuzzes one structure across plan.points crash points.
inline FuzzReport fuzz_structure(const AlgoEntry& algo,
                                 const CrashPlan& plan) {
  FuzzReport report;
  const std::uint64_t base = plan.effective_seed();
  for (int i = 0; i < plan.points; ++i) {
    fuzz_one(algo, plan, mix_seed(base, static_cast<std::uint64_t>(i)),
             0, i, report);
  }
  return report;
}

// Writes the failing reproducers as JSON lines (the CI artifact).
// Replay either the whole failing point —
//   REPRO_SEED=<base_seed> ./crash_recovery
//     --benchmark_filter='crash-fuzz/<structure>/'
// — or the single iteration, fuzz_one(algo, plan, seed, crash_point,
// ...), in a unit test.
inline void write_reproducer(const FuzzReport& report,
                             const std::string& path) {
  std::string lines;
  for (const FuzzFailure& x : report.failures) {
    std::string fields = fuzz_detail::replay_fields(x) + ",\"iteration\":" +
                         std::to_string(x.iteration);
    if (!x.crash_chain.empty()) {
      // Extended (repeated-crash) format; absent for single-crash
      // failures so existing consumers keep parsing.
      fields += ",\"crash_chain\":[";
      for (std::size_t i = 0; i < x.crash_chain.size(); ++i) {
        fields += (i == 0 ? "" : ",") + std::to_string(x.crash_chain[i]);
      }
      fields += "]";
    }
    lines += failure_jsonl(fields, x.what);
  }
  append_jsonl(path, lines);
}

// Runs one concurrent fuzz iteration.  `crash_point` of 0 lets the
// iteration's own PRNG draw it (as concurrent_fuzz_structure does).
// Iterations where the countdown outlives the workload still run the
// checker as a plain concurrent linearizability test.
inline void concurrent_fuzz_one(const AlgoEntry& algo,
                                const ConcurrentCrashPlan& plan,
                                std::uint64_t iter_seed,
                                std::uint64_t crash_point, int iteration,
                                ConcurrentFuzzReport& report) {
  Rng rng(iter_seed);
  // Drawn unconditionally so an explicit crash_point replays the same
  // downstream prefill draws (same convention as fuzz_one).
  const std::uint64_t drawn = 1 + rng.below(plan.max_events);
  if (crash_point == 0) crash_point = drawn;
  fuzz_detail::Config cfg;
  cfg.scenario = plan.scenario;
  cfg.fidelity = plan.fidelity;
  // Clamp to the checker's 128-op mask: a misconfigured plan
  // (REPRO_CONC_FUZZ_THREADS cranked up) must shrink the per-thread
  // budget rather than silently turn every verdict into
  // budget_exhausted — an "undecided" gate that can't fail verifies
  // nothing.  The adversarial scenarios need a victim AND at least one
  // survivor, so they floor the thread count at 2.
  cfg.lanes = std::clamp(plan.scenario == ScenarioKind::single_crash
                             ? plan.threads
                             : std::max(plan.threads, 2),
                         1, 64);
  cfg.ops_per_lane = std::clamp(plan.ops_per_thread, 1, 128 / cfg.lanes);
  cfg.stall_horizon = plan.stall_horizon != 0
                          ? plan.stall_horizon
                          : std::max<std::uint64_t>(1, plan.max_events / 2);
  cfg.checker_states = plan.checker_states;
  const int threads = cfg.lanes;
  ++report.points;
  const fuzz_detail::Tally t =
      fuzz_detail::Driver(
          algo, std::move(cfg), iter_seed, crash_point, rng,
          [&](const fuzz_detail::Driver& d, const std::string& what) {
            ++report.violations;
            if (report.failures.size() >= 4) return;
            ConcurrentFuzzFailure f{algo.name, iter_seed,
                                    plan.effective_seed(), d.crash_point(),
                                    threads, iteration, what, ""};
            f.history_jsonl =
                failure_jsonl(fuzz_detail::replay_fields(f) +
                                  ",\"threads\":" + std::to_string(threads) +
                                  ",\"iteration\":" +
                                  std::to_string(iteration),
                              what) +
                d.history().to_jsonl();
            report.failures.push_back(std::move(f));
          })
          .run();
  report.crashes += t.crashes;
  report.total_ops += t.total_ops;
  report.recovery_us_total += t.recovery_us;
  report.checker_states += t.checker_states;
  report.undecided += t.undecided;
}

// Fuzzes one structure across plan.points concurrent crash points.
// The seed stream is salted away from fuzz_structure's so running both
// drivers off one REPRO_SEED explores different workloads.
inline ConcurrentFuzzReport concurrent_fuzz_structure(
    const AlgoEntry& algo, const ConcurrentCrashPlan& plan) {
  ConcurrentFuzzReport report;
  const std::uint64_t base = plan.effective_seed();
  for (int i = 0; i < plan.points; ++i) {
    concurrent_fuzz_one(
        algo, plan,
        mix_seed(base, 0xC0C0'0000ull + static_cast<std::uint64_t>(i)),
        0, i, report);
  }
  return report;
}

// Appends the failing histories (metadata line + JSONL events each) —
// the concurrent-fuzz CI artifact.
inline void write_history_dump(const ConcurrentFuzzReport& report,
                               const std::string& path) {
  std::string lines;
  for (const ConcurrentFuzzFailure& x : report.failures) {
    lines += x.history_jsonl;
  }
  append_jsonl(path, lines);
}

}  // namespace repro::harness
