// Crash-point fuzzers: the dynamic half of the crash-simulation
// engine.  Two drivers share the shadow-NVM machinery:
//
//   fuzz_one / fuzz_structure — the deterministic single-threaded
//     driver (below), verifying the descriptor-level detectability
//     contract D1-D4 against an exact op-by-op model.
//   concurrent_fuzz_one / concurrent_fuzz_structure — the
//     multi-threaded driver (end of this header): N racing workers
//     recorded into a history (harness/history.hpp), a crash armed at
//     a persistence-instruction boundary that lands on whichever
//     thread issues it, and the durable image verified by the
//     durable-linearizability checker (harness/linearize.hpp).
//
// One single-threaded fuzz iteration builds a fresh structure,
// prefills it, switches the pmem layer into shadow-NVM mode, arms a
// crash at a PRNG-chosen persistence-instruction boundary
// (pmem/crash.hpp), and drives a deterministic single-threaded
// workload until the crash fires.  The
// simulated power failure then rewinds every tracked word to the
// durable image (pmem/shadow.hpp, adversarial fidelity: write-backs
// pending at the crash complete or not per the same PRNG), and the
// verifier replays AnnouncementBoard::recover() against that image and
// checks the detectability contract:
//
//   D1  The durable descriptor matches exactly one operation the
//       thread ran: the last durably-committed one, or the in-flight
//       one.  Anything else is a lost or duplicated commit.
//   D2  If it names a completed (pre-crash) operation, it must carry
//       that operation's full response (kind, key, ok, result), and
//       every later completed operation must have been a find — the
//       only operations entitled to leave no durable trace (the
//       read-only optimization).
//   D3  If it names the in-flight operation as done, the response must
//       be the one the durable contents imply — completed-with-
//       response XOR not-applied, never "completed" with the effect
//       lost.
//   D4  The durable contents (lists: logical key walk; queues: value
//       walk) must equal the model after the last completed operation,
//       with or without the in-flight operation's effect — no lost or
//       duplicated effects, and the walk itself must be well-formed
//       (no durable links into never-persisted memory, no cycles).
//
// Structures without a snapshot surface (BST/skiplist/stack/
// exchanger) are verified against D1-D2 and the D3 response-shape
// rules only.
//
// Determinism: everything derives from {seed, iteration}; a reported
// failure's {structure, seed, crash_point} triple replays bit-for-bit
// through fuzz_one() (the REPRO_SEED satellite feeds the same base
// seed to benches and tests).  Reclamation is paused for the span of
// an iteration so a rewound durable link can never target a recycled
// cell; after verification the crash is undone (shadow::uncrash) and
// the structure torn down through the normal destructor path — a real
// crash never runs destructors, but a simulation has to.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/harness/history.hpp"
#include "repro/harness/linearize.hpp"
#include "repro/harness/registry.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/workload.hpp"
#include "repro/mem/ebr.hpp"
#include "repro/mem/hp.hpp"
#include "repro/mem/pop.hpp"
#include "repro/pmem/crash.hpp"
#include "repro/pmem/persist.hpp"
#include "repro/pmem/shadow.hpp"

namespace repro::harness {

// Which adversarial crash family an iteration runs (README "Crash
// scenarios").  single_crash is the PR 4/5 behaviour: one full-system
// stop, one recovery pass.  The single-threaded driver additionally
// understands repeated_crash; the concurrent driver understands
// thread_death and stalled_thread.
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

namespace fuzz_detail {

// What the driver remembers about one completed operation.
struct OpRec {
  std::uint64_t board_seq = 0;  // descriptor seq after the op (volatile)
  ds::OpKind kind = ds::OpKind::none;
  std::int64_t key = 0;
  bool ok = false;
  std::uint64_t result = 0;
  bool mutating = false;  // insert/erase/enqueue/dequeue/push/pop
};

// One OpKind-to-string mapping for the whole harness: history.hpp's
// op_kind_name (already in scope via the include above).
using harness::op_kind_name;

// Contents models.  The set model mirrors a list's logical key set;
// the queue model mirrors values front to back.
struct Model {
  std::set<std::int64_t> keys;
  std::vector<std::uint64_t> values;

  void apply_set(ds::OpKind k, std::int64_t key) {
    if (k == ds::OpKind::insert) keys.insert(key);
    if (k == ds::OpKind::erase) keys.erase(key);
  }
  void apply_queue(ds::OpKind k, std::uint64_t v) {
    if (k == ds::OpKind::enqueue) values.push_back(v);
    if (k == ds::OpKind::dequeue && !values.empty()) {
      values.erase(values.begin());
    }
  }
};

inline bool set_equals(const std::set<std::int64_t>& model,
                       std::vector<std::int64_t> walked) {
  std::sort(walked.begin(), walked.end());
  return walked.size() == model.size() &&
         std::equal(walked.begin(), walked.end(), model.begin());
}

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

}  // namespace fuzz_detail

// Runs one deterministic fuzz iteration.  `crash_point` of 0 lets the
// iteration's own PRNG draw it (as fuzz_structure does); a non-zero
// value replays an exact reported failure.  Appends to `report`.
inline void fuzz_one(const AlgoEntry& algo, const CrashPlan& plan,
                     std::uint64_t iter_seed, std::uint64_t crash_point,
                     int iteration, FuzzReport& report) {
  using namespace fuzz_detail;
  namespace shadow = pmem::shadow;

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

  ++report.points;
  // Retired cells must stay intact until the durable image has been
  // verified (a rewound link may point at them); the braces end the
  // pause before the final quiesce() so the iteration's limbo actually
  // drains.
  {
  mem::ReclaimPause pause;
  auto holder = algo.make();
  Structure* s = holder.get();
  const bool is_set = algo.kind == Kind::set;
  const bool is_queue = algo.kind == Kind::queue;
  auto* set = is_set ? dynamic_cast<SetIface*>(s) : nullptr;
  auto* queue = is_queue ? dynamic_cast<QueueIface*>(s) : nullptr;
  auto* stack =
      algo.kind == Kind::stack ? dynamic_cast<StackIface*>(s) : nullptr;
  auto* ex = algo.kind == Kind::exchanger
                 ? dynamic_cast<ExchangerIface*>(s)
                 : nullptr;
  // The durable-image walk vouches for pointers by checking them
  // against the pool slab directory; the no-reclaim ablations allocate
  // with raw `new` outside any pool, so they are verified at the
  // descriptor level only.
  const bool contents_checked = s->has_snapshot() &&
                                (is_set || is_queue) &&
                                !algo.has_trait("no-reclaim");

  // Chained crash points that have fired so far this iteration
  // (repeated_crash); recorded into any failure as its crash_chain.
  std::vector<std::uint64_t> chain_points;
  auto fail = [&](const std::string& what) {
    ++report.violations;
    if (report.failures.size() < 8) {
      FuzzFailure f;
      f.structure = algo.name;
      f.seed = iter_seed;
      f.base_seed = plan.effective_seed();
      f.crash_point = crash_point;
      f.iteration = iteration;
      f.what = what;
      f.crash_chain = chain_points;
      report.failures.push_back(std::move(f));
    }
  };

  // Prefill before shadow tracking starts: its state is durable by
  // construction (persisted before the crash plan began).
  constexpr std::int64_t kKeyRange = 24;
  Model model;
  if (set != nullptr) {
    for (std::int64_t k = 1; k <= kKeyRange; ++k) {
      if (rng.below(2) == 0 && set->insert(k)) model.keys.insert(k);
    }
  } else if (queue != nullptr) {
    for (std::uint64_t v = 1; v <= 8; ++v) {
      queue->enqueue(v);
      model.values.push_back(v);
    }
  } else if (stack != nullptr) {
    for (std::uint64_t v = 1; v <= 8; ++v) stack->push(v);
  }

  const int slot = ds::thread_slot();
  const ds::Recovered base = s->recover(slot);

  std::vector<OpRec> done;
  done.reserve(static_cast<std::size_t>(plan.ops_budget));
  bool crashed = false;
  OpRec inflight;

  {
    pmem::ModeGuard mode(pmem::Mode::shadow);
    shadow::reset();
    pmem::crash::arm(crash_point);
    try {
      for (int o = 0; o < plan.ops_budget; ++o) {
        OpRec rec;
        if (set != nullptr) {
          rec.key = 1 + static_cast<std::int64_t>(
                            rng.below(static_cast<std::uint64_t>(
                                kKeyRange)));
          const std::uint64_t dice = rng.below(10);
          if (plan.scenario == ScenarioKind::reclaim_crash) {
            // Erase-biased: each successful erase retires a node, so
            // the persistence-instruction stream is dense in
            // retire/scan-path instructions and the armed crash point
            // lands inside reclamation far more often.
            rec.kind = dice < 3   ? ds::OpKind::insert
                       : dice < 9 ? ds::OpKind::erase
                                  : ds::OpKind::find;
          } else {
            rec.kind = dice < 4   ? ds::OpKind::insert
                       : dice < 8 ? ds::OpKind::erase
                                  : ds::OpKind::find;
          }
          rec.mutating = rec.kind != ds::OpKind::find;
          inflight = rec;
          switch (rec.kind) {
            case ds::OpKind::insert: rec.ok = set->insert(rec.key); break;
            case ds::OpKind::erase: rec.ok = set->erase(rec.key); break;
            default: rec.ok = set->find(rec.key); break;
          }
          rec.result = rec.ok ? 1 : 0;
          if (rec.mutating && rec.ok) model.apply_set(rec.kind, rec.key);
        } else if (queue != nullptr) {
          if (rng.below(2) == 0) {
            const std::uint64_t v = 1 + (rng.next() >> 1);
            rec.kind = ds::OpKind::enqueue;
            rec.key = static_cast<std::int64_t>(v);
            rec.mutating = true;
            inflight = rec;
            queue->enqueue(v);
            rec.ok = true;
            rec.result = v;
            model.apply_queue(rec.kind, v);
          } else {
            rec.kind = ds::OpKind::dequeue;
            rec.mutating = true;
            inflight = rec;
            std::uint64_t out = 0;
            rec.ok = queue->dequeue(out);
            rec.result = out;
            if (rec.ok) model.apply_queue(rec.kind, 0);
          }
        } else if (stack != nullptr) {
          if (rng.below(2) == 0) {
            const std::uint64_t v = 1 + (rng.next() >> 1);
            rec.kind = ds::OpKind::push;
            rec.key = static_cast<std::int64_t>(v);
            rec.mutating = true;
            inflight = rec;
            stack->push(v);
            rec.ok = true;
            rec.result = v;
          } else {
            rec.kind = ds::OpKind::pop;
            rec.mutating = true;
            inflight = rec;
            std::uint64_t out = 0;
            rec.ok = stack->pop(out);
            rec.result = out;
          }
        } else {
          const std::uint64_t v = rng.next() >> 1;
          rec.kind = ds::OpKind::exchange;
          rec.key = static_cast<std::int64_t>(v);
          rec.mutating = true;
          inflight = rec;
          std::uint64_t out = 0;
          rec.ok = ex->exchange(v, 2, out);  // unpaired: times out
          rec.result = out;
        }
        rec.board_seq = s->recover(slot).seq;  // volatile ground truth
        done.push_back(rec);
      }
    } catch (const pmem::crash::CrashUnwind&) {
      crashed = true;
    }
    pmem::crash::disarm();

    if (crashed) {
      ++report.crashes;
      // Crash-during-reclaim invariant, checked against the *pre-rewind*
      // tracking state (shadow::crash makes every word clean):
      // every parked cell — retired into any scheme's limbo/batch under
      // the iteration's ReclaimPause — must be durably equal to its
      // volatile contents.  persist-before-retire (flush+fence in
      // mem::detail::persist_retired) is what guarantees it; the
      // REPRO_MUTATE_DROP_RETIRE_PERSIST build elides that fence and
      // must be caught here (a retired-but-dirty cell means a rewound
      // durable link could reach a torn image of it).
      if (plan.scenario == ScenarioKind::reclaim_crash) {
        struct ParkedScan {
          std::size_t parked = 0;
          std::size_t dirty = 0;
        } pscan;
        mem::for_each_parked_cell(
            &pscan, [](void* ctx, const void* cell, std::size_t bytes) {
              auto* d = static_cast<ParkedScan*>(ctx);
              ++d->parked;
              if (pmem::shadow::range_dirty(cell, bytes)) ++d->dirty;
            });
        if (pscan.dirty != 0) {
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "%zu of %zu parked cells hold unpersisted "
                        "stores at crash (persist-before-retire)",
                        pscan.dirty, pscan.parked);
          fail(buf);
        }
      }
      // Power failure: rewind to the durable image.
      Rng coin_rng(mix_seed(iter_seed, crash_point));
      shadow::crash(plan.fidelity,
                    [&coin_rng] { return coin_rng.below(2) == 0; });

      const auto t0 = std::chrono::steady_clock::now();
      const ds::Recovered rec = s->recover(slot);
      report.recovery_us_total +=
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count();

      const std::uint64_t last_seq =
          done.empty() ? base.seq : done.back().board_seq;
      const std::uint64_t inflight_seq = last_seq + 1;

      // Durable contents, walked while the structure physically holds
      // the durable image.
      bool walk_ok = true;
      std::vector<std::int64_t> durable_keys;
      std::vector<std::uint64_t> durable_values;
      if (contents_checked) {
        walk_ok = is_set ? s->snapshot_keys(durable_keys)
                         : s->snapshot_values(durable_values);
        if (!walk_ok) {
          fail("durable image walk failed: link into never-persisted "
               "memory or a cycle");
        }
      }

      // D4: contents must be the model with or without the in-flight
      // effect.
      bool inflight_effect_applied = false;
      if (contents_checked && walk_ok) {
        Model with = model;  // model already reflects completed ops
        bool ambiguous = false;  // effect is a no-op (e.g. failed erase)
        if (is_set) {
          Model without = model;
          if (inflight.kind != ds::OpKind::none && inflight.mutating) {
            with.apply_set(inflight.kind, inflight.key);
          }
          const bool matches_without =
              set_equals(without.keys, durable_keys);
          const bool matches_with = set_equals(with.keys, durable_keys);
          ambiguous = with.keys == without.keys;
          inflight_effect_applied = matches_with && !ambiguous;
          if (!matches_without && !matches_with) {
            fail("durable set contents match neither pre- nor "
                 "post-in-flight model");
          }
        } else {
          Model without = model;
          if (inflight.kind == ds::OpKind::enqueue) {
            with.apply_queue(ds::OpKind::enqueue,
                             static_cast<std::uint64_t>(inflight.key));
          } else if (inflight.kind == ds::OpKind::dequeue) {
            with.apply_queue(ds::OpKind::dequeue, 0);
          }
          const bool matches_without = durable_values == without.values;
          const bool matches_with = durable_values == with.values;
          ambiguous = with.values == without.values;
          inflight_effect_applied = matches_with && !ambiguous;
          if (!matches_without && !matches_with) {
            fail("durable queue contents match neither pre- nor "
                 "post-in-flight model");
          }
        }
      }

      // D1-D3: descriptor vs. the thread's operation history.
      if (rec.seq == inflight_seq) {
        // The in-flight operation's announcement reached the durable
        // image.  Pending is always legitimate; done must carry a
        // response consistent with the durable contents.
        if (rec.completed) {
          if (contents_checked && walk_ok && inflight.mutating) {
            bool response_ok = true;
            if (is_set) {
              const bool present = model.keys.count(inflight.key) > 0;
              const bool expect_ok =
                  inflight.kind == ds::OpKind::insert ? !present
                                                      : present;
              // A committed-with-success mutation must have its effect
              // durable; a committed no-op must not have one.
              response_ok = rec.ok == expect_ok &&
                            (!rec.ok || inflight_effect_applied);
            } else if (inflight.kind == ds::OpKind::enqueue) {
              response_ok = rec.ok && inflight_effect_applied;
            } else {  // dequeue
              const bool had = !model.values.empty();
              response_ok =
                  rec.ok == had &&
                  (!rec.ok ||
                   (inflight_effect_applied &&
                    rec.result == model.values.front()));
            }
            if (!response_ok) {
              fail(std::string("in-flight ") + op_kind_name(inflight.kind) +
                   " committed durably but its response/effect "
                   "disagree with the durable contents");
            }
          }
        } else if (rec.kind != inflight.kind ||
                   rec.key != inflight.key) {
          fail("durable announcement names a different operation than "
               "the in-flight one");
        }
      } else {
        // Must be the last durably-committed operation, every later
        // completed op a find.  Only ops that *announced* (bumped the
        // board seq — finds without a DetectableOp never touch the
        // descriptor) can be what the durable descriptor describes.
        int match = -1;
        for (int j = static_cast<int>(done.size()) - 1; j >= 0; --j) {
          const auto ju = static_cast<std::size_t>(j);
          const std::uint64_t prev_seq =
              j == 0 ? base.seq : done[ju - 1].board_seq;
          if (done[ju].board_seq == rec.seq &&
              done[ju].board_seq != prev_seq) {
            match = j;
            break;
          }
        }
        if (match < 0 && rec.seq == base.seq) {
          // Rewound to the pre-workload state: legal only if no
          // completed op was obliged to leave a trace, and the
          // descriptor is byte-for-byte the pre-workload one.
          bool all_traceless = true;
          for (const OpRec& r : done) all_traceless &= !r.mutating;
          if (!all_traceless) {
            fail("durable descriptor predates committed mutations "
                 "(lost commit)");
          } else if (rec.completed != base.completed ||
                     rec.kind != base.kind || rec.key != base.key ||
                     rec.ok != base.ok || rec.result != base.result) {
            fail("pre-workload descriptor corrupted across the crash");
          }
        } else if (match < 0) {
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "durable descriptor seq %llu matches no "
                        "operation this thread ran",
                        static_cast<unsigned long long>(rec.seq));
          fail(buf);
        } else {
          const OpRec& m = done[static_cast<std::size_t>(match)];
          if (!rec.completed || rec.kind != m.kind || rec.key != m.key ||
              rec.ok != m.ok || rec.result != m.result) {
            fail(std::string("durable descriptor for completed ") +
                 op_kind_name(m.kind) +
                 " lost or corrupted its response");
          }
          for (std::size_t j = static_cast<std::size_t>(match) + 1;
               j < done.size(); ++j) {
            if (done[j].mutating) {
              fail("a later committed mutation left no durable trace "
                   "(lost commit)");
              break;
            }
          }
        }
      }

      // Repeated-crash scenario: the adversary crashes again inside
      // the recovery pass — at the RecoverySeal consolidation write —
      // up to chain_depth times, re-recovering after each and holding
      // recovery to idempotence.  The machine stays crashed between
      // links (each shadow::crash keeps the accumulated undo log); the
      // single uncrash() below restores the whole pre-crash state,
      // the seal's rewound words included — so the seal lives in this
      // scope, not the chain block's.
      fuzz_detail::RecoverySeal seal;
      if (plan.scenario == ScenarioKind::repeated_crash) {
        ds::Recovered prev = rec;
        const int depth_cap = std::clamp(plan.chain_depth, 1, 3);
        for (int depth = 0; depth < depth_cap; ++depth) {
          const auto du = static_cast<std::uint64_t>(depth);
          const std::uint64_t chain_point =
              static_cast<std::size_t>(depth) < plan.replay_chain.size()
                  ? plan.replay_chain[static_cast<std::size_t>(depth)]
                  : 1 + mix_seed(mix_seed(iter_seed, crash_point), du) %
                            fuzz_detail::RecoverySeal::kSealWindow;
          pmem::crash::arm(chain_point);
          bool chained = false;
          try {
            seal.write(du + 1);
          } catch (const pmem::crash::CrashUnwind&) {
            chained = true;
          }
          pmem::crash::disarm();
          if (!chained) break;  // seal completed; the chain ends here
          ++report.chain_crashes;
          chain_points.push_back(chain_point);
          Rng chain_coin(mix_seed(mix_seed(iter_seed, crash_point),
                                  0x5EA1'0000ull + du));
          shadow::crash(
              plan.fidelity,
              [&chain_coin] { return chain_coin.below(2) == 0; },
              /*keep_undo=*/true);
          if (!seal.durable_consistent()) {
            fail("recovery seal ordering violated: valid durable "
                 "without its seq (crash inside recover())");
          }
          // Idempotence: the K-th recovery pass must return the
          // verdict the first one did — the chained crash could only
          // have touched the seal's own lines.
          const auto t1 = std::chrono::steady_clock::now();
          const ds::Recovered again = s->recover(slot);
          report.recovery_us_total +=
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t1)
                  .count();
          if (again.seq != prev.seq ||
              again.completed != prev.completed ||
              again.kind != prev.kind || again.key != prev.key ||
              again.ok != prev.ok || again.result != prev.result) {
            fail("recovery is not idempotent across a crash inside "
                 "recover()");
          }
          // Nor can the structure's durable contents have moved.
          if (contents_checked && walk_ok) {
            std::vector<std::int64_t> keys_again;
            std::vector<std::uint64_t> values_again;
            const bool rewalk_ok = is_set
                                       ? s->snapshot_keys(keys_again)
                                       : s->snapshot_values(values_again);
            if (!rewalk_ok || (is_set ? keys_again != durable_keys
                                      : values_again != durable_values)) {
              fail("chained recovery mutated the durable contents");
            }
          }
          prev = again;
        }
      }

      // Back to the pre-crash machine state so teardown and
      // reclamation run on consistent memory.
      shadow::uncrash();
    }
    shadow::reset();
  }

  report.total_ops += done.size();
  holder.reset();
  }  // ReclaimPause ends here
  mem::EpochDomain::instance().quiesce();
  mem::PopDomain::instance().quiesce();
  mem::HpDomain::instance().quiesce();
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
// ...), in a unit test.  The first write of a process truncates the
// file; later failing structures in the same run append, so a
// multi-structure regression keeps every reproducer.
inline void write_reproducer(const FuzzReport& report,
                             const std::string& path) {
  static bool truncated_once = false;
  std::FILE* f = std::fopen(path.c_str(), truncated_once ? "a" : "w");
  if (f == nullptr) return;
  truncated_once = true;
  for (const FuzzFailure& x : report.failures) {
    std::fprintf(
        f,
        "{\"structure\":\"%s\",\"seed\":%llu,\"base_seed\":%llu,"
        "\"crash_point\":%llu,\"iteration\":%d",
        x.structure.c_str(), static_cast<unsigned long long>(x.seed),
        static_cast<unsigned long long>(x.base_seed),
        static_cast<unsigned long long>(x.crash_point), x.iteration);
    if (!x.crash_chain.empty()) {
      // Extended (repeated-crash) format; absent for single-crash
      // failures so existing consumers keep parsing.
      std::fprintf(f, ",\"crash_chain\":[");
      for (std::size_t i = 0; i < x.crash_chain.size(); ++i) {
        std::fprintf(f, "%s%llu", i == 0 ? "" : ",",
                     static_cast<unsigned long long>(x.crash_chain[i]));
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, ",\"what\":\"%s\"}\n", x.what.c_str());
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------
// Concurrent crash-point fuzzing.
//
// One iteration spawns `threads` racing workers over one structure,
// each recorded into its own history lane; the armed crash lands on
// whichever thread issues the chosen persistence instruction, the
// power-failed latch (pmem/crash.hpp) stops every other worker at its
// next tracked store or persistence instruction, and operations on
// pure-load paths are cut off by the recording adapters'
// crash::check().  After the workers unwind, the durable image is
// rewound and verified by the durable-linearizability checker: every
// completed op must linearize with its observed response, each
// thread's pending-at-crash op linearizes as `must` (with the
// descriptor's response, inside the durable cut if effectful) iff its
// recovery descriptor reports completed-with-response, else `may`,
// and for structures with a snapshot surface the walked durable
// contents must equal the cut prefix's state (buffered durable
// linearizability — see linearize.hpp for why the cut, not the end).
//
// Unlike the single-threaded driver, a {seed, crash_point} pair does
// not replay the interleaving bit-for-bit — the schedule is the
// dimension being explored — so failures carry the *recorded history*
// (JSONL), which re-checks deterministically: the same events always
// produce the same verdict.  Iterations where the countdown outlives
// the workload still run the checker as a plain concurrent
// linearizability test (no durable constraint).
// ---------------------------------------------------------------------

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
  // single_crash (the PR 5 behaviour), thread_death, or
  // stalled_thread; repeated_crash belongs to the single-threaded
  // driver.
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

// Runs one concurrent fuzz iteration.  `crash_point` of 0 lets the
// iteration's own PRNG draw it (as concurrent_fuzz_structure does).
inline void concurrent_fuzz_one(const AlgoEntry& algo,
                                const ConcurrentCrashPlan& plan,
                                std::uint64_t iter_seed,
                                std::uint64_t crash_point, int iteration,
                                ConcurrentFuzzReport& report) {
  namespace shadow = pmem::shadow;

  Rng rng(iter_seed);
  // Drawn unconditionally so an explicit crash_point replays the same
  // downstream prefill draws (same convention as fuzz_one).
  const std::uint64_t drawn = 1 + rng.below(plan.max_events);
  if (crash_point == 0) crash_point = drawn;

  ++report.points;
  {
  mem::ReclaimPause pause;
  auto holder = algo.make();
  Structure* s = holder.get();
  const bool is_set = algo.kind == Kind::set;
  const bool is_queue = algo.kind == Kind::queue;
  auto* set = is_set ? dynamic_cast<SetIface*>(s) : nullptr;
  auto* queue = is_queue ? dynamic_cast<QueueIface*>(s) : nullptr;
  auto* stack =
      algo.kind == Kind::stack ? dynamic_cast<StackIface*>(s) : nullptr;
  auto* ex = algo.kind == Kind::exchanger
                 ? dynamic_cast<ExchangerIface*>(s)
                 : nullptr;
  const bool contents_checked = s->has_snapshot() &&
                                (is_set || is_queue) &&
                                !algo.has_trait("no-reclaim");

  lin::Spec spec;
  spec.kind = is_set      ? lin::Semantics::set
              : is_queue  ? lin::Semantics::queue
              : stack != nullptr ? lin::Semantics::stack
                                 : lin::Semantics::exchanger;
  spec.max_states = plan.checker_states;

  // Prefill before shadow tracking starts: durable by construction.
  constexpr std::int64_t kKeyRange = 24;
  if (set != nullptr) {
    for (std::int64_t k = 1; k <= kKeyRange; ++k) {
      if (rng.below(2) == 0 && set->insert(k)) {
        spec.initial_keys.push_back(k);
      }
    }
  } else if (queue != nullptr) {
    for (std::uint64_t v = 1; v <= 6; ++v) {
      queue->enqueue(v);
      spec.initial_values.push_back(v);
    }
  } else if (stack != nullptr) {
    for (std::uint64_t v = 1; v <= 6; ++v) {
      stack->push(v);
      spec.initial_values.push_back(v);
    }
  }

  // Clamp to the checker's 128-op mask: a misconfigured plan
  // (REPRO_CONC_FUZZ_THREADS cranked up) must shrink the per-thread
  // budget rather than silently turn every verdict into
  // budget_exhausted — an "undecided" gate that can't fail verifies
  // nothing.  The adversarial scenarios need a victim AND at least one
  // survivor, so they floor the thread count at 2.
  const int nthreads = std::clamp(
      plan.scenario == ScenarioKind::single_crash
          ? plan.threads
          : std::max(plan.threads, 2),
      1, 64);
  const int ops_per_thread =
      std::clamp(plan.ops_per_thread, 1, 128 / nthreads);
  HistoryRecorder rec(nthreads,
                      static_cast<std::size_t>(ops_per_thread));

  // Worker values are unique per iteration ((lane+1)*100 + op, all
  // above the prefill range) so FIFO/LIFO order violations — and the
  // zero/stale payloads a dropped pre_publish leaves durable — cannot
  // alias a legitimate value.
  auto value_for = [](int lane, int op) {
    return static_cast<std::uint64_t>((lane + 1) * 100 + op);
  };

  struct alignas(64) WorkerState {
    int slot = -1;
    std::uint64_t seq_before = 0;  // board seq after the last response
    bool unwound = false;          // left via CrashUnwind
  };
  std::vector<WorkerState> ws(static_cast<std::size_t>(nthreads));

  bool crashed = false;
  bool parked = false;  // stalled_thread: a worker is parked on the gate
  {
    pmem::ModeGuard mode(pmem::Mode::shadow);
    shadow::reset();
    if (plan.scenario == ScenarioKind::thread_death) {
      pmem::crash::set_thread_latch(true);
    }
    if (plan.scenario == ScenarioKind::stalled_thread) {
      // Stall strictly before the crash so the parked worker spans the
      // failure: both countdowns drain on the same instruction stream,
      // and the parked thread stops consuming instructions, so the
      // crash lands on a survivor.
      const std::uint64_t horizon =
          plan.stall_horizon != 0
              ? plan.stall_horizon
              : std::max<std::uint64_t>(1, plan.max_events / 2);
      const std::uint64_t stall_point = 1 + rng.below(horizon);
      if (crash_point <= stall_point) {
        crash_point = stall_point + 1 + (crash_point % 8);
      }
      pmem::crash::arm_stall(stall_point);
    }
    pmem::crash::arm(crash_point);
    std::atomic<int> workers_done{0};
    std::vector<std::thread> workers;
    {
      workers.reserve(static_cast<std::size_t>(nthreads));
      for (int t = 0; t < nthreads; ++t) {
        workers.emplace_back([&, t] {
          WorkerState& w = ws[static_cast<std::size_t>(t)];
          w.slot = ds::thread_slot();
          // Own-slot descriptor reads are race-free: only this thread
          // writes it.
          w.seq_before = s->recover(w.slot).seq;
          Rng wrng(mix_seed(iter_seed, 0x777u + static_cast<std::uint64_t>(t)));
          try {
            if (set != nullptr) {
              RecordedSet r(*set, rec, t);
              for (int o = 0; o < ops_per_thread; ++o) {
                if (pmem::crash::crashed()) break;
                const auto key = static_cast<std::int64_t>(
                    1 + wrng.below(static_cast<std::uint64_t>(kKeyRange)));
                const std::uint64_t dice = wrng.below(10);
                if (dice < 4) {
                  r.insert(key);
                } else if (dice < 8) {
                  r.erase(key);
                } else {
                  r.find(key);
                }
                w.seq_before = s->recover(w.slot).seq;
              }
            } else if (queue != nullptr) {
              RecordedQueue r(*queue, rec, t);
              for (int o = 0; o < ops_per_thread; ++o) {
                if (pmem::crash::crashed()) break;
                if (wrng.below(2) == 0) {
                  r.enqueue(value_for(t, o));
                } else {
                  std::uint64_t out = 0;
                  r.dequeue(out);
                }
                w.seq_before = s->recover(w.slot).seq;
              }
            } else if (stack != nullptr) {
              RecordedStack r(*stack, rec, t);
              for (int o = 0; o < ops_per_thread; ++o) {
                if (pmem::crash::crashed()) break;
                if (wrng.below(2) == 0) {
                  r.push(value_for(t, o));
                } else {
                  std::uint64_t out = 0;
                  r.pop(out);
                }
                w.seq_before = s->recover(w.slot).seq;
              }
            } else {
              RecordedExchanger r(*ex, rec, t);
              for (int o = 0; o < ops_per_thread; ++o) {
                if (pmem::crash::crashed()) break;
                std::uint64_t out = 0;
                r.exchange(value_for(t, o), 24, out);
                w.seq_before = s->recover(w.slot).seq;
              }
            }
          } catch (const pmem::crash::CrashUnwind&) {
            // The lane's last invoke stays dangling: pending at crash
            // (or at this thread's own death in latch mode).
            w.unwound = true;
          }
          workers_done.fetch_add(1, std::memory_order_release);
        });
      }
    }
    // Quiescence: every worker finished — or, in the stalled scenario,
    // everyone except the parked worker.  The parked thread sits inside
    // on_instruction's gate spin, before the instruction's effect,
    // holding no shard locks — so crash rewind and verification can run
    // around it; its join is deferred until after release.
    if (plan.scenario == ScenarioKind::stalled_thread) {
      for (;;) {
        const int finished =
            workers_done.load(std::memory_order_acquire);
        if (finished == nthreads) break;
        if (finished == nthreads - 1 && pmem::crash::stall_hit()) {
          parked = true;
          break;
        }
        std::this_thread::yield();
      }
    }
    if (!parked) {
      for (std::thread& th : workers) th.join();
    }
    crashed = pmem::crash::crashed();
    pmem::crash::disarm();

    std::vector<lin::Op> ops = lin::ops_from_history(rec);

    auto fail = [&](const std::string& what) {
      ++report.violations;
      if (report.failures.size() < 4) {
        ConcurrentFuzzFailure f;
        f.structure = algo.name;
        f.seed = iter_seed;
        f.base_seed = plan.effective_seed();
        f.crash_point = crash_point;
        f.threads = nthreads;
        f.iteration = iteration;
        f.what = what;
        // Built as a string, not a fixed buffer: `what` carries the
        // checker verdict, the durable image, and per-lane descriptor
        // diagnostics — truncating the artifact's framing line would
        // lose exactly the fields it exists to carry.
        std::string meta = "{\"structure\":\"" + algo.name +
                           "\",\"seed\":" + std::to_string(iter_seed) +
                           ",\"base_seed\":" +
                           std::to_string(plan.effective_seed()) +
                           ",\"crash_point\":" +
                           std::to_string(crash_point) +
                           ",\"threads\":" + std::to_string(nthreads) +
                           ",\"iteration\":" + std::to_string(iteration) +
                           ",\"what\":\"" + what + "\"}\n";
        f.history_jsonl = meta + rec.to_jsonl();
        report.failures.push_back(std::move(f));
      }
    };

    bool walk_failed = false;
    std::string crash_diag;
    if (crashed) {
      ++report.crashes;
      rec.mark_crash();
      // Power failure: rewind to the durable image (per-line coin as
      // in the single-threaded driver).
      Rng coin_rng(mix_seed(iter_seed, crash_point));
      shadow::crash(plan.fidelity,
                    [&coin_rng] { return coin_rng.below(2) == 0; });

      const auto t0 = std::chrono::steady_clock::now();
      // Upgrade pending verdicts from the durable descriptors: a
      // descriptor that durably reports the in-flight op (seq_before+1)
      // completed-with-response makes it a `must` with that response —
      // the paper's detectability contract.  Anything else stays `may`.
      for (int t = 0; t < nthreads; ++t) {
        lin::Op* pend = nullptr;
        for (lin::Op& op : ops) {
          if (op.lane == t && op.response_ts == lin::kNever) pend = &op;
        }
        if (pend == nullptr) continue;
        const WorkerState& w = ws[static_cast<std::size_t>(t)];
        if (w.slot < 0) continue;
        const ds::Recovered d = s->recover(w.slot);
        if (d.seq == w.seq_before + 1 && d.completed &&
            d.kind == pend->kind && d.key == pend->input) {
          pend->pending = lin::Pending::must;
          pend->ok = d.ok;
          pend->result = d.result;
        }
        char diag[128];
        std::snprintf(diag, sizeof(diag),
                      "; lane %d pending %s(%lld) verdict=%s ok=%d "
                      "result=%llu",
                      t, op_kind_name(pend->kind),
                      static_cast<long long>(pend->input),
                      pend->pending == lin::Pending::must ? "must"
                                                          : "may",
                      pend->ok ? 1 : 0,
                      static_cast<unsigned long long>(pend->result));
        crash_diag += diag;
      }
      report.recovery_us_total +=
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count();

      // Durable contents, walked while the structure physically holds
      // the durable image.
      if (contents_checked) {
        const bool walk_ok = is_set
                                 ? s->snapshot_keys(spec.durable_keys)
                                 : s->snapshot_values(spec.durable_values);
        if (walk_ok) {
          // Stalled-thread + set: the parked worker can hold an
          // unfenced incoming link across the whole window, so later
          // completed inserts build durably on top of it and the
          // durable image need not be a prefix of any linearization —
          // the same cross-thread hostage window that already exempts
          // sets from the must-inside-the-cut rule (linearize.hpp),
          // held open for the stall's full duration.  The walk
          // integrity check and the linearization itself still run;
          // only the prefix-cut constraint is waived.  Queues/stacks
          // keep it: persist-link-before-publish closes the window.
          spec.check_durable =
              !(plan.scenario == ScenarioKind::stalled_thread && is_set);
        } else {
          walk_failed = true;
          fail("durable image walk failed: link into never-persisted "
               "memory or a cycle");
        }
      }
    }

    // Per-thread death: the machine never lost power — the latch-mode
    // countdown killed exactly one worker mid-op while the survivors
    // raced to completion on the live structure.  A fresh thread
    // adopts the dead lane's slot, runs recover() against it, and the
    // adopted verdict feeds the checker: descriptor completed-with-
    // response at seq_before+1 makes the dead lane's pending op a
    // `must` with that response.  No durable cut — the volatile state
    // is the ground truth here.
    if (plan.scenario == ScenarioKind::thread_death) {
      int dead_lane = -1;
      for (int t = 0; t < nthreads; ++t) {
        if (ws[static_cast<std::size_t>(t)].unwound) dead_lane = t;
      }
      if (dead_lane >= 0) {
        ++report.crashes;  // the adversary fired
        const WorkerState& w = ws[static_cast<std::size_t>(dead_lane)];
        // The dead worker's thread-exit cleanup already cleared its
        // epoch pin; reset_slot_pin makes the harness's "this lane is
        // dead" claim explicit before the slot is adopted.
        mem::EpochDomain::instance().reset_slot_pin(w.slot);
        mem::PopDomain::instance().reset_slot_pin(w.slot);
        ds::Recovered adopted;
        {
          std::thread adopter([&] { adopted = s->recover(w.slot); });
          adopter.join();
        }
        lin::Op* pend = nullptr;
        for (lin::Op& op : ops) {
          if (op.lane == dead_lane && op.response_ts == lin::kNever) {
            pend = &op;
          }
        }
        if (pend != nullptr) {
          if (adopted.seq == w.seq_before + 1 && adopted.completed &&
              adopted.kind == pend->kind && adopted.key == pend->input) {
            pend->pending = lin::Pending::must;
            pend->ok = adopted.ok;
            pend->result = adopted.result;
          }
          char diag[128];
          std::snprintf(diag, sizeof(diag),
                        "; dead lane %d pending %s(%lld) verdict=%s "
                        "ok=%d result=%llu",
                        dead_lane, op_kind_name(pend->kind),
                        static_cast<long long>(pend->input),
                        pend->pending == lin::Pending::must ? "must"
                                                            : "may",
                        pend->ok ? 1 : 0,
                        static_cast<unsigned long long>(pend->result));
          crash_diag += diag;
        }
      }
    }

    if (!walk_failed) {
      const lin::Result res = lin::check(ops, spec);
      report.checker_states += res.states;
      if (res.verdict == lin::Verdict::violation) {
        // The walked durable image is part of the verdict's input;
        // carry it in the diagnostic so a dumped failure is
        // self-contained.
        std::string what = res.what;
        if (spec.check_durable) {
          what += "; durable image = [";
          bool first = true;
          if (is_set) {
            for (std::int64_t k : spec.durable_keys) {
              what += (first ? "" : " ") + std::to_string(k);
              first = false;
            }
          } else {
            for (std::uint64_t v : spec.durable_values) {
              what += (first ? "" : " ") + std::to_string(v);
              first = false;
            }
          }
          what += "]";
        }
        fail(what + crash_diag);
      } else if (res.verdict == lin::Verdict::budget_exhausted) {
        ++report.undecided;
      }
    }
    report.total_ops += ops.size();

    if (crashed) shadow::uncrash();

    if (parked) {
      // Power is back (uncrash restored the volatile image) and the
      // plan is disarmed: release the parked worker.  It finishes the
      // op it was parked inside — its late stores land on the restored
      // state — and runs the rest of its budget as ordinary ops.
      pmem::crash::release_stall();
      for (std::thread& th : workers) th.join();
      pmem::crash::disarm_stall();

      std::vector<lin::Op> ops_post = lin::ops_from_history(rec);
      // The resumed response must agree with any `must` verdict the
      // durable descriptor issued while the thread was parked: a
      // committed-at-crash op cannot come back claiming a different
      // outcome.
      for (const lin::Op& before : ops) {
        if (before.response_ts != lin::kNever) continue;
        for (const lin::Op& after : ops_post) {
          if (after.lane == before.lane && after.id == before.id &&
              after.response_ts != lin::kNever &&
              before.pending == lin::Pending::must &&
              (after.ok != before.ok ||
               after.result != before.result)) {
            fail("stalled thread resumed with a response disagreeing "
                 "with its durable must-verdict");
          }
        }
      }
      // And the full post-resume history must still linearize (no
      // durable cut: the machine is back on) — the staller's late
      // stores must not have corrupted the recovered state.
      lin::Spec post_spec;
      post_spec.kind = spec.kind;
      post_spec.initial_keys = spec.initial_keys;
      post_spec.initial_values = spec.initial_values;
      post_spec.max_states = plan.checker_states;
      const lin::Result post_res = lin::check(ops_post, post_spec);
      report.checker_states += post_res.states;
      if (post_res.verdict == lin::Verdict::violation) {
        fail("post-resume history fails to linearize: " + post_res.what +
             crash_diag);
      } else if (post_res.verdict == lin::Verdict::budget_exhausted) {
        ++report.undecided;
      }
    }
    shadow::reset();
  }
  holder.reset();
  }  // ReclaimPause ends here
  mem::EpochDomain::instance().quiesce();
  mem::PopDomain::instance().quiesce();
  mem::HpDomain::instance().quiesce();
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
// the concurrent-fuzz CI artifact.  Same truncate-once-per-process
// convention as write_reproducer.
inline void write_history_dump(const ConcurrentFuzzReport& report,
                               const std::string& path) {
  static bool truncated_once = false;
  std::FILE* f = std::fopen(path.c_str(), truncated_once ? "a" : "w");
  if (f == nullptr) return;
  truncated_once = true;
  for (const ConcurrentFuzzFailure& x : report.failures) {
    std::fwrite(x.history_jsonl.data(), 1, x.history_jsonl.size(), f);
  }
  std::fclose(f);
}

}  // namespace repro::harness
