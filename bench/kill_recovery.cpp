// Fork-kill-recover driver: the process-kill counterpart of
// crash_points / concurrent_crash.  For each structure of
// kill::structures() (every detectable registry entry with a checked
// durable walk), each trial forks a child that maps the persistent heap
// (pmem/mmap_heap.hpp), runs a journaled workload on the structure
// rooted there in Mode::mmap, dies by SIGKILL, and is audited by a
// fresh process that reopens the heap file and replays the
// detectability contract (harness/killfuzz.hpp).  Exits non-zero on
// any violation.
//
// Environment:
//   REPRO_KILL_TRIALS   trials per structure       (default 200)
//   REPRO_KILL_THREADS  worker lanes in the child  (default 1)
//   REPRO_KILL_OPS      per-lane operation budget  (default 512)
//   REPRO_KILL_TIMED=1  parent-timed SIGKILL instead of deterministic
//                       armed kill points
//   REPRO_KILL_DOUBLE=1 double-kill scenario: a second SIGKILL is
//                       armed inside the first verifier's recovery
//                       pass; a third fresh process gives the verdict
//   REPRO_HEAP_PATH     heap file (default /tmp/repro_heap.<pid>.pmem;
//                       journal and diagnostics ride alongside it)
//   REPRO_KEEP_HEAP=1   keep the last trial's heap file for inspection
//   REPRO_KILL_REPRO    reproducer JSONL path for failing trials
//   REPRO_SEED          base seed (decimal or 0x-hex)
//
//   kill_recovery --persist-smoke
//     The long-lived-dataset smoke instead of the kill campaign: one
//     child writes a dataset to the heap file and exits cleanly, then
//     two fresh processes reopen the file and must find the contents
//     intact and identical.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "repro/harness/killfuzz.hpp"

namespace kf = repro::harness::kill;
using repro::harness::detail::env_int;
using repro::harness::detail::env_int_nonneg;

namespace {

kf::KillPlan base_plan() {
  kf::KillPlan plan;
  plan.heap_path = kf::default_heap_path();
  plan.seed = repro::harness::global_seed();
  plan.threads = env_int("REPRO_KILL_THREADS", 1);
  plan.ops_budget = env_int("REPRO_KILL_OPS", 512);
  return plan;
}

// Writer process completes its budget (no kill), then two fresh
// processes must reopen the heap file and agree it is intact.
int persist_smoke() {
  int failures = 0;
  for (const repro::harness::AlgoEntry* e : kf::structures()) {
    kf::KillPlan plan = base_plan();
    plan.structure = e->name;
    plan.ops_budget = 200;
    const kf::TrialResult r = kf::kill_one(plan);
    const char* name = e->name.c_str();
    if (!r.infra_ok) {
      std::fprintf(stderr, "persist-smoke %-15s SKIP (mmap heap "
                   "unavailable in this environment)\n", name);
      kf::cleanup_heap_files(plan);
      continue;
    }
    if (r.killed || r.vacuous || r.violations != 0) {
      std::fprintf(stderr,
                   "persist-smoke %-15s FAIL: killed=%d vacuous=%d "
                   "violations=%d %s\n",
                   name, r.killed, r.vacuous, r.violations,
                   r.what.c_str());
      ++failures;
    } else {
      std::printf("persist-smoke %-15s OK: dataset survived reopen "
                  "by two fresh processes\n", name);
    }
    kf::cleanup_heap_files(plan);
  }
  return failures == 0 ? 0 : 1;
}

int kill_campaign() {
  const int trials = env_int("REPRO_KILL_TRIALS", 200);
  const bool timed = env_int_nonneg("REPRO_KILL_TIMED", 0) != 0;
  const bool dbl = env_int_nonneg("REPRO_KILL_DOUBLE", 0) != 0;
  const char* repro_path = std::getenv("REPRO_KILL_REPRO");
  const bool keep_heap = env_int_nonneg("REPRO_KEEP_HEAP", 0) != 0;

  int total_violations = 0;
  int total_infra = 0;
  int total_trials = 0;
  kf::KillPlan plan = base_plan();
  plan.double_kill = dbl;
  for (const repro::harness::AlgoEntry* e : kf::structures()) {
    plan.structure = e->name;
    const kf::KillReport rep = kf::kill_many(plan, trials, timed);
    std::printf(
        "kill-recovery %-15s trials=%d kills=%d completed=%d "
        "vacuous=%d verifier_kills=%d infra_skips=%d violations=%d "
        "mode=%s threads=%d seed=0x%llx\n",
        e->name.c_str(), rep.trials, rep.kills, rep.completed,
        rep.vacuous, rep.verifier_kills, rep.infra_skips,
        rep.violations, dbl ? "double-kill" : (timed ? "timed" : "armed"),
        plan.threads, static_cast<unsigned long long>(plan.seed));
    for (const kf::KillFailure& x : rep.failures) {
      std::fprintf(stderr,
                   "  FAIL structure=%s seed=0x%llx kill_point=%llu "
                   "delay_us=%d threads=%d: %s\n",
                   x.structure.c_str(),
                   static_cast<unsigned long long>(x.seed),
                   static_cast<unsigned long long>(x.kill_point),
                   x.delay_us, x.threads, x.what.c_str());
    }
    if (repro_path != nullptr && !rep.failures.empty()) {
      kf::write_kill_reproducer(rep, repro_path);
    }
    total_violations += rep.violations;
    total_infra += rep.infra_skips;
    total_trials += rep.trials;
  }
  if (!keep_heap) kf::cleanup_heap_files(plan);

  if (total_infra == total_trials && total_trials > 0) {
    // Every trial failed before the workload ran (e.g. no usable
    // fixed mapping address under this sanitizer/kernel): report the
    // environment problem distinctly from a detectability violation.
    std::fprintf(stderr,
                 "kill-recovery: all %d trials were infrastructure "
                 "skips; environment cannot run the harness\n",
                 total_trials);
    return 2;
  }
  return total_violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--persist-smoke") == 0) {
      return persist_smoke();
    }
  }
  return kill_campaign();
}
