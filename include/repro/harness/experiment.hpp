// The experiment engine: a declarative ExperimentSpec names a figure's
// grid — structures (registry names, globs, or trait selectors), key
// ranges, operation mixes, thread series, pmem modes, key distribution,
// and an optional crash-fuzz plan — and the driver expands it, runs each
// point through run_threads, and emits self-contained rows to the
// configured ResultSinks.  A figure binary is therefore a spec literal
// plus one experiment_main() call (bench/bench_common.hpp); nothing
// re-implements the grid by hand.
//
// Crash scenarios are the crash-point fuzzers (crashfuzz.hpp): a spec
// with crash_plan.points > 0 (one lane) or conc_plan.points > 0
// (racing lanes) turns every selected trait:detectable structure into
// one fuzz point, and the row reports its violations and mean
// recovery latency.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/registry.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/sinks.hpp"
#include "repro/harness/workload.hpp"
#include "repro/pmem/persist.hpp"

namespace repro::harness {

inline const char* mode_name(pmem::Mode m) {
  switch (m) {
    case pmem::Mode::shared_cache: return "shared_cache";
    case pmem::Mode::private_cache: return "private_cache";
    case pmem::Mode::count_only: return "count_only";
    case pmem::Mode::shadow: return "shadow";
    case pmem::Mode::mmap: return "mmap";
  }
  return "?";
}

// The paper's thread series: 1..max_threads() in powers of two.
inline std::vector<int> thread_series() {
  std::vector<int> s;
  for (int t = 1; t <= max_threads(); t *= 2) s.push_back(t);
  return s;
}

// Declarative description of one figure's grid.
struct ExperimentSpec {
  std::string figure;  // row prefix / benchmark name prefix ("fig1a")
  std::string what;    // header line shown by the table sink
  // Registry selectors: exact names, globs ("Isb*"), or "trait:..."
  std::vector<std::string> structures;
  // Set-kind axes (ignored by queues/stacks/exchangers).
  std::vector<std::int64_t> key_ranges = {};  // empty → {500}
  std::vector<Mix> mixes = {};                // empty → {kReadIntensive}
  std::vector<int> threads = {};              // empty → thread_series()
  std::vector<pmem::Mode> modes = {pmem::Mode::shared_cache};
  KeyDist dist = KeyDist::uniform;
  double zipf_theta = 0.99;
  int prefill_pct = -1;          // < 0 → REPRO_PREFILL_PCT / 40
  std::size_t queue_prefill = 0;  // 0 → REPRO_QUEUE_PREFILL / 100000
  // Crash-point fuzzing (crashfuzz.hpp): plan.points > 0 turns every
  // selected trait:detectable structure into one single-threaded
  // shadow-NVM fuzz point.
  CrashPlan crash_plan;
  // Concurrent crash-point fuzzing with the durable-linearizability
  // checker: conc_plan.points > 0 turns every selected
  // trait:detectable structure into one multi-threaded fuzz point.
  // Mutually exclusive with the other crash dimensions.
  ConcurrentCrashPlan conc_plan;

  bool is_crash_fuzz() const { return crash_plan.points > 0; }
  bool is_conc_fuzz() const { return conc_plan.points > 0; }
};

// One expanded grid point.
struct Point {
  const AlgoEntry* algo = nullptr;
  pmem::Mode mode = pmem::Mode::shared_cache;
  std::int64_t key_range = 0;  // set kind only
  Mix mix{"", 0, 0, 100};      // valid iff has_mix
  bool has_mix = false;
  int threads = 1;
};

namespace detail {
inline std::atomic<int>& spec_error_cell() {
  static std::atomic<int> c{0};
  return c;
}
}  // namespace detail

// Spec configuration errors observed so far (selectors matching no
// registered structure); experiment_main turns a non-zero count into a
// failing exit code so a typo'd series name cannot "pass" a smoke run
// while silently measuring nothing.
inline int spec_errors() {
  return detail::spec_error_cell().load(std::memory_order_relaxed);
}

// The structures a spec actually runs: selector matches, minus the
// entries a crash-fuzz plan cannot verify (they do not speak the
// announcement-board recovery protocol).  Unmatched
// selectors are diagnosed here and counted as spec errors; pass
// diagnose=false when re-querying a spec that expand() already checked.
inline std::vector<const AlgoEntry*> selected_structures(
    const ExperimentSpec& spec, bool diagnose = true) {
  const Registry& reg = Registry::instance();
  if (diagnose) {
    for (const std::string& sel : spec.structures) {
      if (reg.select(sel).empty()) {
        std::fprintf(stderr,
                     "repro: spec %s: selector '%s' matches no "
                     "registered structure\n",
                     spec.figure.c_str(), sel.c_str());
        detail::spec_error_cell().fetch_add(1,
                                            std::memory_order_relaxed);
      }
    }
  }
  std::vector<const AlgoEntry*> out;
  for (const AlgoEntry* algo : reg.select_all(spec.structures)) {
    // The fuzzers cover every kind, but only structures speaking the
    // announcement-board protocol can be verified.
    if ((spec.is_crash_fuzz() || spec.is_conc_fuzz()) &&
        !algo->has_trait("detectable")) {
      continue;
    }
    out.push_back(algo);
  }
  return out;
}

// Expands the spec's grid.  Exchanger points need pairs, so thread
// counts below 2 are dropped for that kind.
inline std::vector<Point> expand(const ExperimentSpec& spec) {
  std::vector<Point> points;
  const std::vector<int> threads =
      spec.threads.empty() ? thread_series() : spec.threads;
  const std::vector<std::int64_t> ranges =
      spec.key_ranges.empty() ? std::vector<std::int64_t>{500}
                              : spec.key_ranges;
  const std::vector<Mix> mixes =
      spec.mixes.empty() ? std::vector<Mix>{kReadIntensive} : spec.mixes;

  const std::vector<const AlgoEntry*> algos = selected_structures(spec);

  // Crash-point fuzzing drives its own pmem mode (shadow) and
  // workload: exactly one point per structure, at the fuzzer's thread
  // count (1 for the single-threaded driver).
  if (spec.is_crash_fuzz() || spec.is_conc_fuzz()) {
    for (const AlgoEntry* algo : algos) {
      Point p;
      p.algo = algo;
      p.mode = pmem::Mode::shadow;
      p.threads = spec.is_conc_fuzz() ? spec.conc_plan.threads : 1;
      points.push_back(p);
    }
    return points;
  }

  for (pmem::Mode mode : spec.modes) {
    for (const AlgoEntry* algo : algos) {
      if (algo->kind == Kind::set) {
        for (std::int64_t range : ranges) {
          for (const Mix& mix : mixes) {
            for (int t : threads) {
              points.push_back({algo, mode, range, mix, true, t});
            }
          }
        }
      } else {
        for (int t : threads) {
          if (algo->kind == Kind::exchanger && t < 2) continue;
          Point p;
          p.algo = algo;
          p.mode = mode;
          p.threads = t;
          points.push_back(p);
        }
      }
    }
  }
  return points;
}

// Benchmark name for a point: figure/algo[/range/mix][/mode]/threads:N
// — the shape --benchmark_filter has always matched against.
inline std::string point_name(const ExperimentSpec& spec,
                              const Point& p) {
  std::string n = spec.figure + "/" + p.algo->name;
  if (p.has_mix) {
    n += "/" + std::to_string(p.key_range) + "/" + p.mix.name;
  }
  if (spec.modes.size() > 1) {
    n += std::string("/") + mode_name(p.mode);
  }
  return n + "/threads:" + std::to_string(p.threads);
}

// Human-readable scenario column for the table sink.
inline std::string point_scenario(const ExperimentSpec& spec,
                                  const Point& p) {
  std::string s;
  if (p.has_mix) {
    s = "range=" + std::to_string(p.key_range) + " " + p.mix.name;
    if (spec.dist == KeyDist::zipfian) s += " zipfian";
  } else {
    s = spec.figure;
  }
  if (spec.is_crash_fuzz()) {
    s += " fuzz=" + std::to_string(spec.crash_plan.points);
    if (spec.crash_plan.scenario != ScenarioKind::single_crash) {
      s += std::string(" ") + scenario_name(spec.crash_plan.scenario);
    }
  }
  if (spec.is_conc_fuzz()) {
    s += " conc-fuzz=" + std::to_string(spec.conc_plan.points) + "x" +
         std::to_string(spec.conc_plan.threads) + "t";
    if (spec.conc_plan.scenario != ScenarioKind::single_crash) {
      s += std::string(" ") + scenario_name(spec.conc_plan.scenario);
    }
  }
  return s;
}

// Machine-readable scenario-family column for the CSV/JSONL sinks:
// empty for plain measurement points, the ScenarioKind name for fuzz
// points (including the default single-crash family, so a sweep over
// families is self-describing).
inline std::string point_crash_scenario(const ExperimentSpec& spec) {
  if (spec.is_crash_fuzz()) {
    return scenario_name(spec.crash_plan.scenario);
  }
  if (spec.is_conc_fuzz()) {
    return scenario_name(spec.conc_plan.scenario);
  }
  return "";
}

namespace detail {

// google-benchmark's DoNotOptimize, without the dependency: the
// experiment driver is part of the library and is exercised by the unit
// tests, which do not link benchmark.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

inline std::atomic<std::uint64_t>& point_counter() {
  static std::atomic<std::uint64_t> c{0};
  return c;
}

inline std::atomic<int>& crash_failure_cell() {
  static std::atomic<int> c{0};
  return c;
}

// Parsed as long long: prefill sizes above INT_MAX are legitimate
// (the paper uses one million; bigger hosts may use more).
inline std::size_t resolve_queue_prefill(const ExperimentSpec& spec) {
  if (spec.queue_prefill > 0) return spec.queue_prefill;
  if (const char* v = std::getenv("REPRO_QUEUE_PREFILL")) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 100'000;
}

}  // namespace detail

// Detectability violations observed by crash-scenario points so far;
// experiment_main turns a non-zero count into a failing exit code.
inline int crash_failures() {
  return detail::crash_failure_cell().load(std::memory_order_relaxed);
}

// Grid points executed so far in this process (the same counter that
// stamps RunResult::point_index).
inline std::uint64_t points_run() {
  return detail::point_counter().load(std::memory_order_relaxed);
}

// Runs one grid point (normal measurement, or crash-point fuzzing) and
// returns its self-contained result row.
inline ResultRow run_point(const ExperimentSpec& spec, const Point& p) {
  ResultRow row;
  row.figure = spec.figure;
  row.algo = p.algo->name;
  row.mode = mode_name(p.mode);
  row.scenario = point_scenario(spec, p);
  row.crash_scenario = point_crash_scenario(spec);
  row.reclaimer = p.algo->has_trait("reclaimer-hp")    ? "hp"
                  : p.algo->has_trait("reclaimer-pop") ? "pop"
                  : p.algo->has_trait("no-reclaim")    ? "leak"
                  : p.algo->has_trait("reclaimer-ebr") ? "ebr"
                                                       : "";
  row.seed = spec.is_crash_fuzz()  ? spec.crash_plan.effective_seed()
             : spec.is_conc_fuzz() ? spec.conc_plan.effective_seed()
                                   : global_seed();
  if (p.has_mix) {
    row.dist = key_dist_name(spec.dist);
    row.key_range = p.key_range;
    row.mix = p.mix.name;
  }

  if (spec.is_conc_fuzz()) {
    // The concurrent fuzzer manages the pmem mode per iteration
    // itself; violations carry their recorded history (the CI
    // artifact) rather than a bit-for-bit {seed, crash_point} replay.
    const ConcurrentFuzzReport rep =
        concurrent_fuzz_structure(*p.algo, spec.conc_plan);
    row.run.total_ops = rep.total_ops;
    row.run.threads = spec.conc_plan.threads;
    row.crash_points = rep.points;
    row.crash_violations = rep.violations;
    if (rep.crashes > 0) {
      row.recovery_us = rep.recovery_us_total / rep.crashes;
    }
    if (rep.undecided > 0) {
      std::fprintf(stderr,
                   "repro: %s: %d concurrent fuzz point(s) exhausted "
                   "the checker state budget (undecided, not failed)\n",
                   p.algo->name.c_str(), rep.undecided);
    }
    if (rep.violations > 0) {
      detail::crash_failure_cell().fetch_add(rep.violations,
                                             std::memory_order_relaxed);
      for (const ConcurrentFuzzFailure& f : rep.failures) {
        std::fprintf(
            stderr,
            "repro: %s: durable-linearizability violation at "
            "{seed=%llu, crash_point=%llu, threads=%d} "
            "(REPRO_SEED=%llu, iteration %d): %s\n",
            f.structure.c_str(),
            static_cast<unsigned long long>(f.seed),
            static_cast<unsigned long long>(f.crash_point), f.threads,
            static_cast<unsigned long long>(f.base_seed), f.iteration,
            f.what.c_str());
      }
      const char* dump_path = std::getenv("REPRO_HISTORY_DUMP");
      write_history_dump(rep, dump_path != nullptr && dump_path[0]
                                  ? dump_path
                                  : "crash_history.jsonl");
    }
    row.run.point_index =
        detail::point_counter().fetch_add(1, std::memory_order_relaxed);
    return row;
  }

  if (spec.is_crash_fuzz()) {
    // The fuzzer manages the pmem mode per iteration itself.
    const FuzzReport rep = fuzz_structure(*p.algo, spec.crash_plan);
    row.run.total_ops = rep.total_ops;
    row.run.threads = 1;
    row.crash_points = rep.points;
    row.crash_violations = rep.violations;
    if (rep.crashes > 0) {
      row.recovery_us = rep.recovery_us_total / rep.crashes;
    }
    if (rep.violations > 0) {
      detail::crash_failure_cell().fetch_add(rep.violations,
                                             std::memory_order_relaxed);
      for (const FuzzFailure& f : rep.failures) {
        std::fprintf(stderr,
                     "repro: %s: detectability violation at "
                     "{seed=%llu, crash_point=%llu} (REPRO_SEED=%llu, "
                     "iteration %d): %s\n",
                     f.structure.c_str(),
                     static_cast<unsigned long long>(f.seed),
                     static_cast<unsigned long long>(f.crash_point),
                     static_cast<unsigned long long>(f.base_seed),
                     f.iteration, f.what.c_str());
      }
      const char* repro_path = std::getenv("REPRO_CRASH_REPRO");
      write_reproducer(rep, repro_path != nullptr && repro_path[0]
                                ? repro_path
                                : "crash_repro.jsonl");
    }
    row.run.point_index =
        detail::point_counter().fetch_add(1, std::memory_order_relaxed);
    return row;
  }

  pmem::ModeGuard guard(p.mode);
  auto holder = p.algo->make();
  switch (p.algo->kind) {
    case Kind::set: {
      auto* set = static_cast<SetIface*>(holder.get());
      prefill(*set, p.key_range, spec.prefill_pct);
      const Workload w(p.key_range, p.mix, spec.dist, spec.zipf_theta);
      row.run = run_threads(p.threads, [&](int, Rng& rng) {
        const auto key = w.pick_key(rng);
        switch (w.pick_op(rng)) {
          case OpType::insert: detail::keep(set->insert(key)); break;
          case OpType::erase: detail::keep(set->erase(key)); break;
          case OpType::find: detail::keep(set->find(key)); break;
        }
      });
      break;
    }
    case Kind::queue: {
      auto* q = static_cast<QueueIface*>(holder.get());
      const std::size_t pre = detail::resolve_queue_prefill(spec);
      for (std::size_t i = 0; i < pre; ++i) {
        q->enqueue(static_cast<std::uint64_t>(i));
      }
      row.run = run_threads(p.threads, [&](int, Rng& rng) {
        q->enqueue(rng.next());
        std::uint64_t out = 0;
        detail::keep(q->dequeue(out));
      });
      break;
    }
    case Kind::stack: {
      auto* st = static_cast<StackIface*>(holder.get());
      for (int i = 0; i < 1024; ++i) {
        st->push(static_cast<std::uint64_t>(i));
      }
      row.run = run_threads(p.threads, [&](int, Rng& rng) {
        if (rng.below(2) == 0) {
          st->push(rng.next());
        } else {
          std::uint64_t out = 0;
          detail::keep(st->pop(out));
        }
      });
      break;
    }
    case Kind::exchanger: {
      auto* ex = static_cast<ExchangerIface*>(holder.get());
      row.run = run_threads(p.threads, [&](int, Rng& rng) {
        std::uint64_t out = 0;
        detail::keep(ex->exchange(rng.next(), 256, out));
      });
      break;
    }
  }
  row.run.point_index =
      detail::point_counter().fetch_add(1, std::memory_order_relaxed);
  return row;
}

// Standalone driver: expands the grid and streams every row to the
// sinks.  The figure binaries go through google-benchmark registration
// instead (bench/bench_common.hpp) so --benchmark_filter keeps working;
// tests and embedders use this directly.
inline void run_spec(const ExperimentSpec& spec, SinkSet& sinks) {
  sinks.begin(spec.figure, spec.what);
  for (const Point& p : expand(spec)) {
    sinks.row(run_point(spec, p));
  }
}

}  // namespace repro::harness
