// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload map-read|queue-pairs|crash-fuzz --seed N
//             --seconds S --trace 0|1 [--small] [--git-sha SHA]
//             [--failures-out DIR]
//   perfbench --self-test
//
// Prints a `stamp {...}` line (host and build), a `detail {...}` line
// (breakdowns and sample counts) and, last, one JSON result object.
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones.  Exits 1 if any output check fails; fuzz
// reproducers then land in DIR/fuzz-{single,concurrent}.jsonl.  README.md
// defines every workload and metric.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "loop.hpp"
#include "measure.hpp"
#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/registry.hpp"
#include "targets.hpp"

namespace perfbench {
namespace {

namespace ds = repro::ds;
namespace mem = repro::mem;
namespace pmem = repro::pmem;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;  // short-budget sizes for the self-test
  std::string git_sha = "unknown";
};

// Sizes and phase lengths.  `--small` shrinks every one of them so
// the self-test can run all workloads in a few seconds.
struct Scale {
  int threads = 2;
  double warmup_s = 2.0;
  int setups = 3;
  int probe_setups = 15;  // crash-fuzz set-up is sub-millisecond
  int slices = 10;  // one per measured second
  int sample_every = 17;  // odd, so alternating op kinds both get sampled
  std::int64_t map_range = 1'000'000;
  std::uint64_t queue_prefill = 1'000'000;
  double ladder_step_s = 0.1;
  int ladder_rounds = 6;
  int verify_passes = 11;
  double layer_target_s = 1.0;  // crash-fuzz: per small target, traced
  // crash-fuzz is a fixed budget: these many rounds take ~1 s and ~2 s
  // on the reference VM, so the work (and the memory the fuzz drivers
  // leave behind) does not depend on the host's speed.
  int fuzz_rounds_per_slice = 200;
  int fuzz_warmup_rounds = 400;

  static Scale of(const Options& o) {
    Scale s;
    s.slices = std::clamp(static_cast<int>(o.seconds), 4, 60);
    if (o.small) {
      s.warmup_s = 0.1;
      s.setups = 1;
      s.slices = 4;
      s.map_range = 20'000;
      s.queue_prefill = 20'000;
      s.ladder_step_s = 0.03;
      s.ladder_rounds = 1;
      s.verify_passes = 1;
      s.layer_target_s = 0.1;
      s.fuzz_rounds_per_slice = 10;
      s.fuzz_warmup_rounds = 10;
    }
    return s;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Metric> detail;   // breakdowns for the `detail` line
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), v,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

// ---------------------------------------------------------------------
// Layer ladder (traced runs): the same op stream under each layer
// setting, ns per call per worker, median over alternating rounds.
// ---------------------------------------------------------------------

enum Step { kShared, kPrivate, kCountOnly, kShadow, kDirect, kVolatile,
            kLeak, kSteps };

// ns per call per worker for each step:
//   kShared    registry adapter, shared_cache (persistence executed)
//   kPrivate   private_cache (persistence counted, not executed)
//   kCountOnly count_only
//   kShadow    shadow-NVM write-log tracking
//   kDirect    the concrete adapter's direct call, shared_cache
//   kVolatile  the volatile baseline structure
//   kLeak      the structure over LeakReclaimer instead of EBR
using Ladder = std::array<double, kSteps>;

// Every step runs on a fresh structure prefilled like the measured one.
// Steps alternate in short turns, in reverse order every other round,
// so drift and the structures' ageing fall on all steps alike.
template <typename Target>
Ladder run_ladder(Target& t, const Scale& sc) {
  auto subject = t.make_subject();
  auto vol = t.make_volatile();
  auto leak = t.make_leak();
  std::vector<double> ns[kSteps];
  LoopConfig cfg;
  cfg.threads = sc.threads;
  cfg.kinds = Target::kKinds;
  cfg.warmup_s = sc.ladder_step_s / 5;
  cfg.seconds = sc.ladder_step_s;
  cfg.slices = 1;
  cfg.sample_every = 1 << 30;
  for (int round = 0; round < sc.ladder_rounds; ++round) {
    for (int i = 0; i < kSteps; ++i) {
      const int step = round % 2 == 0 ? i : kSteps - 1 - i;
      pmem::Mode mode = pmem::Mode::shared_cache;
      if (step == kPrivate) mode = pmem::Mode::private_cache;
      if (step == kCountOnly) mode = pmem::Mode::count_only;
      if (step == kShadow) mode = pmem::Mode::shadow;
      h::Structure& s = step == kVolatile ? *vol
                        : step == kLeak   ? *leak
                                          : *subject;
      LoopResult r;
      {
        pmem::ModeGuard guard(mode);
        if (step == kDirect) {
          r = run_loop(cfg,
                       [&](int w) { return t.scratch_direct_body(s, w); });
        } else {
          r = run_loop(cfg, [&](int w) { return t.scratch_body(s, w); });
        }
      }
      if (step == kShadow) pmem::shadow::reset();
      ns[step].push_back(sc.threads * 1e9 / r.ops_per_s(0));
    }
  }
  Ladder out{};
  for (int step = 0; step < kSteps; ++step) out[step] = median(ns[step]);
  return out;
}

// ---------------------------------------------------------------------
// Crash-point fuzzing through the harness fuzzers, one timed point per
// call.
// ---------------------------------------------------------------------

// Directory the fuzz reproducers are written to (--failures-out).
std::string failures_dir;

struct FuzzTally {
  std::uint64_t points = 0;
  std::uint64_t violations = 0;
  std::uint64_t undecided = 0;
  std::uint64_t ops = 0;
  double single_s = 0;
  std::uint64_t single_points = 0;
  double conc_s = 0;
  std::uint64_t conc_points = 0;
};

template <typename Report>
void print_failures(const Report& rep, const char* kind) {
  for (const auto& f : rep.failures) {
    std::fprintf(stderr,
                 "perfbench: %s %s violation: seed=%llu crash_point=%llu: "
                 "%s\n",
                 f.structure.c_str(), kind,
                 static_cast<unsigned long long>(f.seed),
                 static_cast<unsigned long long>(f.crash_point),
                 f.what.c_str());
  }
}

// One single-crash point (fuzz_structure) on `algo`; returns its ns.
std::uint32_t fuzz_single(const h::AlgoEntry& algo, std::uint64_t seed,
                          FuzzTally& t) {
  h::CrashPlan plan;
  plan.seed = seed;
  plan.points = 1;
  const auto t0 = Clock::now();
  const h::FuzzReport rep = h::fuzz_structure(algo, plan);
  const double s = seconds_since(t0);
  print_failures(rep, "single-crash");
  if (!rep.failures.empty() && !failures_dir.empty()) {
    h::write_reproducer(rep, failures_dir + "/fuzz-single.jsonl");
  }
  t.points += static_cast<std::uint64_t>(rep.points);
  t.violations += static_cast<std::uint64_t>(rep.violations);
  t.ops += rep.total_ops;
  t.single_s += s;
  t.single_points += static_cast<std::uint64_t>(rep.points);
  return static_cast<std::uint32_t>(s * 1e9);
}

// One concurrent point (concurrent_fuzz_structure, 2 threads).
std::uint32_t fuzz_conc(const h::AlgoEntry& algo, std::uint64_t seed,
                        FuzzTally& t) {
  h::ConcurrentCrashPlan plan;
  plan.threads = 2;
  plan.seed = seed;
  plan.points = 1;
  const auto t0 = Clock::now();
  const h::ConcurrentFuzzReport rep =
      h::concurrent_fuzz_structure(algo, plan);
  const double s = seconds_since(t0);
  print_failures(rep, "concurrent");
  if (!rep.failures.empty() && !failures_dir.empty()) {
    h::write_history_dump(rep, failures_dir + "/fuzz-concurrent.jsonl");
  }
  t.points += static_cast<std::uint64_t>(rep.points);
  t.violations += static_cast<std::uint64_t>(rep.violations);
  t.undecided += static_cast<std::uint64_t>(rep.undecided);
  t.ops += rep.total_ops;
  t.conc_s += s;
  t.conc_points += static_cast<std::uint64_t>(rep.points);
  return static_cast<std::uint32_t>(s * 1e9);
}

double us_per(double s, std::uint64_t n) {
  return n == 0 ? 0 : s * 1e6 / static_cast<double>(n);
}

// recover(slot) on an idle structure: ns per call, median of 5 batches.
double recover_ns(const h::Structure& s, int threads) {
  std::vector<double> per;
  for (int r = 0; r < 5; ++r) {
    constexpr int kCalls = 20'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) keep(s.recover(i % threads));
    per.push_back(seconds_since(t0) * 1e9 / kCalls);
  }
  return median(per);
}

// ---------------------------------------------------------------------
// Per-layer metrics of one target run, shared by every workload.
// ---------------------------------------------------------------------

struct LayerTally {
  repro::pmem::Counters pmem;
  repro::mem::Stats mem;
  std::uint64_t ops = 0;
  std::vector<std::uint32_t> traced;  // every traced call, all kinds
  double overhead_pct_sum = 0;
  Ladder ladder_sum{};
  double make_s = 0;
  double walk_s = 0;
  double recover_ns_sum = 0;
  int targets = 0;

  void add(LoopResult& r, const Ladder& l, double make, double walk,
           double recover) {
    pmem += r.pmem;
    mem += r.mem;
    ops += r.measured_ops;
    for (const auto& k : r.kind_traced) {
      traced.insert(traced.end(), k.begin(), k.end());
    }
    const double plain = r.median_ops_per_s(false);
    overhead_pct_sum += 100 * (plain - r.median_ops_per_s(true)) / plain;
    for (int step = 0; step < kSteps; ++step) ladder_sum[step] += l[step];
    make_s += make;
    walk_s += walk;
    recover_ns_sum += recover;
    ++targets;
  }

  // Ladder and ratio metrics are means over targets; make and walk
  // times are sums (one of each target).
  std::vector<Metric> metrics(const FuzzTally& fuzz) {
    const double n = static_cast<double>(ops == 0 ? 1 : ops);
    const double k = targets == 0 ? 1 : targets;
    const Ladder& l = ladder_sum;
    return {
        {"pmem.pwb_per_op", static_cast<double>(pmem.flushes) / n, "count"},
        {"pmem.pfence_per_op", static_cast<double>(pmem.fences) / n, "count"},
        {"pmem.psync_per_op", static_cast<double>(pmem.psyncs) / n, "count"},
        {"pmem.coalesced_per_op", static_cast<double>(pmem.coalesced) / n,
         "count"},
        {"pmem.exec_ns_per_op", (l[kShared] - l[kPrivate]) / k, "ns"},
        {"pmem.call_ns", pmem_call_ns(), "ns"},
        {"pmem.shadow_ns_per_op", (l[kShadow] - l[kCountOnly]) / k, "ns"},
        {"mem.allocs_per_op", static_cast<double>(mem.allocs) / n, "count"},
        {"mem.retired_per_op", static_cast<double>(mem.retires) / n, "count"},
        {"mem.reuse_ratio",
         mem.allocs == 0 ? 0
                         : static_cast<double>(mem.reuses) /
                               static_cast<double>(mem.allocs),
         "ratio"},
        {"mem.reclaim_ns_per_op", (l[kShared] - l[kLeak]) / k, "ns"},
        {"ds.volatile_ns_per_op", l[kVolatile] / k, "ns"},
        {"ds.detect_ns_per_op", (l[kPrivate] - l[kVolatile]) / k, "ns"},
        {"ds.op_p50_ns", quantile(traced, 0.50), "ns"},
        {"ds.op_p99_ns", quantile(traced, 0.99), "ns"},
        {"ds.op_p999_ns", quantile(traced, 0.999), "ns"},
        {"ds.make_us", make_s * 1e6, "us"},
        {"ds.durable_walk_ms", walk_s * 1e3, "ms"},
        {"ds.recover_ns", recover_ns_sum / k, "ns"},
        {"harness.dispatch_ns_per_op", (l[kShared] - l[kDirect]) / k, "ns"},
        {"harness.fuzz_single_us", us_per(fuzz.single_s, fuzz.single_points),
         "us"},
        {"harness.fuzz_conc_us", us_per(fuzz.conc_s, fuzz.conc_points), "us"},
        {"harness.clock_ns", clock_ns(), "ns"},
        {"harness.trace_overhead_pct", overhead_pct_sum / k, "%"},
    };
  }
};

void add_kind_detail(std::vector<Metric>& detail, const char* const* names,
                     LoopResult& r, bool traced) {
  for (std::size_t k = 0; k < r.kind_sampled.size(); ++k) {
    auto& v = traced ? r.kind_traced[k] : r.kind_sampled[k];
    const std::string base = std::string("ds.") + names[k];
    detail.push_back(
        {base + "_samples", static_cast<double>(v.size()), "count"});
    detail.push_back({base + "_p50_ns", quantile(v, 0.50), "ns"});
    detail.push_back({base + "_p99_ns", quantile(v, 0.99), "ns"});
    detail.push_back({base + "_p999_ns", quantile(v, 0.999), "ns"});
  }
}

// Sample counts, and the slice spread of throughput with the workers'
// share of their CPUs (to tell host noise from the program's own).
void add_loop_detail(std::vector<Metric>& detail, const LoopResult& r,
                     int threads) {
  std::vector<double> rate, per_cpu;
  double cpu = 0, wall = 0;
  for (std::size_t i = 0; i < r.slice_ops.size(); ++i) {
    rate.push_back(r.ops_per_s(i));
    if (r.slice_cpu_seconds[i] > 0) {
      per_cpu.push_back(static_cast<double>(r.slice_ops[i]) /
                        r.slice_cpu_seconds[i]);
    }
    cpu += r.slice_cpu_seconds[i];
    wall += r.slice_seconds[i];
  }
  const auto count = [](auto n) { return static_cast<double>(n); };
  detail.push_back({"latency_samples", count(r.sample_count()), "count"});
  detail.push_back({"timed_calls", count(r.timed_calls), "count"});
  detail.push_back({"measured_ops", count(r.measured_ops), "count"});
  detail.push_back(
      {"slice_ops_per_s_min", *std::min_element(rate.begin(), rate.end()),
       "1/s"});
  detail.push_back(
      {"slice_ops_per_s_max", *std::max_element(rate.begin(), rate.end()),
       "1/s"});
  detail.push_back({"slice_ops_per_cpu_s", median(per_cpu), "1/s"});
  detail.push_back({"worker_cpu_share", cpu / wall / threads, "ratio"});
}

// Timed verification passes over a target after its runs, then its
// one-off checks.  Returns the failures of the worst pass plus those of
// the one-off checks, and the median pass and durable-walk seconds.
template <typename Target>
std::uint64_t verify_passes(Target& t, int passes, double& pass_s,
                            double& walk_s) {
  std::uint64_t failures = 0;
  std::vector<double> pass, walk;
  for (int i = 0; i < passes; ++i) {
    double w = 0;
    const auto t0 = Clock::now();
    failures = std::max(failures, t.verify(w));
    pass.push_back(seconds_since(t0));
    walk.push_back(w);
  }
  pass_s = median(pass);
  walk_s = median(walk);
  return failures + t.final_check();
}

// ---------------------------------------------------------------------
// map-read and queue-pairs: one large structure, two closed-loop
// workers.
// ---------------------------------------------------------------------

template <typename Target>
Result run_structure_workload(Target& t, const Options& o, const Scale& sc,
                              const char* fuzz_name) {
  Result res;
  std::vector<double> setup_s, make_s;
  for (int i = 0; i < sc.setups; ++i) {
    const auto t0 = Clock::now();
    make_s.push_back(t.setup());
    setup_s.push_back(seconds_since(t0));
  }

  pmem::ModeGuard mode(pmem::Mode::shared_cache);
  LoopConfig cfg;
  cfg.threads = sc.threads;
  cfg.kinds = Target::kKinds;
  cfg.warmup_s = sc.warmup_s;
  cfg.seconds = o.seconds;
  cfg.slices = sc.slices;
  cfg.sample_every = sc.sample_every;
  cfg.traced = o.trace;
  LoopResult r = run_loop(cfg, [&](int w) { return t.body(w); });
  res.attempted = r.warm_ops + r.measured_ops;

  double pass_s = 0, walk_s = 0;
  res.failed = verify_passes(t, sc.verify_passes, pass_s, walk_s);

  add_loop_detail(res.detail, r, sc.threads);
  res.detail.push_back(
      {"verified_items", static_cast<double>(t.items()), "count"});
  if (!o.trace) {
    res.metrics = {
        {"ops_per_s", r.median_ops_per_s(false), "1/s"},
        {"p50_ns", r.median_quantile(0.50), "ns"},
        {"p99_ns", r.median_quantile(0.99), "ns"},
        {"points_per_s", static_cast<double>(t.items()) / pass_s, "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    add_kind_detail(res.detail, Target::kKindNames, r, false);
    return res;
  }

  FuzzTally fuzz;
  const h::AlgoEntry& algo = registry_entry(fuzz_name);
  for (std::uint64_t i = 0; i < 24; ++i) {
    fuzz_single(algo, h::mix_seed(o.seed, 0xF5000 + i), fuzz);
  }
  for (std::uint64_t i = 0; i < 6; ++i) {
    fuzz_conc(algo, h::mix_seed(o.seed, 0xFC000 + i), fuzz);
  }
  res.attempted += fuzz.points;
  res.failed += fuzz.violations;

  const double recover = recover_ns(t.structure(), sc.threads);
  LayerTally layers;
  layers.add(r, run_ladder(t, sc), median(make_s), walk_s, recover);
  res.metrics = layers.metrics(fuzz);
  add_kind_detail(res.detail, Target::kKindNames, r, true);
  return res;
}

using MapDirect = h::SetAdapter<ds::IsbHashMap>;
using QueueDirect = h::QueueAdapter<ds::IsbQueue>;
using ListDirect = h::SetAdapter<ds::IsbList>;

SetSpec map_spec(std::int64_t range) {
  return {"Isb-HashMap", "Harris-HashMap",
          [] {
            ds::IsbHashMapT<mem::LeakReclaimer>::Config c;
            c.bucket_bits = h::detail::hm_bucket_bits();
            return std::make_unique<
                h::SetAdapter<ds::IsbHashMapT<mem::LeakReclaimer>>>(c);
          },
          range, 40, h::kReadIntensive};
}

QueueSpec queue_spec(std::uint64_t prefill) {
  return {"Isb-Queue", "MS-Queue",
          [] {
            return std::make_unique<
                h::QueueAdapter<ds::IsbQueueT<mem::LeakReclaimer>>>();
          },
          prefill};
}

SetSpec list_spec(std::int64_t range) {
  return {"Isb", "Harris-LL",
          [] {
            return std::make_unique<
                h::SetAdapter<ds::IsbListT<mem::LeakReclaimer>>>();
          },
          range, 50, h::kUpdateIntensive};
}

Result run_map_read(const Options& o, const Scale& sc) {
  SetTarget<MapDirect> t(map_spec(sc.map_range), o.seed, sc.threads);
  return run_structure_workload(t, o, sc, "Isb-HashMap");
}

Result run_queue_pairs(const Options& o, const Scale& sc) {
  QueueTarget<QueueDirect> t(queue_spec(sc.queue_prefill), o.seed,
                             sc.threads);
  return run_structure_workload(t, o, sc, "Isb-Queue");
}

// ---------------------------------------------------------------------
// crash-fuzz: a fixed-budget campaign per round, repeated for the
// measured interval.
// ---------------------------------------------------------------------

struct CampaignEntry {
  const char* name;
  std::uint64_t single;  // single-crash points per round
  std::uint64_t conc;    // concurrent points per round
};

// Budgets balance each structure's share of a round's time: a map
// point constructs and walks an 8192-bucket directory, several times
// the cost of a list or queue point.
constexpr CampaignEntry kCampaign[] = {
    {"Isb", 24, 6},
    {"Isb-Queue", 24, 6},
    {"Isb-HashMap", 4, 1},
};
constexpr std::size_t kCampaignSize = sizeof kCampaign / sizeof kCampaign[0];

// Small instances of the campaign's structures for the traced run's
// per-layer measurements (sizes near the fuzzers' own); returns the
// failures of the instance's output checks.
template <typename Target>
std::uint64_t small_target_layers(Target& t, const Scale& sc,
                                  double seconds, LayerTally& layers) {
  const double make = t.setup();
  pmem::ModeGuard mode(pmem::Mode::shared_cache);
  LoopConfig cfg;
  cfg.threads = sc.threads;
  cfg.kinds = Target::kKinds;
  cfg.warmup_s = seconds / 5;
  cfg.seconds = seconds;
  cfg.slices = 4;
  cfg.sample_every = sc.sample_every;
  cfg.traced = true;
  LoopResult r = run_loop(cfg, [&](int w) { return t.body(w); });
  double pass_s = 0, walk_s = 0;
  const std::uint64_t failures = verify_passes(t, 1, pass_s, walk_s);
  const double recover = recover_ns(t.structure(), sc.threads);
  Scale lsc = sc;
  lsc.ladder_step_s = sc.ladder_step_s * 0.4;
  layers.add(r, run_ladder(t, lsc), make, walk_s, recover);
  return failures;
}

Result run_crash_fuzz(const Options& o, const Scale& sc) {
  Result res;
  const h::AlgoEntry* algos[kCampaignSize] = {};
  std::vector<double> setup_s, make_s;
  // Set-up: resolve the campaign's registry entries and probe each
  // structure once for the recovery and durable-walk surfaces the
  // verifiers need.
  for (int i = 0; i < sc.probe_setups; ++i) {
    const auto t0 = Clock::now();
    double make = 0;
    for (std::size_t e = 0; e < kCampaignSize; ++e) {
      algos[e] = &registry_entry(kCampaign[e].name);
      const auto m0 = Clock::now();
      auto probe = algos[e]->make();
      make += seconds_since(m0);
      if (!probe->detectable() || !probe->has_snapshot()) {
        std::fprintf(stderr, "perfbench: %s lacks recovery or a durable walk\n",
                     kCampaign[e].name);
        std::exit(1);
      }
    }
    setup_s.push_back(seconds_since(t0));
    make_s.push_back(make);
  }

  FuzzTally per[kCampaignSize];
  std::uint64_t round = 0;
  // One round: every structure's single-crash points, then its
  // concurrent points, each point's ns appended to `point_ns`.
  auto run_round = [&](std::vector<std::uint32_t>& point_ns) {
    for (std::size_t e = 0; e < kCampaignSize; ++e) {
      const std::uint64_t base = h::mix_seed(o.seed, round * kCampaignSize + e);
      for (std::uint64_t i = 0; i < kCampaign[e].single; ++i) {
        point_ns.push_back(
            fuzz_single(*algos[e], h::mix_seed(base, i), per[e]));
      }
      for (std::uint64_t i = 0; i < kCampaign[e].conc; ++i) {
        point_ns.push_back(
            fuzz_conc(*algos[e], h::mix_seed(base, 0x100 + i), per[e]));
      }
    }
    ++round;
  };

  std::vector<std::uint32_t> scratch;
  for (int i = 0; i < sc.fuzz_warmup_rounds; ++i) {
    scratch.clear();
    run_round(scratch);
  }
  // Measured slices of a fixed number of rounds each.
  std::vector<double> pts_per_s, ops_per_s, p50, p99;
  std::uint64_t samples = 0;
  std::vector<std::uint32_t> all_ns;
  for (int s = 0; s < sc.slices; ++s) {
    std::uint64_t pts0 = 0, ops0 = 0;
    for (const auto& p : per) {
      pts0 += p.points;
      ops0 += p.ops;
    }
    std::vector<std::uint32_t> ns;
    const auto t0 = Clock::now();
    for (int i = 0; i < sc.fuzz_rounds_per_slice; ++i) run_round(ns);
    const double dt = seconds_since(t0);
    std::uint64_t pts1 = 0, ops1 = 0;
    for (const auto& p : per) {
      pts1 += p.points;
      ops1 += p.ops;
    }
    pts_per_s.push_back(static_cast<double>(pts1 - pts0) / dt);
    ops_per_s.push_back(static_cast<double>(ops1 - ops0) / dt);
    samples += ns.size();
    all_ns.insert(all_ns.end(), ns.begin(), ns.end());
    p50.push_back(quantile(ns, 0.50));
    p99.push_back(quantile(ns, 0.99));
  }

  FuzzTally total;
  for (std::size_t e = 0; e < kCampaignSize; ++e) {
    const FuzzTally& t = per[e];
    total.points += t.points;
    total.violations += t.violations;
    total.undecided += t.undecided;
    total.single_s += t.single_s;
    total.single_points += t.single_points;
    total.conc_s += t.conc_s;
    total.conc_points += t.conc_points;
    const std::string n = kCampaign[e].name;
    res.detail.push_back({"harness.fuzz_single_us." + n,
                          us_per(t.single_s, t.single_points), "us"});
    res.detail.push_back({"harness.fuzz_conc_us." + n,
                          us_per(t.conc_s, t.conc_points), "us"});
    const auto count = [](std::uint64_t c) { return static_cast<double>(c); };
    res.detail.push_back({"points." + n, count(t.points), "count"});
    res.detail.push_back({"violations." + n, count(t.violations), "count"});
    res.detail.push_back({"undecided." + n, count(t.undecided), "count"});
  }
  res.detail.push_back(
      {"point_samples", static_cast<double>(samples), "count"});
  res.detail.push_back(
      {"slice_points_per_s_min",
       *std::min_element(pts_per_s.begin(), pts_per_s.end()), "1/s"});
  res.detail.push_back(
      {"slice_points_per_s_max",
       *std::max_element(pts_per_s.begin(), pts_per_s.end()), "1/s"});
  res.detail.push_back({"point_p999_ns", quantile(all_ns, 0.999), "ns"});
  res.attempted = total.points;
  res.failed = total.violations;

  if (!o.trace) {
    res.metrics = {
        {"ops_per_s", median(ops_per_s), "1/s"},
        {"p50_ns", median(p50), "ns"},
        {"p99_ns", median(p99), "ns"},
        {"points_per_s", median(pts_per_s), "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return res;
  }

  // Per-layer numbers from small instances of the fuzzed structures.
  LayerTally layers;
  Scale small = sc;
  small.queue_prefill = 8;
  {
    SetTarget<ListDirect> list(list_spec(24), o.seed, sc.threads);
    res.failed += small_target_layers(list, small, sc.layer_target_s, layers);
  }
  {
    QueueTarget<QueueDirect> queue(queue_spec(8), o.seed, sc.threads);
    res.failed += small_target_layers(queue, small, sc.layer_target_s, layers);
  }
  {
    SetTarget<MapDirect> map(map_spec(24), o.seed, sc.threads);
    res.failed += small_target_layers(map, small, sc.layer_target_s, layers);
  }
  layers.make_s = median(make_s);  // the campaign's own probes
  res.metrics = layers.metrics(total);
  return res;
}

// ---------------------------------------------------------------------
// Self-test: every checker must reject a planted bad trace.
// ---------------------------------------------------------------------

int self_test() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };

  // Keys 1 and 2 prefilled; worker 0 inserts 3 and erases 1.
  SetCheck set(4, 2);
  set.mark_prefilled(1);
  set.mark_prefilled(2);
  ++set.lane(0)[3];
  --set.lane(0)[1];
  auto live = [](std::int64_t k) { return k == 2 || k == 3; };
  expect(set.check(true, {2, 3}) == 0 && set.check_live(live) == 0,
         "set: consistent trace accepted");
  expect(set.check(true, {3}) != 0, "set: key lost from the walk");
  expect(set.check_live([](std::int64_t k) { return k == 3; }) != 0,
         "set: key lost from live finds");
  expect(set.check(true, {2, 3, 3}) != 0, "set: duplicated key");
  expect(set.check(false, {2, 3}) != 0, "set: failed walk");

  const std::uint64_t tag = 7;
  auto q = [&](std::uint64_t p, std::uint64_t s) {
    return queue_value(tag, p, s);
  };
  {
    QueueCheck c(2, 2, tag);
    c.observe(0, q(1, 0));
    c.observe(0, q(1, 1));
    c.observe(1, q(0, 0));
    c.observe(1, q(1, 2));
    expect(c.finish({1, 3}) == 0, "queue: consistent trace accepted");
  }
  {
    QueueCheck c(2, 2, tag);
    c.observe(0, q(1, 1));
    c.observe(0, q(1, 0));
    expect(c.finish({0, 2}) != 0, "queue: swapped per-producer order");
  }
  {
    QueueCheck c(2, 2, tag);
    c.observe(0, q(1, 0));
    c.observe(1, q(1, 2));
    expect(c.finish({0, 3}) != 0, "queue: lost value");
  }
  {
    QueueCheck c(2, 2, tag);
    c.observe(0, q(1, 0));
    c.observe(1, q(1, 0));
    expect(c.finish({0, 1}) != 0, "queue: duplicated value");
  }
  {
    QueueCheck c(2, 2, tag);
    c.observe(0, queue_value(tag + 1, 1, 0));
    expect(c.finish({0, 1}) != 0, "queue: phantom value");
  }
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload map-read|queue-pairs|crash-fuzz "
               "--seed N --seconds S --trace 0|1 [--small] [--git-sha SHA]\n"
               "                 [--failures-out DIR]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return self_test();
    if (a == "--small") {
      o.small = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--git-sha" && has_value) {
      o.git_sha = argv[++i];
    } else if (a == "--failures-out" && has_value) {
      failures_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0) return usage();
  const Scale sc = Scale::of(o);

  Result res;
  if (o.workload == "map-read") {
    res = run_map_read(o, sc);
  } else if (o.workload == "queue-pairs") {
    res = run_queue_pairs(o, sc);
  } else if (o.workload == "crash-fuzz") {
    res = run_crash_fuzz(o, sc);
  } else {
    return usage();
  }

  std::printf("stamp %s\n", stamp_json(o.git_sha, o.seed).c_str());
  std::printf("detail {\"workload\": \"%s\", \"trace\": %d, \"metrics\": %s}\n",
              o.workload.c_str(), o.trace ? 1 : 0,
              metrics_json(res.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              metrics_json(res.metrics).c_str());
  return res.failed == 0 ? 0 : 1;
}
