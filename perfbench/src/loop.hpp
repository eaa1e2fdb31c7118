// The closed loop every timed phase of perfbench runs through:
// `threads` workers each call `body(tid)` back to back (one structure
// call per invocation, returning its op-kind index) through a warm-up
// and then a measured interval cut into equal slices.  Throughput and
// latency are reported per slice so a run's figure can be the median
// over its slices, which shrugs off a slice hit by a neighbour's burst.
//
// Latency: untraced slices time one call in `sample_every` (a clock
// read costs tens of ns); when `traced` is set, every odd slice times
// every call instead — those are the per-layer spans — and the even
// slices stay untraced, so the traced/untraced throughput ratio of one
// run is the tracing overhead.  Each worker keeps a fixed-size uniform
// reservoir of its timed calls per slice, so perfbench's own memory
// does not grow with throughput or run length.
#pragma once

#include <algorithm>
#include <atomic>
#include <pthread.h>
#include <sched.h>
#include <ctime>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/workload.hpp"
#include "repro/mem/ebr.hpp"
#include "repro/mem/pool.hpp"
#include "repro/mem/pop.hpp"
#include "repro/pmem/persist.hpp"

namespace perfbench {

struct LoopConfig {
  int threads = 2;
  int kinds = 1;  // op kinds body() may return, [0, kinds)
  double warmup_s = 2.0;
  double seconds = 10;
  int slices = 10;
  int sample_every = 17;
  bool traced = false;
};

// Latency samples kept per worker per slice: untraced, traced.
inline constexpr std::size_t kReservoir = std::size_t{1} << 14;
inline constexpr std::size_t kTracedReservoir = std::size_t{1} << 17;

struct LoopResult {
  std::vector<double> slice_seconds;
  std::vector<double> slice_cpu_seconds;  // summed over workers
  std::vector<std::uint64_t> slice_ops;
  std::vector<bool> slice_traced;
  // Per slice, latency samples (ns) of every kind together.
  std::vector<std::vector<std::uint32_t>> slice_samples;
  // Per kind, samples pooled over untraced / traced slices.
  std::vector<std::vector<std::uint32_t>> kind_sampled;
  std::vector<std::vector<std::uint32_t>> kind_traced;
  std::uint64_t warm_ops = 0;
  std::uint64_t measured_ops = 0;
  std::uint64_t timed_calls = 0;  // in untraced slices; samples kept ≤ this
  repro::pmem::Counters pmem;  // over the measured interval
  repro::mem::Stats mem;

  double ops_per_s(std::size_t slice) const {
    return static_cast<double>(slice_ops[slice]) / slice_seconds[slice];
  }
  // Median over slices of the given tracing state.
  double median_ops_per_s(bool traced) const {
    std::vector<double> v;
    for (std::size_t s = 0; s < slice_ops.size(); ++s) {
      if (slice_traced[s] == traced) v.push_back(ops_per_s(s));
    }
    return median(v);
  }
  double median_quantile(double q) {
    std::vector<double> v;
    for (std::size_t s = 0; s < slice_samples.size(); ++s) {
      if (!slice_traced[s] && !slice_samples[s].empty()) {
        v.push_back(quantile(slice_samples[s], q));
      }
    }
    return median(v);
  }
  std::size_t sample_count() const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < slice_samples.size(); ++s) {
      if (!slice_traced[s]) n += slice_samples[s].size();
    }
    return n;
  }
};

// Uniform fixed-size sample of a stream (Vitter's algorithm R).
// Entries pack the op kind above a 28-bit ns latency.
struct Reservoir {
  static constexpr std::uint32_t kNsMask = (1u << 28) - 1;
  std::vector<std::uint32_t> keep;
  std::uint64_t seen = 0;

  void add(int kind, std::int64_t ns, std::size_t cap,
           repro::harness::Rng& rng) {
    const std::uint32_t v =
        static_cast<std::uint32_t>(kind) << 28 |
        static_cast<std::uint32_t>(std::min<std::int64_t>(ns, kNsMask));
    ++seen;
    if (keep.size() < cap) {
      keep.push_back(v);
    } else if (const std::uint64_t j = rng.below(seen); j < cap) {
      keep[j] = v;
    }
  }
};

inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Pins worker `t` to the (t+1)-th CPU this process may run on (the
// main thread keeps the first), so workers do not migrate between
// CPUs mid-run.  Best effort: a failure leaves the thread unpinned.
inline void pin_worker(int t) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n < 2) return;
  int want = (t + 1) % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      return;
    }
  }
}

template <typename Body>
LoopResult run_loop(const LoopConfig& cfg, Body&& body) {
  struct alignas(64) Worker {
    std::uint64_t warm_ops = 0;
    std::vector<std::uint64_t> ops;
    std::vector<double> cpu;  // thread CPU seconds per slice
    std::vector<Reservoir> samples;  // per slice
    repro::pmem::Counters pmem;
    repro::mem::Stats mem;
  };
  const int slices = cfg.slices;
  std::vector<std::unique_ptr<Worker>> workers;
  for (int t = 0; t < cfg.threads; ++t) {
    auto w = std::make_unique<Worker>();
    w->ops.assign(static_cast<std::size_t>(slices), 0);
    w->cpu.assign(static_cast<std::size_t>(slices), 0);
    w->samples.resize(static_cast<std::size_t>(slices));
    workers.push_back(std::move(w));
  }

  // -1: not started; 0: warm-up; s in [1, slices]: measured slice s-1;
  // slices + 1: stop.
  alignas(64) std::atomic<int> phase{-1};

  // Set-up ran on this thread and left epoch pins armed; drop them so
  // the sleeping main thread does not hold back the workers' grace periods.
  repro::mem::EpochDomain::instance().release_pin();
  repro::mem::PopDomain::instance().release_pin();

  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    threads.emplace_back([&, t] {
      Worker& me = *workers[static_cast<std::size_t>(t)];
      pin_worker(t);
      while (phase.load(std::memory_order_acquire) < 0) {
        std::this_thread::yield();
      }
      int p = 0;
      while ((p = phase.load(std::memory_order_relaxed)) == 0) {
        body(t);
        ++me.warm_ops;
      }
      const repro::pmem::Counters pmem0 = repro::pmem::counters();
      const repro::mem::Stats mem0 = repro::mem::stats();
      std::uint64_t tick = 0;
      repro::harness::Rng rng(
          repro::harness::mix_seed(0x5A3B1E, static_cast<std::uint64_t>(t)));
      int seen = 0;
      double cpu0 = thread_cpu_s();
      while ((p = phase.load(std::memory_order_relaxed)) <= slices) {
        const auto s = static_cast<std::size_t>(p - 1);
        if (p != seen) {
          const double c = thread_cpu_s();
          if (seen > 0) me.cpu[static_cast<std::size_t>(seen - 1)] = c - cpu0;
          cpu0 = c;
          seen = p;
        }
        const bool traced = cfg.traced && s % 2 == 1;
        if (traced || ++tick % cfg.sample_every == 0) {
          const auto t0 = Clock::now();
          const int kind = body(t);
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t0)
                              .count();
          me.samples[s].add(kind, ns,
                            traced ? kTracedReservoir : kReservoir, rng);
        } else {
          body(t);
        }
        ++me.ops[s];
      }
      if (seen > 0) {
        me.cpu[static_cast<std::size_t>(seen - 1)] = thread_cpu_s() - cpu0;
      }
      me.pmem = repro::pmem::counters() - pmem0;
      me.mem = repro::mem::stats() - mem0;
    });
  }

  LoopResult r;
  phase.store(0, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.warmup_s));
  const double slice_s = cfg.seconds / slices;
  auto mark = Clock::now();
  for (int s = 1; s <= slices; ++s) {
    phase.store(s, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(slice_s));
    const auto now = Clock::now();
    r.slice_seconds.push_back(
        std::chrono::duration<double>(now - mark).count());
    mark = now;
  }
  phase.store(slices + 1, std::memory_order_release);
  for (auto& t : threads) t.join();

  r.slice_ops.assign(static_cast<std::size_t>(slices), 0);
  r.slice_cpu_seconds.assign(static_cast<std::size_t>(slices), 0);
  r.slice_samples.resize(static_cast<std::size_t>(slices));
  r.kind_sampled.resize(static_cast<std::size_t>(cfg.kinds));
  r.kind_traced.resize(static_cast<std::size_t>(cfg.kinds));
  for (int s = 0; s < slices; ++s) {
    r.slice_traced.push_back(cfg.traced && s % 2 == 1);
  }
  for (const auto& w : workers) {
    r.warm_ops += w->warm_ops;
    r.pmem += w->pmem;
    r.mem += w->mem;
    for (std::size_t s = 0; s < static_cast<std::size_t>(slices); ++s) {
      r.slice_ops[s] += w->ops[s];
      r.slice_cpu_seconds[s] += w->cpu[s];
      r.measured_ops += w->ops[s];
      if (!r.slice_traced[s]) r.timed_calls += w->samples[s].seen;
      auto& pooled = r.slice_traced[s] ? r.kind_traced : r.kind_sampled;
      for (const std::uint32_t v : w->samples[s].keep) {
        const std::uint32_t ns = v & Reservoir::kNsMask;
        pooled[v >> 28].push_back(ns);
        r.slice_samples[s].push_back(ns);
      }
    }
  }
  return r;
}

}  // namespace perfbench
