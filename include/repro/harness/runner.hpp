// Measurement loop: runs a per-thread operation body for a fixed wall
// interval (REPRO_BENCH_MS, default 100) and reports throughput plus
// the persistence-instruction tallies normalised per operation — the
// quantities every figure in the paper plots.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "repro/harness/workload.hpp"
#include "repro/mem/ebr.hpp"
#include "repro/mem/pool.hpp"
#include "repro/mem/pop.hpp"
#include "repro/pmem/persist.hpp"

namespace repro::harness {

// One data point's measurements.  `threads` and `point_index` make the
// result self-contained for sinks: a row can be emitted without the
// caller re-threading grid context.  point_index is assigned by the
// experiment driver, monotonic across every point a process runs.
struct RunResult {
  std::uint64_t total_ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double barriers_per_op = 0;  // pfences ("pbarriers")
  double flushes_per_op = 0;   // pwbs, as issued by the algorithm
  double psyncs_per_op = 0;
  // Memory-subsystem quantities (mem/pool.hpp + mem/ebr.hpp) and the
  // pwb-coalescing elision rate (pmem/persist.hpp).
  double coalesced_pwb_per_op = 0;  // same-line pwbs elided per op
  double allocs_per_op = 0;         // pool cells handed out per op
  double retired_per_op = 0;        // nodes retired to the reclaimer
  double reuse_ratio = 0;           // fraction of allocs served recycled
  int threads = 0;
  std::uint64_t point_index = 0;
};

namespace detail {
inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v != nullptr) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  return fallback;
}

// Like env_int, but 0 is a meaningful value (e.g. an empty prefill).
inline int env_int_nonneg(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v != nullptr && *v >= '0' && *v <= '9') {
    return static_cast<int>(std::atol(v));
  }
  return fallback;
}
}  // namespace detail

// Measured interval per data point, in milliseconds.
inline int bench_ms() { return detail::env_int("REPRO_BENCH_MS", 100); }

// REPRO_SEED: one process-wide base seed threaded through every PRNG
// the harness owns — worker Rngs, prefill, Zipfian draws (via the
// worker Rngs), and crash plans — so any run (bench, test, fuzz) is
// replayable bit-for-bit.  Read once; every sink row carries the
// effective value.  Accepts decimal or 0x-hex.
inline std::uint64_t global_seed() {
  static const std::uint64_t s = [] {
    if (const char* v = std::getenv("REPRO_SEED")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 0);
      if (end != v && *end == '\0') {
        return static_cast<std::uint64_t>(parsed);
      }
      std::fprintf(stderr,
                   "repro: ignoring unparsable REPRO_SEED '%s'\n", v);
    }
    return std::uint64_t{0x5EEDBA5Eull};
  }();
  return s;
}

// SplitMix64 finaliser: derives decorrelated per-thread / per-point
// seeds from (base, salt) without the linear relationships a plain
// base+salt seed would hand xorshift.
inline std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z != 0 ? z : 0x5EEDBA5Eull;  // xorshift state must be non-zero
}

// Top of the benchmark thread series (REPRO_MAX_THREADS overrides the
// detected core count; the paper sweeps 1..#cores in powers of two).
inline int max_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return detail::env_int("REPRO_MAX_THREADS", hw > 0 ? hw : 1);
}

// Prefill density in percent of the key range (REPRO_PREFILL_PCT; the
// paper prefills to ~40% so insert/erase success rates balance; 0 is a
// valid empty-start density).
inline int prefill_pct() {
  return detail::env_int_nonneg("REPRO_PREFILL_PCT", 40);
}

// Inserts ~`percent`% of [1, key_range]; percent < 0 means "use the
// REPRO_PREFILL_PCT / 40% default".
template <typename Set>
void prefill(Set& set, std::int64_t key_range, int percent = -1) {
  if (percent < 0) percent = prefill_pct();
  Rng rng(mix_seed(global_seed(), 0xC0FFEEull));
  for (std::int64_t k = 1; k <= key_range; ++k) {
    if (rng.below(100) < static_cast<std::uint64_t>(percent)) {
      set.insert(k);
    }
  }
}

// Runs `body(tid, rng)` in a loop on `threads` threads for bench_ms()
// milliseconds.
template <typename Body>
RunResult run_threads(int threads, Body&& body) {
  struct alignas(64) Slot {
    std::uint64_t ops = 0;
    pmem::Counters counters;
    mem::Stats mem_stats;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(threads));
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};

  // Prefill (or any prior setup) ran on this thread and left its epoch
  // pin armed; drop it so the sleeping driver does not stall the
  // workers' grace periods for the whole measured interval.  Both
  // epoch-style domains pin; hazard pointers self-clear at guard exit.
  mem::EpochDomain::instance().release_pin();
  mem::PopDomain::instance().release_pin();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(mix_seed(global_seed(), static_cast<std::uint64_t>(t)));
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const pmem::Counters before = pmem::counters();
      const mem::Stats mem_before = mem::stats();
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        body(t, rng);
        ++n;
      }
      slots[static_cast<std::size_t>(t)].ops = n;
      slots[static_cast<std::size_t>(t)].counters =
          pmem::counters() - before;
      slots[static_cast<std::size_t>(t)].mem_stats =
          mem::stats() - mem_before;
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(bench_ms()));
  stop.store(true, std::memory_order_release);
  const auto t1 = std::chrono::steady_clock::now();
  for (auto& w : workers) w.join();

  RunResult r;
  r.threads = threads;
  pmem::Counters total;
  mem::Stats mem_total;
  for (const auto& s : slots) {
    r.total_ops += s.ops;
    total += s.counters;
    mem_total += s.mem_stats;
  }
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (r.seconds > 0) {
    r.ops_per_sec = static_cast<double>(r.total_ops) / r.seconds;
  }
  if (r.total_ops > 0) {
    const auto ops = static_cast<double>(r.total_ops);
    r.barriers_per_op = static_cast<double>(total.fences) / ops;
    r.flushes_per_op = static_cast<double>(total.flushes) / ops;
    r.psyncs_per_op = static_cast<double>(total.psyncs) / ops;
    r.coalesced_pwb_per_op = static_cast<double>(total.coalesced) / ops;
    r.allocs_per_op = static_cast<double>(mem_total.allocs) / ops;
    r.retired_per_op = static_cast<double>(mem_total.retires) / ops;
  }
  if (mem_total.allocs > 0) {
    r.reuse_ratio = static_cast<double>(mem_total.reuses) /
                    static_cast<double>(mem_total.allocs);
  }
  return r;
}

}  // namespace repro::harness
