// Simulated persistent-memory primitive layer.
//
// The paper's model (Izraelevitz et al. explicit epoch persistency) has
// three instructions: pwb (persist write-back / flush of one cache
// line), pfence (order pwbs against later stores), and psync (block
// until all earlier pwbs are durable).  On emulated NVRAM the real x86
// instructions are executed so that their latency is paid; the paper
// additionally evaluates a private-cache model (persistence
// instructions free) and instruction-count experiments (Figures 1b/1c,
// 5, 6) where only the counts matter.  Mode selects between these three
// behaviours; every call is tallied in thread-local counters either
// way, which is what feeds barriers_per_op / flushes_per_op /
// psyncs_per_op in the harness.
//
// pwb coalescing: two pwbs of the same cache line with no pfence in
// between are redundant — the line's contents persist once, at the
// fence, either way.  This generalises the paper's read-only
// optimisation (which elides provably-redundant persistence work) to
// every duplicate flush in a fence window.  flush() therefore records
// pending lines in a small per-thread buffer and executes the actual
// write-backs at the next fence()/psync(); a duplicate line in the
// window is elided entirely and tallied in Counters::coalesced, so the
// harness can report the elision rate (coalesced_pwb_per_op) next to
// the raw pwb count the figures plot.  Deferral is exact, not
// approximate: the line is flushed at the fence with all stores of the
// window already in cache.  Counters::flushes keeps counting *issued*
// pwbs, so the paper's per-op instruction counts are unchanged.
// Shadow-NVM mode (pmem/shadow.hpp) adds a fourth behaviour: stores to
// persist<T> cells are additionally tracked in a per-line write-log so
// a simulated crash (pmem/crash.hpp) can discard everything a fence
// has not committed.  Instructions execute as in count_only (no real
// write-back), so the shadow-vs-count_only delta in the benches
// isolates the tracking overhead.
// mmap mode (pmem/mmap_heap.hpp) is the file-backed backend: structures
// live in a MAP_SHARED heap file and pwb maps to clwb (clflush on CPUs
// without it) with pfence/psync as sfence, so the durable image a
// killed process leaves in the file is governed by the same
// instructions the paper counts.  On non-x86 hosts the fence mapping
// falls back to msync over the mapped heap (the attach installs the
// hook below).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "repro/pmem/crash.hpp"
#include "repro/pmem/shadow.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace repro::pmem {

// How persistence instructions behave while a benchmark runs.
enum class Mode {
  shared_cache,   // execute real flush + fence instructions (emulated NVRAM)
  private_cache,  // persistence is free: count but do not execute
  count_only,     // deterministic instruction-count experiments
  shadow,         // count_only execution + shadow-NVM write-log tracking
  mmap,           // file-backed heap: clwb+sfence (msync fallback)
};

// Which persistence placement a detectable algorithm uses: the general
// transformation persists conservatively at every step; the hand-tuned
// optimized placement (the paper's "-Opt" series) elides provably
// redundant pwbs/pfences.
enum class PersistProfile { general, optimized };

namespace detail {
inline std::atomic<Mode>& mode_cell() {
  static std::atomic<Mode> m{Mode::shared_cache};
  return m;
}

inline std::atomic<bool>& coalescing_cell() {
  static std::atomic<bool> c{true};
  return c;
}
}  // namespace detail

inline Mode mode() { return detail::mode_cell().load(std::memory_order_relaxed); }
inline void set_mode(Mode m) {
  detail::mode_cell().store(m, std::memory_order_relaxed);
  // Shadow tracking follows the mode, so ModeGuard(Mode::shadow) is
  // the whole switch; callers that need a clean slate (the fuzzer,
  // tests) pair it with shadow::reset().
  shadow::set_enabled(m == Mode::shadow);
}

// Whether duplicate pwbs of one cache line are elided between fences.
// On by default; tests and ablations can switch it off to recover the
// seed's flush-immediately behaviour.
inline bool coalescing() {
  return detail::coalescing_cell().load(std::memory_order_relaxed);
}
inline void set_coalescing(bool on) {
  detail::coalescing_cell().store(on, std::memory_order_relaxed);
}

// Scoped mode switch used by the figure benches.
class ModeGuard {
 public:
  explicit ModeGuard(Mode m) : saved_(mode()) { set_mode(m); }
  ~ModeGuard() { set_mode(saved_); }
  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  Mode saved_;
};

// Per-thread tallies of persistence instructions issued.  The harness
// snapshots these around a measured interval and normalises by the
// operation count.
struct Counters {
  std::uint64_t flushes = 0;    // pwb (as issued by the algorithm)
  std::uint64_t fences = 0;     // pfence (the paper's "pbarrier")
  std::uint64_t psyncs = 0;     // psync
  std::uint64_t coalesced = 0;  // pwbs elided by same-line coalescing

  Counters& operator+=(const Counters& o) {
    flushes += o.flushes;
    fences += o.fences;
    psyncs += o.psyncs;
    coalesced += o.coalesced;
    return *this;
  }
  Counters operator-(const Counters& o) const {
    return {flushes - o.flushes, fences - o.fences, psyncs - o.psyncs,
            coalesced - o.coalesced};
  }
};

namespace detail {
inline thread_local Counters tl_counters{};

inline constexpr std::size_t kFlushLineMask = ~std::uintptr_t{63};
inline constexpr std::size_t kFlushBufLines = 8;

// The per-thread coalescing window: cache lines with a pwb pending
// since the last fence.  Membership is tracked in every mode so the
// coalesced tally stays deterministic (Figures 1b/1c style); the
// write-backs themselves only execute in shared_cache mode.
struct FlushBuffer {
  std::uintptr_t lines[kFlushBufLines];
  std::size_t n = 0;
};
inline thread_local FlushBuffer tl_flushbuf{};

#if defined(__x86_64__) || defined(_M_X64)
// clwb keeps the line resident while starting its write-back — the
// right pwb mapping wherever pwb executes, since clflush would evict
// the line a structure is about to CAS again (and every pool cell
// sharing it).  Availability is a CPUID bit (leaf 7, EBX bit 24);
// CPUs without it fall back to clflush.
inline bool cpu_has_clwb() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
    return ((b >> 24) & 1u) != 0;
  }();
  return has;
}

inline void clwb_line(std::uintptr_t line) {
  if (cpu_has_clwb()) {
    // clwb (%rax): encoded raw so the TU needs no -mclwb.
    asm volatile(".byte 0x66, 0x0f, 0xae, 0x30"
                 :
                 : "a"(reinterpret_cast<const void*>(line))
                 : "memory");
  } else {
    _mm_clflush(reinterpret_cast<const void*>(line));
  }
}
#endif

// msync fallback for hosts without cache write-back instructions: the
// mmap heap's attach installs a function that msyncs the mapped range,
// and fence()/psync() in mmap mode call it when no x86 sfence exists.
inline std::atomic<void (*)()>& msync_hook_cell() {
  static std::atomic<void (*)()> h{nullptr};
  return h;
}

inline void exec_flush(std::uintptr_t line) {
  const Mode m = mode();
  if (m == Mode::shared_cache || m == Mode::mmap) {
#if defined(__x86_64__) || defined(_M_X64)
    clwb_line(line);
#else
    (void)line;
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }
}

// Execute and clear every pending write-back of this thread's window.
inline void drain_flush_buffer() {
  FlushBuffer& b = tl_flushbuf;
  for (std::size_t i = 0; i < b.n; ++i) exec_flush(b.lines[i]);
  b.n = 0;
}
}  // namespace detail

inline Counters counters() { return detail::tl_counters; }
inline void reset_counters() { detail::tl_counters = Counters{}; }

// pwb: write back the cache line holding addr.  Both executing modes
// (shared_cache and mmap) issue clwb, which writes the line back and
// leaves it resident, so a pwb never evicts the other pool cells that
// share its line; CPUs without clwb fall back to clflush.  With
// coalescing on, the write-back is deferred to the next fence and
// same-line duplicates in the window are elided.
inline void flush(const void* addr) {
  crash::on_instruction();  // may throw CrashUnwind while a plan is armed
  ++detail::tl_counters.flushes;
  if (shadow::enabled()) shadow::on_pwb(addr);
  const auto line =
      reinterpret_cast<std::uintptr_t>(addr) & detail::kFlushLineMask;
  if (coalescing()) {
    detail::FlushBuffer& b = detail::tl_flushbuf;
    for (std::size_t i = 0; i < b.n; ++i) {
      if (b.lines[i] == line) {
        ++detail::tl_counters.coalesced;  // duplicate in the window
        return;
      }
    }
    if (b.n < detail::kFlushBufLines) {
      b.lines[b.n++] = line;  // deferred to the next fence
      return;
    }
    // Window full: fall through and execute immediately (uncoalesced),
    // matching the seed's behaviour for the overflow.
  }
  detail::exec_flush(line);
}

inline void pwb(const void* addr) { flush(addr); }

// Whether `addr`'s line already has a write-back pending in THIS
// thread's coalescing window — i.e. a pwb this thread issued that its
// next fence will commit.  Lets a caller that needs "this word durable
// after my next fence" (IsbPolicy::expose) skip a redundant pwb
// instead of re-issuing one, keeping the paper's per-op instruction
// counts tight.  Always false with coalescing disabled (the window is
// bypassed), in which case the caller issues the pwb and counts it.
inline bool pwb_pending_mine(const void* addr) {
  const auto line =
      reinterpret_cast<std::uintptr_t>(addr) & detail::kFlushLineMask;
  const detail::FlushBuffer& b = detail::tl_flushbuf;
  for (std::size_t i = 0; i < b.n; ++i) {
    if (b.lines[i] == line) return true;
  }
  return false;
}

// pfence: order preceding pwbs before subsequent stores.  Pending
// coalesced write-backs execute here, at the window boundary.
inline void fence() {
  crash::on_instruction();
  ++detail::tl_counters.fences;
  detail::drain_flush_buffer();
  if (shadow::enabled()) shadow::on_fence();
  const Mode m = mode();
  if (m == Mode::shared_cache || m == Mode::mmap) {
#if defined(__x86_64__) || defined(_M_X64)
    _mm_sfence();
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (m == Mode::mmap) {
      if (auto* hook = detail::msync_hook_cell().load(
              std::memory_order_acquire)) {
        hook();
      }
    }
#endif
  }
}

// psync: drain — all earlier pwbs are durable once it returns.
inline void psync() {
  crash::on_instruction();
  ++detail::tl_counters.psyncs;
  detail::drain_flush_buffer();
  if (shadow::enabled()) shadow::on_fence();
  const Mode m = mode();
  if (m == Mode::shared_cache || m == Mode::mmap) {
#if defined(__x86_64__) || defined(_M_X64)
    _mm_sfence();
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (m == Mode::mmap) {
      if (auto* hook = detail::msync_hook_cell().load(
              std::memory_order_acquire)) {
        hook();
      }
    }
#endif
  }
}

// Uncounted, un-fuzzed range persistence for heap-internal metadata
// (header fields, root-slot publication, freshly-constructed root
// objects).  Deliberately NOT flush()/fence(): those count toward the
// per-op instruction tallies and toward the crash/kill countdowns, and
// heap bookkeeping must perturb neither — a {seed, kill_point} replay
// must land on the same *algorithm* instruction regardless of how many
// slabs the allocator happened to carve.
inline void persist_range_raw(const void* p, std::size_t bytes) {
  const auto lo =
      reinterpret_cast<std::uintptr_t>(p) & detail::kFlushLineMask;
  const auto hi = reinterpret_cast<std::uintptr_t>(p) + bytes;
#if defined(__x86_64__) || defined(_M_X64)
  for (std::uintptr_t line = lo; line < hi; line += 64) {
    detail::clwb_line(line);
  }
  _mm_sfence();
#else
  (void)lo;
  (void)hi;
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (auto* hook =
          detail::msync_hook_cell().load(std::memory_order_acquire)) {
    hook();
  }
#endif
}

// Install/clear the msync fallback (mmap_heap.hpp's attach/detach).
inline void set_msync_hook(void (*hook)()) {
  detail::msync_hook_cell().store(hook, std::memory_order_release);
}

// A word that notionally lives in NVRAM.  Plain load/store/CAS plus
// persisted variants that issue the pwb (and optionally the pfence) the
// algorithms place after durable writes.  In shadow mode every
// mutation is additionally logged in the per-line write-log so a
// simulated crash can rewind the word to its last-committed value;
// construction is not logged (a cell's initial value models state
// durable before the crash plan started).
template <typename T>
class persist {
  static_assert(std::atomic<T>::is_always_lock_free,
                "persist<T> requires a lock-free atomic representation");
  static_assert(sizeof(T) <= sizeof(std::uint64_t),
                "shadow tracking stores one 8-byte word per cell");

 public:
  persist() = default;
  explicit persist(T v) : cell_(v) {}

  T load(std::memory_order mo = std::memory_order_acquire) const {
    return cell_.load(mo);
  }
  void store(T v, std::memory_order mo = std::memory_order_release) {
    if (shadow::enabled()) shadow_log();
    cell_.store(v, mo);
  }

  // The defaults publish on success and observe on failure — the
  // strongest ordering any caller in ds/ actually needs; the previous
  // implicit seq_cst on every retry bought nothing.
  bool cas(T& expected, T desired,
           std::memory_order success = std::memory_order_acq_rel,
           std::memory_order failure = std::memory_order_acquire) {
    // Logged before the attempt: a failed CAS dirties nothing new (the
    // baseline captured is the still-current value), and logging after
    // a success would race the crash boundary.
    if (shadow::enabled()) shadow_log();
    return cell_.compare_exchange_strong(expected, desired, success,
                                         failure);
  }

  // Spurious-failure-tolerant variant for retry loops that re-issue the
  // CAS anyway (cheaper than cas on LL/SC architectures).
  bool cas_weak(T& expected, T desired,
                std::memory_order success = std::memory_order_acq_rel,
                std::memory_order failure = std::memory_order_acquire) {
    if (shadow::enabled()) shadow_log();
    return cell_.compare_exchange_weak(expected, desired, success,
                                       failure);
  }

  // Store then immediately write the line back.
  void store_flush(T v) {
    store(v, std::memory_order_release);
    flush(this);
  }
  // Store, write back, and order: the "durable linearization point"
  // idiom used by the general transformation.
  void store_persist(T v) {
    store_flush(v);
    fence();
  }

 private:
  static std::uint64_t to_bits(T v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
  }
  static T from_bits(std::uint64_t bits) {
    T v;
    std::memcpy(&v, &bits, sizeof(T));
    return v;
  }
  static std::uint64_t shadow_load(void* cell) {
    return to_bits(static_cast<std::atomic<T>*>(cell)->load(
        std::memory_order_relaxed));
  }
  static void shadow_store(void* cell, std::uint64_t bits) {
    static_cast<std::atomic<T>*>(cell)->store(
        from_bits(bits), std::memory_order_relaxed);
  }
  void shadow_log() {
    // A store on a powered-off machine must not execute: once the
    // armed crash has fired, every thread's next tracked mutation
    // unwinds (crash::check throws) instead of racing the post-crash
    // verification with new volatile state.  Stores before the crash
    // are logged and proceed.
    crash::check();
    shadow::on_store(&cell_,
                     to_bits(cell_.load(std::memory_order_relaxed)),
                     &persist::shadow_load, &persist::shadow_store);
  }

  std::atomic<T> cell_{};
};

}  // namespace repro::pmem
