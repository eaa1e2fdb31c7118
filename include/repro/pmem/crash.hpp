// Crash-point injection for the shadow-NVM engine (shadow.hpp).
//
// A crash plan arms a countdown over *persistence instructions*: every
// pwb/pfence/psync issued while armed decrements it, and when it hits
// zero the instruction about to execute instead throws CrashUnwind —
// modelling power failing at that instruction boundary, before its
// effect.  The throw latches the process-wide `crashed` flag first:
// once power has failed, *every* thread's next persistence instruction
// (and, in shadow mode, every tracked store — persist<T> consults
// check()) throws too, so concurrent workers stop advancing the
// durable image the instant the crash fires rather than racing commits
// past it.  disarm() clears both the countdown and the latch; the fuzz
// drivers call it after all workers have unwound, before verification.
//
// The counter is process-global.  Driven from a single thread a
// {seed, crash_point} pair replays bit-for-bit; driven from concurrent
// workers (the multi-threaded fuzzer) the countdown lands on whichever
// thread issues the n-th instruction — the schedule dimension the
// concurrent fuzzer deliberately explores, verified per-run against
// the recorded history rather than replayed.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <thread>

namespace repro::pmem::crash {

// Thrown at the chosen persistence-instruction boundary.  Deliberately
// not derived from std::exception: nothing downstream should catch it
// by accident — only the fuzz driver's explicit handler.
struct CrashUnwind {
  std::uint64_t events = 0;  // instructions executed before the crash
};

// Runtime mutants: each elides (drop_msync: reorders) exactly one
// persistence site, at DtPolicy::post_update, MsQueueCore::enqueue,
// DetectableOp::commit, RecoverySeal::write and
// mem::detail::persist_retired, and the verifier its self-test names
// (tests/test_mutants.cpp) must then report a violation.  One
// process-wide cell selects at most one; only tests set it, through
// MutantScope.  Forked children inherit it.
enum class Mutant : std::uint8_t {
  none, drop_pfence, drop_prepublish, drop_msync, drop_recovery_fence,
  drop_retire_persist
};

namespace detail {
inline std::atomic<Mutant>& mutant_cell() {
  static std::atomic<Mutant> m{Mutant::none};
  return m;
}
inline std::atomic<bool>& armed_cell() {
  static std::atomic<bool> a{false};
  return a;
}
inline std::atomic<bool>& crashed_cell() {
  static std::atomic<bool> c{false};
  return c;
}
inline std::atomic<std::uint64_t>& remaining_cell() {
  static std::atomic<std::uint64_t> r{0};
  return r;
}
inline std::atomic<std::uint64_t>& seen_cell() {
  static std::atomic<std::uint64_t> s{0};
  return s;
}
inline std::atomic<std::uint64_t>& kill_remaining_cell() {
  static std::atomic<std::uint64_t> k{0};
  return k;
}
// Thread-latch mode (per-thread-death scenario): the armed countdown
// kills only the thread that hits it instead of latching the whole
// machine off.
inline std::atomic<bool>& thread_latch_cell() {
  static std::atomic<bool> m{false};
  return m;
}
// Set on the thread that fired in latch mode; fresh worker threads
// start alive, and the flag dies with the thread.
inline bool& tl_dead() {
  thread_local bool dead = false;
  return dead;
}
// Stall gate (stalled-thread scenario): the n-th instruction's thread
// parks on the gate *before* executing, until release_stall().
inline std::atomic<std::uint64_t>& stall_remaining_cell() {
  static std::atomic<std::uint64_t> s{0};
  return s;
}
inline std::atomic<bool>& stall_gate_cell() {
  static std::atomic<bool> g{false};
  return g;
}
inline std::atomic<bool>& stall_hit_cell() {
  static std::atomic<bool> h{false};
  return h;
}
}  // namespace detail

inline bool mutated(Mutant m) {
  return detail::mutant_cell().load(std::memory_order_relaxed) == m;
}

// Selects a mutant until scope exit, exceptions included; construct it
// before starting the threads that should see it.
class MutantScope {
 public:
  explicit MutantScope(Mutant m) {
    detail::mutant_cell().store(m, std::memory_order_relaxed);
  }
  ~MutantScope() {
    detail::mutant_cell().store(Mutant::none, std::memory_order_relaxed);
  }
  MutantScope(const MutantScope&) = delete;
  MutantScope& operator=(const MutantScope&) = delete;
};

inline bool armed() {
  // Acquire: reading the firing thread's release-store of false makes
  // its prior crashed-latch store visible (see on_instruction).
  return detail::armed_cell().load(std::memory_order_acquire);
}

// The power-failed latch: set by the instruction that hit the armed
// countdown, cleared by disarm().  While set, the simulated machine is
// off — workers checking it (directly or via on_instruction/check)
// unwind instead of executing.  Acquire pairs with the firing thread's
// release stores so the latch-then-disarm order below is visible in
// that order.
inline bool crashed() {
  return detail::crashed_cell().load(std::memory_order_acquire);
}

// Instructions observed since the last arm().
inline std::uint64_t events() {
  return detail::seen_cell().load(std::memory_order_relaxed);
}

// Crash when the n-th persistence instruction from now is about to
// execute (n >= 1).  The first n-1 instructions run normally.
inline void arm(std::uint64_t n) {
  detail::seen_cell().store(0, std::memory_order_relaxed);
  detail::crashed_cell().store(false, std::memory_order_relaxed);
  detail::remaining_cell().store(n, std::memory_order_relaxed);
  detail::armed_cell().store(n > 0, std::memory_order_relaxed);
}

// Power restored: clears the countdown, the crashed latch, and
// thread-latch mode.  The fuzz drivers call this once every worker has
// unwound; verification and teardown then run persistence instructions
// normally.  A worker's own thread-death flag is thread-local and dies
// with the worker — disarm() cannot (and need not) clear it.
inline void disarm() {
  detail::armed_cell().store(false, std::memory_order_relaxed);
  detail::crashed_cell().store(false, std::memory_order_relaxed);
  detail::thread_latch_cell().store(false, std::memory_order_relaxed);
}

// Per-thread-death scenario: while on, the armed countdown fires as a
// single-thread failure — only the thread that hits the n-th
// instruction unwinds (its thread-local dead flag set); the machine
// stays on and survivors keep executing.
inline void set_thread_latch(bool on) {
  detail::thread_latch_cell().store(on, std::memory_order_relaxed);
}

// Did the calling thread die to a latch-mode firing?
inline bool thread_dead() { return detail::tl_dead(); }

// Cheap post-crash guard for paths that are not persistence
// instructions but must not run on a powered-off machine (shadow-mode
// tracked stores) or on a dead thread: throws iff the crash already
// fired or this thread was killed in latch mode.
inline void check() {
  if (detail::tl_dead()) throw CrashUnwind{events()};
  if (crashed()) throw CrashUnwind{events()};
}

// Stalled-thread adversary: the thread issuing the n-th persistence
// instruction from now publishes stall_hit() and parks *before* the
// instruction's effect, spinning on a gate until release_stall().
// After release it falls through and executes the instruction
// normally — the driver disarms the crash plan first, so the resumed
// thread does not unwind spuriously.
inline void arm_stall(std::uint64_t n) {
  detail::stall_hit_cell().store(false, std::memory_order_relaxed);
  detail::stall_gate_cell().store(n > 0, std::memory_order_relaxed);
  detail::stall_remaining_cell().store(n, std::memory_order_relaxed);
}

inline bool stall_hit() {
  return detail::stall_hit_cell().load(std::memory_order_acquire);
}

inline void release_stall() {
  detail::stall_gate_cell().store(false, std::memory_order_release);
}

inline void disarm_stall() {
  detail::stall_remaining_cell().store(0, std::memory_order_relaxed);
  detail::stall_gate_cell().store(false, std::memory_order_relaxed);
  detail::stall_hit_cell().store(false, std::memory_order_relaxed);
}

// True process-kill injection for the fork-kill harness
// (harness/killfuzz.hpp): the n-th persistence instruction from now
// raises SIGKILL instead of throwing CrashUnwind — an uncatchable end
// at a deterministic instruction boundary, so a {seed, kill_point}
// reproducer replays bit-for-bit in a fresh child process.  Shares
// on_instruction() with the simulated countdown but is independent of
// arm()/disarm(): the killed process never gets to disarm anything.
inline void arm_kill(std::uint64_t n) {
  detail::kill_remaining_cell().store(n, std::memory_order_relaxed);
}

// Called at the top of pmem::flush/fence/psync, before any effect.
inline void on_instruction() {
  // The kill countdown first: it models power failing AT this
  // instruction boundary, before the instruction's effect.  Driven
  // from concurrent workers two threads can race the decrement past
  // zero; the first one to hit 1 raises and the process is gone, so
  // the transient wrap in the loser is unobservable.
  auto& kill = detail::kill_remaining_cell();
  if (kill.load(std::memory_order_relaxed) > 0 &&
      kill.fetch_sub(1, std::memory_order_relaxed) == 1) {
    std::raise(SIGKILL);  // uncatchable; does not return
  }
  // Stall countdown: park before this instruction's effect.  While
  // parked the thread consumes no further instructions, so an armed
  // crash countdown keeps draining on the surviving threads; on
  // release it falls through to the normal checks below (the driver
  // disarms the crash first, so they pass).
  auto& stall = detail::stall_remaining_cell();
  if (stall.load(std::memory_order_relaxed) > 0 &&
      stall.fetch_sub(1, std::memory_order_relaxed) == 1) {
    detail::stall_hit_cell().store(true, std::memory_order_release);
    while (detail::stall_gate_cell().load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  check();
  if (!armed()) {
    // Close the latch race: another thread may have fired the crash
    // between the two loads above, clearing `armed` before this
    // thread observed `crashed`.  The firing order below latches
    // crashed (release) *before* clearing armed, so an armed()==false
    // read that raced the crash is guaranteed to see the latch here —
    // without this, a worker could slip one persistence instruction
    // (committing durable state) past the power failure.
    check();
    return;
  }
  const std::uint64_t left =
      detail::remaining_cell().fetch_sub(1, std::memory_order_relaxed);
  if (left <= 1) {
    if (detail::thread_latch_cell().load(std::memory_order_relaxed)) {
      // Per-thread death: exactly one thread dies.  A racer that
      // decremented past zero (left == 0) lost to the dying thread
      // and executes normally — the machine stays on.
      if (left == 1) {
        detail::tl_dead() = true;
        detail::armed_cell().store(false, std::memory_order_release);
        throw CrashUnwind{events()};
      }
      return;
    }
    detail::crashed_cell().store(true, std::memory_order_release);
    detail::armed_cell().store(false, std::memory_order_release);
    throw CrashUnwind{events()};
  }
  detail::seen_cell().fetch_add(1, std::memory_order_relaxed);
}

}  // namespace repro::pmem::crash
