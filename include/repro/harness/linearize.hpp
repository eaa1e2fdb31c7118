// Durable-linearizability checker for concurrent crash histories.
//
// The core is a Wing & Gong-style linearizability search: depth-first
// enumeration of linearization orders over a recorded concurrent
// history, pruned by (a) real-time precedence — an operation may only
// linearize next if no other un-linearized operation *responded*
// before it was invoked — and (b) memoization of visited
// (linearized-set, abstract-state, cut-placed) triples, which is what
// keeps the search polynomial-ish on the mostly-sequential histories
// short operations produce.  Sequential specifications are built in
// for the four registry kinds: set (insert/erase/find over keys),
// queue (FIFO), stack (LIFO), and exchanger (two overlapping exchanges
// linearize as a pair that swaps values; a timed-out exchange
// linearizes alone).
//
// The durable extension is the paper's detectability contract lifted
// to concurrent histories.  Operations pending at the crash (invoke
// without response) carry a verdict derived from their thread's
// recovery descriptor:
//
//   must     — the descriptor reports the op completed-with-response:
//              it MUST appear in the linearization, with exactly that
//              response; for queue/stack kinds an effectful must op
//              additionally sits inside the durable cut (see check()
//              for why the set family is exempt).  A durable commit
//              record whose effect is missing from the durable image
//              becomes "no valid linearization", the lost-effect bugs
//              the mutation self-tests plant.
//   may      — announced but not committed (or never announced): the
//              op may or may not have taken effect; the search is free
//              to include it (response derived from the sequential
//              spec at its linearization point) or leave it out.
//   must_not — the model asserts the op left no trace: it is excluded
//              from the search, so a durable image that contains its
//              effect cannot be explained and fails.  (Our structures'
//              descriptor-only recover() never proves this — a pwb'd
//              but unfenced effect can survive an adversarial crash —
//              so the fuzz driver maps only done→must, else→may;
//              must_not is exercised by the golden-history tests and
//              available to stricter recovery models.)
//
// Completed operations (response observed before the crash) always
// linearize with their observed response.
//
// The durable-image constraint (check_durable) is *buffered* durable
// linearizability: the accepted linearization L must contain a cut —
// a position after which the abstract state equals exactly the walked
// durable contents — such that every must-verdict effectful op lies
// inside the cut prefix, and every effectful op after the cut is
// unconstrained (its effect was volatile-only and died with the
// cache).  The cut may not be the end of L: these structures persist
// a new node before publishing it but do not flush links on *read*
// (pre_cas is a no-op in the Isb/DT policies), so a thread can
// complete an operation — even return a response — built on another
// thread's not-yet-durable link, and a crash then rewinds that whole
// suffix.  That suffix is still required to be linearizable (the
// responses really were returned), it just sits after the cut.  What
// the paper's detectability contract pins down is the descriptor:
// done-with-response implies the effect reached the durable image,
// which is exactly the must-inside-the-cut rule.
//
// Verdicts are a deterministic function of the history: the search
// visits moves in index order and the memo table only prunes, so the
// same events always produce the same verdict (the corpus replay test
// pins this).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/harness/history.hpp"

namespace repro::harness::lin {

inline constexpr std::uint64_t kNever = ~std::uint64_t{0};

enum class Pending {
  completed,  // response observed in the history
  must,       // pending at crash, descriptor says completed-with-response
  may,        // pending at crash, outcome unknown
  must_not,   // pending at crash, modelled as having left no trace
};

enum class Semantics { set, queue, stack, exchanger };

struct Op {
  int lane = -1;             // recording thread (diagnostics)
  std::uint64_t id = 0;      // per-lane op index (diagnostics)
  ds::OpKind kind = ds::OpKind::none;
  std::int64_t input = 0;    // key / offered value
  std::uint64_t invoke_ts = 0;
  std::uint64_t response_ts = kNever;  // kNever → pending at crash
  bool ok = false;           // observed or descriptor-reported response
  std::uint64_t result = 0;
  Pending pending = Pending::completed;

  bool fixed_response() const {
    return pending == Pending::completed || pending == Pending::must;
  }
};

struct Spec {
  Semantics kind = Semantics::set;
  std::vector<std::int64_t> initial_keys;     // set
  std::vector<std::uint64_t> initial_values;  // queue front..back / stack bottom..top
  // When set, the linearization must contain a cut whose prefix state
  // equals exactly this durable image, with every must-effectful op
  // inside the prefix (buffered durable linearizability — see the
  // header comment).
  bool check_durable = false;
  std::vector<std::int64_t> durable_keys;
  std::vector<std::uint64_t> durable_values;
  // DFS node budget; exhausting it yields Verdict::budget_exhausted,
  // never a violation.
  std::uint64_t max_states = 1'000'000;
};

enum class Verdict { linearizable, violation, budget_exhausted };

struct Result {
  Verdict verdict = Verdict::linearizable;
  std::uint64_t states = 0;   // DFS nodes explored
  std::string what;           // reason, on violation
  std::vector<int> witness;   // accepting linearization (op indices)
  // Position of the durable cut in `witness` (ops [0, cut) are the
  // durable prefix); -1 when no durable check ran.
  int cut = -1;
};

namespace detail {

// Abstract sequential state; only the member matching Spec::kind is
// used.  Kept small so per-move copies are cheap.
struct SeqState {
  std::vector<std::int64_t> keys;   // sorted
  std::deque<std::uint64_t> fifo;   // front..back
  std::vector<std::uint64_t> lifo;  // bottom..top

  bool has_key(std::int64_t k) const {
    return std::binary_search(keys.begin(), keys.end(), k);
  }
  void add_key(std::int64_t k) {
    keys.insert(std::lower_bound(keys.begin(), keys.end(), k), k);
  }
  void del_key(std::int64_t k) {
    keys.erase(std::lower_bound(keys.begin(), keys.end(), k));
  }
};

inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

inline std::uint64_t state_hash(const SeqState& st) {
  std::uint64_t h = 0x5EED;
  for (std::int64_t k : st.keys) {
    h = mix(h, static_cast<std::uint64_t>(k));
  }
  h = mix(h, 0xF1F0);
  for (std::uint64_t v : st.fifo) h = mix(h, v);
  h = mix(h, 0x11F0);
  for (std::uint64_t v : st.lifo) h = mix(h, v);
  return h;
}

using Mask = std::array<std::uint64_t, 2>;  // up to 128 ops

struct MemoKey {
  Mask mask;
  std::uint64_t state;
  bool cut;
  bool operator==(const MemoKey& o) const {
    return mask == o.mask && state == o.state && cut == o.cut;
  }
};
struct MemoHash {
  std::size_t operator()(const MemoKey& k) const {
    return static_cast<std::size_t>(
        mix(mix(k.mask[0], k.mask[1]), k.state + (k.cut ? 0x9E37 : 0)));
  }
};

inline bool bit(const Mask& m, int i) {
  return (m[static_cast<std::size_t>(i) / 64] >>
          (static_cast<std::size_t>(i) % 64)) &
         1u;
}
inline void set_bit(Mask& m, int i) {
  m[static_cast<std::size_t>(i) / 64] |=
      std::uint64_t{1} << (static_cast<std::size_t>(i) % 64);
}
inline bool subset(const Mask& sub, const Mask& of) {
  return (sub[0] & of[0]) == sub[0] && (sub[1] & of[1]) == sub[1];
}

// Whether a fixed-response op changes the abstract state (a failed
// mutation and every find leave it untouched; reads need no durable
// trace, so the cut rule only binds effectful ops).
inline bool effectful(Semantics sem, const Op& op) {
  if (!op.ok) return false;
  switch (sem) {
    case Semantics::set:
      return op.kind == ds::OpKind::insert || op.kind == ds::OpKind::erase;
    case Semantics::queue:
      return op.kind == ds::OpKind::enqueue ||
             op.kind == ds::OpKind::dequeue;
    case Semantics::stack:
      return op.kind == ds::OpKind::push || op.kind == ds::OpKind::pop;
    case Semantics::exchanger:
      return false;  // no durable abstract state
  }
  return false;
}

// Applies `op` to `st` under the spec's sequential semantics.
// Fixed-response ops must reproduce their recorded response; open
// (may-pending) ops take whatever response the spec implies.  Returns
// false when the recorded response is impossible in this state.
// Exchanges are handled by the pair logic in the searcher, not here.
inline bool apply(Semantics sem, const Op& op, SeqState& st) {
  switch (sem) {
    case Semantics::set: {
      const bool present = st.has_key(op.input);
      bool expect = false;
      switch (op.kind) {
        case ds::OpKind::insert: expect = !present; break;
        case ds::OpKind::erase:
        case ds::OpKind::find: expect = present; break;
        default: return false;
      }
      if (op.fixed_response() && op.ok != expect) return false;
      if (expect && op.kind == ds::OpKind::insert) st.add_key(op.input);
      if (expect && op.kind == ds::OpKind::erase) st.del_key(op.input);
      return true;
    }
    case Semantics::queue: {
      if (op.kind == ds::OpKind::enqueue) {
        if (op.fixed_response() && !op.ok) return false;
        st.fifo.push_back(static_cast<std::uint64_t>(op.input));
        return true;
      }
      if (op.kind != ds::OpKind::dequeue) return false;
      if (st.fifo.empty()) {
        return !op.fixed_response() || !op.ok;
      }
      if (op.fixed_response() &&
          (!op.ok || op.result != st.fifo.front())) {
        return false;
      }
      st.fifo.pop_front();
      return true;
    }
    case Semantics::stack: {
      if (op.kind == ds::OpKind::push) {
        if (op.fixed_response() && !op.ok) return false;
        st.lifo.push_back(static_cast<std::uint64_t>(op.input));
        return true;
      }
      if (op.kind != ds::OpKind::pop) return false;
      if (st.lifo.empty()) {
        return !op.fixed_response() || !op.ok;
      }
      if (op.fixed_response() &&
          (!op.ok || op.result != st.lifo.back())) {
        return false;
      }
      st.lifo.pop_back();
      return true;
    }
    case Semantics::exchanger:
      // Only timed-out exchanges linearize alone.
      return op.kind == ds::OpKind::exchange &&
             (!op.fixed_response() || !op.ok);
  }
  return false;
}

struct Search {
  const std::vector<Op>& ops;
  const Spec& spec;
  std::vector<int> live;  // indices not dropped as must_not
  Mask required{};        // completed + must ops
  Mask must_eff{};        // must ops whose fixed response is effectful
  std::unordered_set<MemoKey, MemoHash> seen;
  std::uint64_t states = 0;
  bool exhausted = false;
  std::vector<int> order;
  std::size_t best_depth = 0;
  int cut_pos = -1;
  // spec.durable_keys, sorted once up front: durable_matches runs at
  // every DFS node until the cut is placed, so sorting there would be
  // an allocation + O(k log k) in the checker's hottest loop.
  std::vector<std::int64_t> durable_keys_sorted;

  bool durable_matches(const SeqState& st) const {
    switch (spec.kind) {
      case Semantics::set:
        return st.keys == durable_keys_sorted;
      case Semantics::queue:
        return std::equal(st.fifo.begin(), st.fifo.end(),
                          spec.durable_values.begin(),
                          spec.durable_values.end());
      case Semantics::stack:
        return st.lifo == spec.durable_values;
      case Semantics::exchanger:
        return true;
    }
    return true;
  }

  // Two exchanges may pair iff they overlap in real time and the
  // recorded responses (where fixed) cross-match the offered values.
  bool pairable(const Op& a, const Op& b) const {
    if (a.kind != ds::OpKind::exchange ||
        b.kind != ds::OpKind::exchange) {
      return false;
    }
    if (!(a.invoke_ts < b.response_ts && b.invoke_ts < a.response_ts)) {
      return false;
    }
    if (a.fixed_response() &&
        (!a.ok ||
         a.result != static_cast<std::uint64_t>(b.input))) {
      return false;
    }
    if (b.fixed_response() &&
        (!b.ok ||
         b.result != static_cast<std::uint64_t>(a.input))) {
      return false;
    }
    return true;
  }

  // `cut` — whether the durable cut has already been placed on this
  // path; once placed, must-effectful ops may no longer linearize
  // (their effect is durable, so it belongs to the prefix).
  bool dfs(Mask done, const SeqState& st, bool cut) {
    if (++states > spec.max_states) {
      exhausted = true;
      return false;
    }
    // Terminal: every required op linearized, and (when the durable
    // image is being checked) the cut placed somewhere on the path.
    if (subset(required, done) && (cut || !spec.check_durable)) {
      return true;
    }
    // Try placing the cut here: the prefix linearized so far must
    // contain every must-effectful op and reproduce the durable image.
    if (spec.check_durable && !cut && subset(must_eff, done) &&
        durable_matches(st)) {
      cut_pos = static_cast<int>(order.size());
      if (dfs(done, st, true)) return true;
      cut_pos = -1;
    }
    if (!seen.insert({done, state_hash(st), cut}).second) return false;

    // Real-time frontier: the earliest response among un-linearized
    // ops; anything invoked after it is blocked.  (An op's own
    // response cannot precede its invoke, so including i itself in the
    // minimum is harmless.)
    std::uint64_t min_resp = kNever;
    for (int i : live) {
      if (!bit(done, i)) min_resp = std::min(min_resp, ops[i].response_ts);
    }

    for (int i : live) {
      if (bit(done, i) || ops[i].invoke_ts > min_resp) continue;
      if (cut && bit(must_eff, i)) continue;  // durable effect after cut
      const Op& a = ops[i];
      if (spec.kind == Semantics::exchanger &&
          a.kind == ds::OpKind::exchange) {
        if (a.fixed_response() && a.ok) {
          // A successful exchange linearizes as a pair with a partner
          // whose offer it received.  Fixed-fixed pairs are initiated
          // from the lower index only.
          for (int j : live) {
            if (j == i || bit(done, j)) continue;
            const Op& b = ops[j];
            if (b.invoke_ts > min_resp) continue;
            if (b.fixed_response() && (j < i || !b.ok)) continue;
            if (!pairable(a, b)) continue;
            Mask d2 = done;
            set_bit(d2, i);
            set_bit(d2, j);
            order.push_back(i);
            order.push_back(j);
            best_depth = std::max(best_depth, order.size());
            if (dfs(d2, st, cut)) return true;
            order.pop_back();
            order.pop_back();
          }
          continue;
        }
        if (!a.fixed_response()) continue;  // open: pairs only
        // fall through: a timed-out exchange linearizes alone
      }
      SeqState st2 = st;
      if (!apply(spec.kind, a, st2)) continue;
      Mask d2 = done;
      set_bit(d2, i);
      order.push_back(i);
      best_depth = std::max(best_depth, order.size());
      if (dfs(d2, st2, cut)) return true;
      order.pop_back();
    }
    return false;
  }
};

}  // namespace detail

inline Result check(const std::vector<Op>& ops, const Spec& spec) {
  Result res;
  if (ops.size() > 128) {
    res.verdict = Verdict::budget_exhausted;
    res.what = "history larger than the checker's 128-op mask";
    return res;
  }

  detail::Search s{ops, spec, {}, {}, {}, {}, 0, false, {}, 0, -1, {}};
  s.durable_keys_sorted = spec.durable_keys;
  std::sort(s.durable_keys_sorted.begin(), s.durable_keys_sorted.end());
  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const Op& op = ops[static_cast<std::size_t>(i)];
    if (op.pending == Pending::must_not) {
      continue;  // excluded: its effect must be unexplainable
    }
    s.live.push_back(i);
    if (op.fixed_response()) {
      detail::set_bit(s.required, i);
      // The must-inside-the-cut rule ("descriptor committed ⇒ effect
      // durable") is enforced only for the kinds whose structures can
      // honour it.  The queue earns it through the persist-link-
      // before-tail-swing rule (MsQueueCore + IsbPolicy::expose): no
      // thread can durably commit on top of an unfenced link.  The
      // set family cannot: a constant-persistence tracking list lets
      // thread B insert after a node whose *incoming* link is another
      // thread's still-unfenced CAS, and if B's commit record then
      // persists while that upstream link is lost, B's effect is
      // durably unreachable through no fault of B's own placement —
      // closing that window needs link-and-persist (flush-on-read,
      // David et al.), which would forfeit the paper's constant
      // persistence-instruction bound.  For sets a must op therefore
      // still pins the descriptor's exact response in the
      // linearization, but not its durability; the single-threaded
      // fuzz_one (DC1–DC4, oracle.hpp), where no cross-thread hostage
      // exists, keeps enforcing effect-durability exactly.
      if (op.pending == Pending::must &&
          (spec.kind == Semantics::queue ||
           spec.kind == Semantics::stack) &&
          detail::effectful(spec.kind, op)) {
        detail::set_bit(s.must_eff, i);
      }
    }
  }

  detail::SeqState init;
  init.keys = spec.initial_keys;
  std::sort(init.keys.begin(), init.keys.end());
  if (spec.kind == Semantics::queue) {
    init.fifo.assign(spec.initial_values.begin(),
                     spec.initial_values.end());
  } else if (spec.kind == Semantics::stack) {
    init.lifo = spec.initial_values;
  }

  const bool ok = s.dfs({}, init, false);
  res.states = s.states;
  if (ok) {
    res.verdict = Verdict::linearizable;
    res.witness = s.order;
    res.cut = spec.check_durable ? s.cut_pos : -1;
    return res;
  }
  if (s.exhausted) {
    res.verdict = Verdict::budget_exhausted;
    res.what = "checker state budget exhausted";
    return res;
  }
  res.verdict = Verdict::violation;
  char buf[176];
  std::snprintf(buf, sizeof(buf),
                "no valid linearization%s: %zu ops (%zu required), "
                "deepest prefix %zu, %llu states explored",
                spec.check_durable ? " with a durable cut" : "",
                ops.size(),
                static_cast<std::size_t>(
                    __builtin_popcountll(s.required[0]) +
                    __builtin_popcountll(s.required[1])),
                s.best_depth,
                static_cast<unsigned long long>(s.states));
  res.what = buf;
  return res;
}

// Builds checker ops from a flat event list (e.g. a parsed history
// dump): one Op per invoke event, completed when its response event
// exists, otherwise pending with the default `may` verdict (the fuzz
// driver upgrades verdicts from the recovery descriptors afterwards).
// Events of one lane must appear in program order; lanes may be
// interleaved arbitrarily (a merged, timestamp-sorted dump is fine).
inline std::vector<Op> ops_from_events(
    const std::vector<HistoryEvent>& events) {
  std::vector<Op> out;
  // Per-lane index of the op awaiting its response.
  std::vector<int> open;
  for (const HistoryEvent& e : events) {
    if (e.type == EventType::crash) continue;
    if (e.lane >= static_cast<int>(open.size())) {
      open.resize(static_cast<std::size_t>(e.lane) + 1, -1);
    }
    if (e.type == EventType::invoke) {
      Op op;
      op.lane = e.lane;
      op.id = e.op;
      op.kind = e.kind;
      op.input = e.input;
      op.invoke_ts = e.ts;
      op.pending = Pending::may;
      open[static_cast<std::size_t>(e.lane)] =
          static_cast<int>(out.size());
      out.push_back(op);
    } else {
      const int idx = open[static_cast<std::size_t>(e.lane)];
      if (idx < 0) continue;  // response without invoke: malformed line
      Op& op = out[static_cast<std::size_t>(idx)];
      op.response_ts = e.ts;
      op.ok = e.ok;
      op.result = e.result;
      op.pending = Pending::completed;
      open[static_cast<std::size_t>(e.lane)] = -1;
    }
  }
  return out;
}

inline std::vector<Op> ops_from_history(const HistoryRecorder& h) {
  return ops_from_events(h.merged());
}

// Resolves a lane's pending op in place to a completed one — the
// stalled-thread scenario's shape: a worker parked across a crash and
// recovery resumes afterwards and finally responds.  The op keeps its
// invoke, gains a response at `response_ts`, and its verdict becomes
// `completed` with {ok, result} (overriding any must/may verdict a
// recovery descriptor assigned while it was parked).  Returns false if
// the lane has no pending op.
inline bool resolve_pending(std::vector<Op>& ops, int lane,
                            std::uint64_t response_ts, bool ok,
                            std::uint64_t result) {
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (it->lane == lane && it->response_ts == kNever) {
      it->response_ts = response_ts;
      it->ok = ok;
      it->result = result;
      it->pending = Pending::completed;
      return true;
    }
  }
  return false;
}

}  // namespace repro::harness::lin
