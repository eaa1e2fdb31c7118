// The detectability oracle: the paper's detectability contract, stated
// once and checked by every crash verifier in the repo — the shadow-NVM
// fuzz driver at one and at N threads (crashfuzz.hpp) and the
// fork-kill verifier (killfuzz.hpp).
//
// After a crash (simulated power failure, thread death, or a real
// SIGKILL), for every thread — a *lane* — the contract DC1–DC4 holds:
//
//   DC1  The durable descriptor names the lane's last completed
//        operation or the one in flight at the crash — nothing older,
//        nothing newer.  Completed operations after the named one must
//        be traceless (finds under the read-only optimization); a
//        descriptor that predates an operation obliged to leave a trace
//        is a lost commit.
//   DC2  A descriptor naming a completed operation carries exactly that
//        operation's response (kind, key, ok, result).
//   DC3  A descriptor naming the in-flight operation as done carries the
//        response the durable contents imply, and a successful
//        mutation's effect is durable: completed-with-response XOR
//        not-applied, never "done" with the effect lost.
//   DC4  The durable contents equal the model after the completed
//        operations, with or without the in-flight effect (exactly the
//        with-effect model when DC3 applies), and the durable walk is
//        well-formed (no link into never-persisted memory, no cycle).
//
// judge_lane() checks DC1–DC2 for one lane and turns the descriptor
// half of DC3 into a verdict on the in-flight op: `must` (done, with
// the descriptor's response) or `may`.  judge_contents() checks the
// contents half of DC3 and DC4 against a sequential set or FIFO model.
//
// Who calls what:
//   fuzz_one (one lane)    judge_lane + judge_contents, exactly.
//   concurrent_fuzz_one    judge_lane per lane; the must/may verdicts
//                          feed lin::check, which lifts DC3/DC4 to
//                          racing threads (buffered durable
//                          linearizability, linearize.hpp).
//   kill verifier          judge_lane per journaled lane; judge_contents
//                          per lane's key range (lists) or on the
//                          single-lane FIFO (queues).  The multi-lane
//                          queue value audit stays in killfuzz.hpp.
//
// Why the one-lane driver does not hand DC3/DC4 to lin::check: the
// checker's durable cut may sit before completed operations (a racing
// thread can respond on another thread's unfenced link), so it accepts
// a durable image that lacks a completed op's effect.  At one lane that
// is weaker than DC4 — it would accept a completed op whose commit
// record persisted while its update was lost, the image the
// REPRO_MUTATE_DROP_PFENCE mutant exists to produce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/harness/history.hpp"

namespace repro::harness::oracle {

// One completed operation, as the driver or journal observed it.
struct LaneOp {
  std::uint64_t board_seq = 0;  // the lane's descriptor seq after the op
  ds::OpKind kind = ds::OpKind::none;
  std::int64_t key = 0;  // key (sets) or offered value (enqueue/push)
  bool ok = false;
  std::uint64_t result = 0;
  bool traced = true;  // obliged to leave a durable trace (DC1)
};

// What the caller knows about the lane's operation in flight.
enum class InFlight {
  none,     // the lane was between operations
  known,    // the caller saw the invocation (kind and key must match)
  unknown,  // no record of invocations (the kill journal): trust the
            // descriptor's announcement
};

enum class Verdict {
  violation,  // DC1/DC2 broke; `what` says how
  completed,  // names the last completed op (or the pre-workload state)
  must,       // names the in-flight op as done, with `desc`'s response
  may,        // names the in-flight op, outcome unknown
};

struct LaneVerdict {
  Verdict verdict = Verdict::completed;
  ds::Recovered desc;  // the recovered descriptor
  std::string what;

  bool in_flight() const {
    return verdict == Verdict::must || verdict == Verdict::may;
  }
};

inline bool same_descriptor(const ds::Recovered& a, const ds::Recovered& b) {
  return a.seq == b.seq && a.completed == b.completed && a.kind == b.kind &&
         a.key == b.key && a.ok == b.ok && a.result == b.result;
}

// DC1–DC2 for one lane.  `base` is the descriptor before the lane's
// first operation; `done` the completed operations in order; `rec` the
// recovered descriptor; `pending` the in-flight op when `inflight` is
// known.
inline LaneVerdict judge_lane(const ds::Recovered& base,
                              const std::vector<LaneOp>& done,
                              const ds::Recovered& rec, InFlight inflight,
                              const LaneOp& pending = {}) {
  LaneVerdict v;
  v.desc = rec;
  auto violation = [&v](std::string what) {
    v.verdict = Verdict::violation;
    v.what = std::move(what);
    return v;
  };
  const std::uint64_t last = done.empty() ? base.seq : done.back().board_seq;
  if (rec.seq == last + 1) {
    if (inflight == InFlight::none) {
      return violation("durable descriptor names an operation the lane "
                       "never started");
    }
    if (inflight == InFlight::known &&
        (rec.kind != pending.kind || rec.key != pending.key)) {
      return violation("durable announcement names a different operation "
                       "than the in-flight one");
    }
    v.verdict = rec.completed ? Verdict::must : Verdict::may;
    return v;
  }
  // Only an op that bumped the seq can be the one the descriptor
  // describes; a traceless find may share its predecessor's seq.
  std::size_t match = done.size();
  for (std::size_t j = done.size(); j-- > 0;) {
    const std::uint64_t prev = j == 0 ? base.seq : done[j - 1].board_seq;
    if (done[j].board_seq == rec.seq && rec.seq != prev) {
      match = j;
      break;
    }
  }
  const bool all_traceless =
      std::none_of(done.begin() + static_cast<std::ptrdiff_t>(
                                      match == done.size() ? 0 : match + 1),
                   done.end(), [](const LaneOp& op) { return op.traced; });
  if (match == done.size()) {
    if (rec.seq != base.seq) {
      return violation("durable descriptor seq " + std::to_string(rec.seq) +
                       " matches no operation this lane ran");
    }
    if (!all_traceless) {
      return violation("durable descriptor predates committed operations "
                       "(lost commit)");
    }
    if (!same_descriptor(rec, base)) {
      return violation("pre-workload descriptor corrupted across the crash");
    }
    return v;
  }
  const LaneOp& m = done[match];
  if (!same_descriptor(rec, {rec.seq, m.kind, m.key, true, m.ok, m.result})) {
    return violation(std::string("durable descriptor for completed ") +
                     op_kind_name(m.kind) + " lost or corrupted its response");
  }
  if (!all_traceless) {
    return violation("a later completed operation left no durable trace "
                     "(lost commit)");
  }
  return v;
}

// A sequential model of durable contents: a key set (kept sorted, with
// any duplicates a durable walk produced) or a FIFO of values.
struct Contents {
  std::vector<std::int64_t> keys;     // set, ascending
  std::vector<std::uint64_t> values;  // FIFO, front first

  // A durable walk's output (one of the two is empty).
  static Contents walked(std::vector<std::int64_t> k,
                         std::vector<std::uint64_t> v) {
    std::sort(k.begin(), k.end());
    return {std::move(k), std::move(v)};
  }

  bool has(std::int64_t k) const {
    return std::binary_search(keys.begin(), keys.end(), k);
  }
  bool operator==(const Contents& o) const {
    return keys == o.keys && values == o.values;
  }

  // The effect of a successful `kind(key)` (enqueue: key is the value).
  void apply(ds::OpKind kind, std::int64_t key) {
    const auto at = std::lower_bound(keys.begin(), keys.end(), key);
    const bool present = at != keys.end() && *at == key;
    if (kind == ds::OpKind::insert && !present) keys.insert(at, key);
    if (kind == ds::OpKind::erase && present) keys.erase(at);
    if (kind == ds::OpKind::enqueue) {
      values.push_back(static_cast<std::uint64_t>(key));
    }
    if (kind == ds::OpKind::dequeue && !values.empty()) {
      values.erase(values.begin());
    }
  }

  // The response the sequential spec gives `kind(key)` here.
  bool expected_ok(ds::OpKind kind, std::int64_t key) const {
    if (kind == ds::OpKind::insert) return !has(key);
    if (kind == ds::OpKind::erase || kind == ds::OpKind::find) {
      return has(key);
    }
    return kind != ds::OpKind::dequeue || !values.empty();
  }
};

// Replays completed operations over `model`.  Returns "" or the first
// response the sequential spec contradicts.
inline std::string replay(Contents& model, const std::vector<LaneOp>& done) {
  for (const LaneOp& op : done) {
    if (op.ok != model.expected_ok(op.kind, op.key) ||
        (op.kind == ds::OpKind::dequeue && op.ok &&
         op.result != model.values.front())) {
      return std::string("completed ") + op_kind_name(op.kind) + "(" +
             std::to_string(op.key) +
             ") response contradicts the sequential model";
    }
    if (op.ok) model.apply(op.kind, op.key);
  }
  return "";
}

// DC3 (contents half) and DC4.  `model` is the state after the completed
// operations, `lane` the lane's verdict, `inflight` the op in flight
// (nullptr when none), `durable` the walked contents.
inline std::string judge_contents(const Contents& model,
                                  const LaneVerdict& lane,
                                  const LaneOp* inflight,
                                  const Contents& durable) {
  Contents with = model;
  if (inflight != nullptr) with.apply(inflight->kind, inflight->key);
  const bool without_effect = durable == model;
  const bool with_effect = durable == with;
  if (lane.verdict == Verdict::must && inflight != nullptr) {
    const ds::Recovered& d = lane.desc;
    const bool response_ok =
        d.ok == model.expected_ok(inflight->kind, inflight->key) &&
        (inflight->kind != ds::OpKind::enqueue ||
         d.result == static_cast<std::uint64_t>(inflight->key)) &&
        (inflight->kind != ds::OpKind::dequeue || !d.ok ||
         d.result == model.values.front());
    if (!response_ok) {
      return std::string("in-flight ") + op_kind_name(inflight->kind) +
             " committed with a response the model contradicts";
    }
    if (!(d.ok ? with_effect : without_effect)) {
      return std::string("in-flight ") + op_kind_name(inflight->kind) +
             " committed durably but its effect disagrees with the "
             "durable contents";
    }
    return "";
  }
  if (!without_effect && !with_effect) {
    return "durable contents match neither the pre- nor the post-in-flight "
           "model";
  }
  return "";
}

}  // namespace repro::harness::oracle
