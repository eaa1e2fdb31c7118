// Per-thread operation-history recorder for the concurrent crash
// fuzzer (crashfuzz.hpp) and the durable-linearizability checker
// (linearize.hpp).
//
// Each worker owns one *lane*: a pre-reserved event vector only that
// worker appends to, so the hot path is lock-free — the single shared
// word is the global timestamp counter, one relaxed fetch_add per
// event.  Fetch-and-add tickets on a single atomic are totally ordered
// by cache coherence, so if operation A's response event really
// finished before operation B's invoke event started, A's ticket is
// smaller — exactly the real-time precedence relation the checker
// needs (ticket(resp A) < ticket(inv B) ⇒ A precedes B).
//
// Every operation (HistoryRecorder::record) appends an invoke event
// *before* touching the structure and a response event after it
// returns; an operation interrupted by the simulated crash
// (CrashUnwind) therefore leaves a dangling invoke — the checker's
// pending-at-crash op.  The driver
// stamps one crash event after the workers have unwound.
//
// On a verification failure the whole history dumps as JSON lines
// (one event per line, timestamp-sorted), the artifact CI uploads and
// the README's replay instructions consume.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/pmem/crash.hpp"

namespace repro::harness {

inline const char* op_kind_name(ds::OpKind k) {
  switch (k) {
    case ds::OpKind::none: return "none";
    case ds::OpKind::insert: return "insert";
    case ds::OpKind::erase: return "erase";
    case ds::OpKind::find: return "find";
    case ds::OpKind::enqueue: return "enqueue";
    case ds::OpKind::dequeue: return "dequeue";
    case ds::OpKind::push: return "push";
    case ds::OpKind::pop: return "pop";
    case ds::OpKind::exchange: return "exchange";
  }
  return "?";
}

inline ds::OpKind op_kind_from_name(std::string_view n) {
  for (ds::OpKind k :
       {ds::OpKind::insert, ds::OpKind::erase, ds::OpKind::find,
        ds::OpKind::enqueue, ds::OpKind::dequeue, ds::OpKind::push,
        ds::OpKind::pop, ds::OpKind::exchange}) {
    if (n == op_kind_name(k)) return k;
  }
  return ds::OpKind::none;
}

enum class EventType { invoke, response, crash };

struct HistoryEvent {
  std::uint64_t ts = 0;    // global monotonic ticket
  int lane = -1;           // worker index; -1 for the crash event
  EventType type = EventType::invoke;
  std::uint64_t op = 0;    // per-lane op index pairing invoke/response
  ds::OpKind kind = ds::OpKind::none;
  std::int64_t input = 0;  // key (sets) / value (enqueue, push, exchange)
  bool ok = false;         // response events only
  std::uint64_t result = 0;
};

class HistoryRecorder {
 public:
  // Capacity is fixed up front (two events per operation) so lane
  // appends never reallocate — that is the lock-free-append contract.
  HistoryRecorder(int lanes, std::size_t max_ops_per_lane)
      : lanes_(static_cast<std::size_t>(lanes)) {
    for (Lane& l : lanes_) l.events.reserve(2 * max_ops_per_lane + 2);
  }

  HistoryRecorder(const HistoryRecorder&) = delete;
  HistoryRecorder& operator=(const HistoryRecorder&) = delete;

  // Owner-lane only.  Returns the op index pairing the response.
  std::uint64_t invoke(int lane, ds::OpKind kind, std::int64_t input) {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    HistoryEvent e;
    e.lane = lane;
    e.type = EventType::invoke;
    e.op = l.next_op++;
    e.kind = kind;
    e.input = input;
    e.ts = tick();
    l.events.push_back(e);
    return e.op;
  }

  // Owner-lane only.  `op` is the index invoke() returned.
  void response(int lane, std::uint64_t op, bool ok,
                std::uint64_t result) {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    // The invoke is the lane's last event: responses follow their
    // invoke immediately in a sequential lane.
    const HistoryEvent& inv = l.events.back();
    HistoryEvent e;
    e.lane = lane;
    e.type = EventType::response;
    e.op = op;
    e.kind = inv.kind;
    e.input = inv.input;
    e.ok = ok;
    e.result = result;
    e.ts = tick();
    l.events.push_back(e);
  }

  // Owner-lane only: one whole operation.  `fn` runs it and returns
  // its response as a {ok, result} pair.  An operation that unwinds
  // (CrashUnwind) leaves its invoke dangling — the pending-at-crash op.
  //
  // The crash::check() between the operation and the response event
  // closes a pure-load hole: once the simulated power has failed, any
  // tracked store or persistence instruction unwinds, but an operation
  // on a load-only path (a find, a failed search) can still return
  // normally while reading volatile state the crash is about to erase.
  // Its response was never delivered to a client of the powered-off
  // machine, so it becomes the same CrashUnwind a mid-op crash produces
  // and the invoke stays dangling (verdict: may).
  template <typename Fn>
  void record(int lane, ds::OpKind kind, std::int64_t input, Fn&& fn) {
    const std::uint64_t op = invoke(lane, kind, input);
    const auto [ok, result] = fn();
    pmem::crash::check();
    response(lane, op, ok, result);
  }

  // Driver only, after every worker has unwound.
  void mark_crash() {
    crash_ts_ = tick();
  }
  bool crashed() const { return crash_ts_ != 0; }
  std::uint64_t crash_ts() const { return crash_ts_; }

  int lanes() const { return static_cast<int>(lanes_.size()); }
  const std::vector<HistoryEvent>& lane(int i) const {
    return lanes_[static_cast<std::size_t>(i)].events;
  }

  // All events (plus the crash marker, if any), timestamp-sorted.
  std::vector<HistoryEvent> merged() const {
    std::vector<HistoryEvent> out;
    std::size_t n = crash_ts_ != 0 ? 1 : 0;
    for (const Lane& l : lanes_) n += l.events.size();
    out.reserve(n);
    for (const Lane& l : lanes_) {
      out.insert(out.end(), l.events.begin(), l.events.end());
    }
    if (crash_ts_ != 0) {
      HistoryEvent c;
      c.type = EventType::crash;
      c.ts = crash_ts_;
      out.push_back(c);
    }
    std::sort(out.begin(), out.end(),
              [](const HistoryEvent& a, const HistoryEvent& b) {
                return a.ts < b.ts;
              });
    return out;
  }

  // One JSON object per event, timestamp-sorted — the failure
  // artifact's payload.  The caller frames it with its own metadata
  // line ({structure, seed, crash_point, ...}).
  std::string to_jsonl() const {
    std::string out;
    char buf[256];
    for (const HistoryEvent& e : merged()) {
      if (e.type == EventType::crash) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ts\":%llu,\"type\":\"crash\"}\n",
                      static_cast<unsigned long long>(e.ts));
        out += buf;
        continue;
      }
      if (e.type == EventType::invoke) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ts\":%llu,\"type\":\"invoke\",\"lane\":%d,\"op\":%llu,"
            "\"kind\":\"%s\",\"input\":%lld}\n",
            static_cast<unsigned long long>(e.ts), e.lane,
            static_cast<unsigned long long>(e.op), op_kind_name(e.kind),
            static_cast<long long>(e.input));
      } else {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ts\":%llu,\"type\":\"response\",\"lane\":%d,"
            "\"op\":%llu,\"kind\":\"%s\",\"input\":%lld,\"ok\":%s,"
            "\"result\":%llu}\n",
            static_cast<unsigned long long>(e.ts), e.lane,
            static_cast<unsigned long long>(e.op), op_kind_name(e.kind),
            static_cast<long long>(e.input), e.ok ? "true" : "false",
            static_cast<unsigned long long>(e.result));
      }
      out += buf;
    }
    return out;
  }

 private:
  struct alignas(64) Lane {
    std::vector<HistoryEvent> events;
    std::uint64_t next_op = 0;
  };

  std::uint64_t tick() {
    return clock_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<Lane> lanes_;
  std::atomic<std::uint64_t> clock_{1};
  std::uint64_t crash_ts_ = 0;  // 0 → no crash recorded
};

// ---------------------------------------------------------------------
// Dump replay: parses the exact JSONL shape to_jsonl() emits (plus
// the reproducer files under tests/corpus/) back into events, so a CI
// failure artifact or a checked-in golden history can be re-fed to the
// checker locally.  Unknown lines (metadata framing, comments) are
// skipped; this is a reader for our own dumps, not a JSON parser.
// ---------------------------------------------------------------------

namespace history_detail {

inline bool field_u64(const char* line, const char* key,
                      std::uint64_t& out) {
  const char* p = std::strstr(line, key);
  if (p == nullptr) return false;
  out = std::strtoull(p + std::strlen(key), nullptr, 10);
  return true;
}
inline bool field_i64(const char* line, const char* key,
                      std::int64_t& out) {
  const char* p = std::strstr(line, key);
  if (p == nullptr) return false;
  out = std::strtoll(p + std::strlen(key), nullptr, 10);
  return true;
}

}  // namespace history_detail

// One event per parseable line, in file order (dumps are
// timestamp-sorted already).  Returns false only on a line that names
// an event type but is missing its required fields.
inline bool parse_history_jsonl(const std::string& text,
                                std::vector<HistoryEvent>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const char* l = line.c_str();
    HistoryEvent e;
    if (std::strstr(l, "\"type\":\"crash\"") != nullptr) {
      e.type = EventType::crash;
      if (!history_detail::field_u64(l, "\"ts\":", e.ts)) return false;
      out.push_back(e);
      continue;
    }
    const bool inv = std::strstr(l, "\"type\":\"invoke\"") != nullptr;
    const bool rsp = std::strstr(l, "\"type\":\"response\"") != nullptr;
    if (!inv && !rsp) continue;  // metadata framing line
    e.type = inv ? EventType::invoke : EventType::response;
    std::int64_t lane = 0;
    if (!history_detail::field_u64(l, "\"ts\":", e.ts) ||
        !history_detail::field_i64(l, "\"lane\":", lane) ||
        !history_detail::field_u64(l, "\"op\":", e.op) ||
        !history_detail::field_i64(l, "\"input\":", e.input)) {
      return false;
    }
    e.lane = static_cast<int>(lane);
    const char* k = std::strstr(l, "\"kind\":\"");
    if (k == nullptr) return false;
    k += std::strlen("\"kind\":\"");
    const char* kend = std::strchr(k, '"');
    if (kend == nullptr) return false;
    e.kind = op_kind_from_name(std::string_view(k, kend - k));
    if (rsp) {
      e.ok = std::strstr(l, "\"ok\":true") != nullptr;
      if (!history_detail::field_u64(l, "\"result\":", e.result)) {
        return false;
      }
    }
    out.push_back(e);
  }
  return true;
}

}  // namespace repro::harness
