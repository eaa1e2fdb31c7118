// Structured result output: every grid point the experiment driver runs
// is emitted as a ResultRow through pluggable ResultSinks — the aligned
// stdout table the figures have always printed, plus machine-readable
// CSV and JSON-lines writers so a run can be diffed against the paper
// (or a previous run) mechanically.  REPRO_OUT=<path> adds a file sink:
// *.csv selects CSV, anything else JSON lines.
//
// Flush discipline: the file sinks flush after EVERY row, so a run
// that crashes — or is deliberately SIGKILLed by the kill harness —
// loses at most the row being formatted, never completed
// measurements.  The kill harness's own op journal
// (harness/killfuzz.hpp) takes the same rule one step further: each
// line is a single O_APPEND write(2), durable in the page cache the
// instant it returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "repro/harness/report.hpp"
#include "repro/harness/runner.hpp"

namespace repro::harness {

// One grid point's identity plus its measurements — everything a sink
// needs to emit a self-contained row (RunResult carries threads and the
// monotonic point_index).
struct ResultRow {
  std::string figure;
  std::string algo;
  std::string scenario;  // human-readable point description
  std::string mode;      // pmem execution mode name
  std::string dist;      // key distribution name ("" when n/a)
  std::int64_t key_range = 0;  // 0 when n/a
  std::string mix;             // "" when n/a
  RunResult run;
  double recovery_us = -1;  // crash scenario only; < 0 → n/a
  // Effective PRNG seed (REPRO_SEED satellite): every row carries it
  // so any emitted result is replayable bit-for-bit.
  std::uint64_t seed = 0;
  int crash_points = -1;      // crash-fuzz only; < 0 → n/a
  int crash_violations = -1;  // crash-fuzz only; < 0 → n/a
  // Crash-scenario family name ("single-crash", "repeated-crash",
  // "thread-death", "stalled-thread", "timed-stop"); "" for plain
  // measurement points.
  std::string crash_scenario;
  // Reclamation scheme behind the structure ("ebr", "hp", "pop",
  // "leak"); "" when the structure predates the reclaimer matrix or
  // carries no reclaimer trait.
  std::string reclaimer;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin(const std::string& /*figure*/,
                     const std::string& /*what*/) {}
  virtual void row(const ResultRow& r) = 0;
};

// The paper-style stdout table (report.hpp), unchanged in appearance.
class TableSink final : public ResultSink {
 public:
  void begin(const std::string& figure, const std::string& what) override {
    print_figure_header(figure, what);
    print_columns();
  }

  void row(const ResultRow& r) override {
    std::string scenario = r.scenario;
    if (r.recovery_us >= 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " recover=%.1fus", r.recovery_us);
      scenario += buf;
    }
    if (r.crash_points >= 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " viol=%d/%d", r.crash_violations,
                    r.crash_points);
      scenario += buf;
    }
    {
      char buf[40];
      std::snprintf(buf, sizeof(buf), " seed=%llu",
                    static_cast<unsigned long long>(r.seed));
      scenario += buf;
    }
    print_row(r.algo, scenario, r.run);
  }
};

namespace detail {
inline std::atomic<int>& sink_error_cell() {
  static std::atomic<int> c{0};
  return c;
}
}  // namespace detail

// File-sink failures (e.g. an unopenable REPRO_OUT path) observed so
// far; experiment_main turns a non-zero count into a failing exit code
// so a run whose machine-readable output was silently discarded cannot
// report green.
inline int sink_errors() {
  return detail::sink_error_cell().load(std::memory_order_relaxed);
}

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Shortest round-trip-ish formatting shared by the CSV and JSON sinks
// so golden files stay stable.
inline std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace detail

// Failure artifacts (fuzz reproducers, failing histories, kill
// reproducers) are JSON lines, one object per failure: `fields` — the
// numbers and registry names, which need no escaping — then the
// free-form diagnostic, escaped here because it can hold quotes,
// backslashes and newlines.
inline std::string failure_jsonl(const std::string& fields,
                                 const std::string& what) {
  return "{" + fields + ",\"what\":\"" + detail::json_escape(what) +
         "\"}\n";
}

// Appends `lines` to `path`.  The first append to a path in a process
// truncates it, so an artifact holds one run's failures while every
// failing structure of that run adds its own.
inline void append_jsonl(const std::string& path, const std::string& lines) {
  static std::mutex mu;
  static std::set<std::string> started;
  const std::lock_guard<std::mutex> lock(mu);
  std::FILE* f =
      std::fopen(path.c_str(), started.insert(path).second ? "w" : "a");
  if (f == nullptr) return;
  std::fwrite(lines.data(), 1, lines.size(), f);
  std::fclose(f);
}

// Owns its file stream when constructed from a path; borrows the
// ostream otherwise (tests write into a stringstream).
class StreamSinkBase : public ResultSink {
 public:
  explicit StreamSinkBase(std::ostream& out) : out_(&out) {}
  explicit StreamSinkBase(const std::string& path)
      : file_(std::make_unique<std::ofstream>(path,
                                              std::ios::out |
                                                  std::ios::trunc)),
        out_(file_.get()) {
    if (!*file_) {
      std::fprintf(stderr, "repro: cannot open REPRO_OUT file %s\n",
                   path.c_str());
      detail::sink_error_cell().fetch_add(1, std::memory_order_relaxed);
    }
  }

 protected:
  std::ostream& out() { return *out_; }

 private:
  std::unique_ptr<std::ofstream> file_;
  std::ostream* out_;
};

class CsvSink final : public StreamSinkBase {
 public:
  using StreamSinkBase::StreamSinkBase;

  void row(const ResultRow& r) override {
    using detail::fmt_double;
    if (!header_written_) {
      out() << "point_index,figure,algo,mode,dist,key_range,mix,threads,"
               "seconds,total_ops,ops_per_sec,pwb_per_op,pbarrier_per_op,"
               "psync_per_op,coalesced_pwb_per_op,allocs_per_op,"
               "retired_per_op,reuse_ratio,recovery_us,seed,"
               "crash_points,crash_violations,crash_scenario,"
               "reclaimer\n";
      header_written_ = true;
    }
    out() << r.run.point_index << ',' << r.figure << ',' << r.algo << ','
          << r.mode << ',' << r.dist << ',' << r.key_range << ',' << r.mix
          << ',' << r.run.threads << ',' << fmt_double(r.run.seconds)
          << ',' << r.run.total_ops << ','
          << fmt_double(r.run.ops_per_sec) << ','
          << fmt_double(r.run.flushes_per_op) << ','
          << fmt_double(r.run.barriers_per_op) << ','
          << fmt_double(r.run.psyncs_per_op) << ','
          << fmt_double(r.run.coalesced_pwb_per_op) << ','
          << fmt_double(r.run.allocs_per_op) << ','
          << fmt_double(r.run.retired_per_op) << ','
          << fmt_double(r.run.reuse_ratio) << ','
          << (r.recovery_us >= 0 ? fmt_double(r.recovery_us) : "") << ','
          << r.seed << ',';
    if (r.crash_points >= 0) out() << r.crash_points;
    out() << ',';
    if (r.crash_violations >= 0) out() << r.crash_violations;
    out() << ',' << r.crash_scenario << ',' << r.reclaimer << '\n';
    out().flush();
  }

 private:
  bool header_written_ = false;
};

// One JSON object per line (JSON lines / ndjson): the format the
// BENCH_*.json perf trajectories consume.
class JsonlSink final : public StreamSinkBase {
 public:
  using StreamSinkBase::StreamSinkBase;

  void row(const ResultRow& r) override {
    using detail::fmt_double;
    using detail::json_escape;
    out() << "{\"point_index\":" << r.run.point_index << ",\"figure\":\""
          << json_escape(r.figure) << "\",\"algo\":\""
          << json_escape(r.algo) << "\",\"mode\":\""
          << json_escape(r.mode) << "\",\"dist\":\""
          << json_escape(r.dist) << "\",\"key_range\":" << r.key_range
          << ",\"mix\":\"" << json_escape(r.mix)
          << "\",\"threads\":" << r.run.threads
          << ",\"seconds\":" << fmt_double(r.run.seconds)
          << ",\"total_ops\":" << r.run.total_ops
          << ",\"ops_per_sec\":" << fmt_double(r.run.ops_per_sec)
          << ",\"pwb_per_op\":" << fmt_double(r.run.flushes_per_op)
          << ",\"pbarrier_per_op\":" << fmt_double(r.run.barriers_per_op)
          << ",\"psync_per_op\":" << fmt_double(r.run.psyncs_per_op)
          << ",\"coalesced_pwb_per_op\":"
          << fmt_double(r.run.coalesced_pwb_per_op)
          << ",\"allocs_per_op\":" << fmt_double(r.run.allocs_per_op)
          << ",\"retired_per_op\":" << fmt_double(r.run.retired_per_op)
          << ",\"reuse_ratio\":" << fmt_double(r.run.reuse_ratio)
          << ",\"seed\":" << r.seed;
    if (r.recovery_us >= 0) {
      out() << ",\"recovery_us\":" << fmt_double(r.recovery_us);
    }
    if (r.crash_points >= 0) {
      out() << ",\"crash_points\":" << r.crash_points
            << ",\"crash_violations\":" << r.crash_violations;
    }
    if (!r.crash_scenario.empty()) {
      out() << ",\"crash_scenario\":\"" << json_escape(r.crash_scenario)
            << "\"";
    }
    if (!r.reclaimer.empty()) {
      out() << ",\"reclaimer\":\"" << json_escape(r.reclaimer)
            << "\"";
    }
    out() << "}\n";
    out().flush();
  }
};

// Fan-out over the configured sinks.
class SinkSet {
 public:
  void add(std::unique_ptr<ResultSink> s) {
    sinks_.push_back(std::move(s));
  }
  void begin(const std::string& figure, const std::string& what) {
    for (auto& s : sinks_) s->begin(figure, what);
  }
  void row(const ResultRow& r) {
    for (auto& s : sinks_) s->row(r);
  }
  std::size_t size() const { return sinks_.size(); }

 private:
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

// stdout table always; REPRO_OUT adds a CSV (*.csv) or JSON-lines sink.
inline SinkSet default_sinks() {
  SinkSet sinks;
  sinks.add(std::make_unique<TableSink>());
  if (const char* path = std::getenv("REPRO_OUT");
      path != nullptr && path[0] != '\0') {
    const std::string p(path);
    if (p.size() >= 4 && p.compare(p.size() - 4, 4, ".csv") == 0) {
      sinks.add(std::make_unique<CsvSink>(p));
    } else {
      sinks.add(std::make_unique<JsonlSink>(p));
    }
  }
  return sinks;
}

}  // namespace repro::harness
