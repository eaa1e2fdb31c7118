// Reproducer-corpus regression tests: every past failing (or
// bug-class-pinning) reproducer under tests/corpus/ replays bit-for-bit
// on every run.
//
//   regressions.jsonl        — {structure, seed, crash_point} triples
//                              for the single-threaded fuzzer, one per
//                              bug class PR 4 found (commit-ordering,
//                              pre-publish) plus the read-only-opt
//                              interaction; each must replay with zero
//                              violations and a deterministic report.
//                              An entry may extend the triple with a
//                              "crash_chain":[...] array (the
//                              repeated-crash reproducer format): the
//                              points replay verbatim as chained
//                              crashes inside recovery via
//                              CrashPlan::replay_chain.  A
//                              "scenario":"<name>" field retargets the
//                              replay at that scenario family (the
//                              crash-during-reclaim entry uses it).
//                              The last Isb-HashMap entry crashes on
//                              a bucket dummy's expose fence.
//   history_tail_tear.jsonl  — the real failing history the concurrent
//                              fuzzer dumped for the Isb-Queue
//                              tail-swing tear (an in-flight enqueue's
//                              unfenced link orphaning every later
//                              thread's durably-committed effect);
//                              the checker must still reject it, with
//                              a deterministic verdict.
//   history_queue_nonfifo.jsonl — golden non-linearizable queue
//                              history; the checker must reject it.
//
// REPRO_CORPUS_DIR is injected by tests/CMakeLists.txt and points at
// the source-tree corpus, so the files are versioned with the code.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/history.hpp"
#include "repro/harness/linearize.hpp"
#include "repro/harness/registry.hpp"

namespace {

using namespace repro;
using harness::AlgoEntry;
using harness::CrashPlan;
using harness::FuzzReport;
using harness::HistoryEvent;

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

std::string corpus_path(const char* name) {
  return std::string(REPRO_CORPUS_DIR) + "/" + name;
}

// Minimal field scraping for the corpus's own metadata lines, reusing
// the history parser's helpers.
bool meta_u64(const std::string& line, const char* key,
              std::uint64_t& out) {
  return harness::history_detail::field_u64(line.c_str(), key, out);
}

// Optional repeated-crash extension: "crash_chain":[p1,p2,...].
// Returns false (out untouched) for old-format triples.
bool meta_chain(const std::string& line,
                std::vector<std::uint64_t>& out) {
  static const std::string kKey = "\"crash_chain\":[";
  const std::size_t c0 = line.find(kKey);
  if (c0 == std::string::npos) return false;
  std::size_t p = c0 + kKey.size();
  while (p < line.size() && line[p] != ']') {
    char* end = nullptr;
    const unsigned long long v =
        std::strtoull(line.c_str() + p, &end, 10);
    if (end == line.c_str() + p) break;
    out.push_back(v);
    p = static_cast<std::size_t>(end - line.c_str());
    if (p < line.size() && line[p] == ',') ++p;
  }
  return !out.empty();
}

TEST(Corpus, RegressionTriplesReplayCleanAndDeterministic) {
  const std::string text = read_file(corpus_path("regressions.jsonl"));
  ASSERT_FALSE(text.empty());
  int entries = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t s0 = line.find("\"structure\":\"");
    if (s0 == std::string::npos) continue;
    const std::size_t s1 = s0 + std::string("\"structure\":\"").size();
    const std::string structure = line.substr(s1, line.find('"', s1) - s1);
    std::uint64_t seed = 0, crash_point = 0;
    ASSERT_TRUE(meta_u64(line, "\"seed\":", seed)) << line;
    ASSERT_TRUE(meta_u64(line, "\"crash_point\":", crash_point)) << line;

    const AlgoEntry* algo =
        harness::Registry::instance().find(structure);
    ASSERT_NE(algo, nullptr) << structure;
    CrashPlan plan;
    plan.seed = 1;  // irrelevant for an explicit {seed, crash_point}
    static const std::string kScenarioKey = "\"scenario\":\"";
    if (const std::size_t sc0 = line.find(kScenarioKey);
        sc0 != std::string::npos) {
      const std::size_t sc1 = sc0 + kScenarioKey.size();
      const std::string sc = line.substr(sc1, line.find('"', sc1) - sc1);
      ASSERT_TRUE(harness::scenario_from_name(sc.c_str(), plan.scenario))
          << line;
    }
    std::vector<std::uint64_t> chain;
    if (meta_chain(line, chain)) {
      plan.scenario = harness::ScenarioKind::repeated_crash;
      plan.replay_chain = chain;
      plan.chain_depth = static_cast<int>(chain.size());
    }
    FuzzReport a, b;
    harness::fuzz_one(*algo, plan, seed, crash_point, 0, a);
    harness::fuzz_one(*algo, plan, seed, crash_point, 0, b);
    EXPECT_EQ(a.violations, 0)
        << structure << " seed=" << seed << " cp=" << crash_point
        << ": " << (a.failures.empty() ? "?" : a.failures.front().what);
    EXPECT_EQ(a.crashes, 1) << structure << ": crash point must fire";
    if (!chain.empty()) {
      // The explicit chain replays verbatim: every listed point fires
      // inside a recovery pass.
      EXPECT_EQ(a.chain_crashes, static_cast<int>(chain.size()))
          << structure;
      EXPECT_EQ(a.chain_crashes, b.chain_crashes) << structure;
    }
    // Bit-for-bit: the same triple produces the identical report.
    EXPECT_EQ(a.crashes, b.crashes) << structure;
    EXPECT_EQ(a.violations, b.violations) << structure;
    EXPECT_EQ(a.total_ops, b.total_ops) << structure;
    ++entries;
  }
  EXPECT_GE(entries, 7) << "corpus lost entries";
}

TEST(Corpus, TailTearHistoryStillRejected) {
  const std::string text =
      read_file(corpus_path("history_tail_tear.jsonl"));
  ASSERT_FALSE(text.empty());
  std::vector<HistoryEvent> ev;
  ASSERT_TRUE(harness::parse_history_jsonl(text, ev));
  ASSERT_GT(ev.size(), 40u);  // 48 events + crash marker

  auto ops = harness::lin::ops_from_events(ev);
  ASSERT_EQ(ops.size(), 25u);
  // The metadata line records what the fuzz driver derived at crash
  // time: lane 2's pending enqueue(304) had a durably-committed
  // descriptor (must, ok, result=304); lane 0's enqueue(109) stayed
  // may.  The walked durable image was [107] — the chain torn at the
  // un-fenced link.
  for (auto& op : ops) {
    if (op.lane == 2 && op.response_ts == harness::lin::kNever) {
      op.pending = harness::lin::Pending::must;
      op.ok = true;
      op.result = 304;
    }
  }
  harness::lin::Spec sp;
  sp.kind = harness::lin::Semantics::queue;
  sp.initial_values = {1, 2, 3, 4, 5, 6};
  sp.check_durable = true;
  sp.durable_values = {107};
  const auto r1 = harness::lin::check(ops, sp);
  const auto r2 = harness::lin::check(ops, sp);
  EXPECT_EQ(r1.verdict, harness::lin::Verdict::violation)
      << "the tail-swing tear must stay a checker violation";
  EXPECT_EQ(r2.verdict, r1.verdict);
  EXPECT_EQ(r2.states, r1.states);  // deterministic verdict
}

TEST(Corpus, NonFifoGoldenHistoryRejected) {
  const std::string text =
      read_file(corpus_path("history_queue_nonfifo.jsonl"));
  ASSERT_FALSE(text.empty());
  std::vector<HistoryEvent> ev;
  ASSERT_TRUE(harness::parse_history_jsonl(text, ev));
  const auto ops = harness::lin::ops_from_events(ev);
  ASSERT_EQ(ops.size(), 4u);
  harness::lin::Spec sp;
  sp.kind = harness::lin::Semantics::queue;
  const auto r = harness::lin::check(ops, sp);
  EXPECT_EQ(r.verdict, harness::lin::Verdict::violation);
  // Restoring FIFO responses accepts — the file itself is the broken
  // variant.
  auto fixed = ops;
  fixed[2].result = 101;
  fixed[3].result = 102;
  EXPECT_EQ(harness::lin::check(fixed, sp).verdict,
            harness::lin::Verdict::linearizable);
}

}  // namespace
