// The detectability oracle (harness/oracle.hpp) on synthetic
// descriptors, and the failure artifacts every verifier writes.
//
// judge_lane is the DC1–DC2 check every crash verifier shares; these
// cases pin each clause without a crash engine, a fork or a mutant
// build: a lost commit, a corrupted response, a seq that matches
// nothing, traceless finds (accepted), and the in-flight verdicts.
// judge_contents is pinned on the DC3/DC4 cases the fuzzers and the
// kill verifier feed it.  The last test writes failures whose
// diagnostics hold quotes, backslashes and a newline through all three
// reproducer writers and requires one well-formed JSON object per line.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/killfuzz.hpp"
#include "repro/harness/oracle.hpp"

namespace {

using namespace repro;
namespace oracle = harness::oracle;
using ds::OpKind;
using oracle::InFlight;
using oracle::LaneOp;
using oracle::Verdict;

LaneOp op(std::uint64_t seq, OpKind kind, std::int64_t key, bool ok,
          std::uint64_t result) {
  return {seq, kind, key, ok, result, kind != OpKind::find};
}

ds::Recovered desc(std::uint64_t seq, OpKind kind, std::int64_t key,
                   bool completed, bool ok, std::uint64_t result) {
  return {seq, kind, key, completed, ok, result};
}

// A lane that inserted 5, erased 7 (absent) and inserted 9.
std::vector<LaneOp> three_ops() {
  return {op(1, OpKind::insert, 5, true, 1), op(2, OpKind::erase, 7, false, 0),
          op(3, OpKind::insert, 9, true, 1)};
}

TEST(Oracle, LastCompletedDescriptorIsAccepted) {
  const auto v = oracle::judge_lane(
      {}, three_ops(), desc(3, OpKind::insert, 9, true, true, 1),
      InFlight::none);
  EXPECT_EQ(v.verdict, Verdict::completed) << v.what;
}

TEST(Oracle, DescriptorOfAnEarlierOpIsALostCommit) {
  const auto v = oracle::judge_lane(
      {}, three_ops(), desc(2, OpKind::erase, 7, true, false, 0),
      InFlight::none);
  EXPECT_EQ(v.verdict, Verdict::violation);
  EXPECT_NE(v.what.find("lost commit"), std::string::npos) << v.what;
  // So is a descriptor still at the pre-workload state.
  EXPECT_EQ(oracle::judge_lane({}, three_ops(), {}, InFlight::none).verdict,
            Verdict::violation);
}

TEST(Oracle, CorruptedResponseOnTheLastCompletedOpIsAViolation) {
  for (const ds::Recovered& bad :
       {desc(3, OpKind::insert, 9, true, false, 1),   // ok flipped
        desc(3, OpKind::insert, 9, true, true, 0),    // result lost
        desc(3, OpKind::insert, 8, true, true, 1),    // key
        desc(3, OpKind::insert, 9, false, true, 1)}) {  // not done
    const auto v = oracle::judge_lane({}, three_ops(), bad, InFlight::none);
    EXPECT_EQ(v.verdict, Verdict::violation);
    EXPECT_NE(v.what.find("lost or corrupted"), std::string::npos) << v.what;
  }
}

TEST(Oracle, SeqMatchingNoOperationIsAViolation) {
  const auto v = oracle::judge_lane(
      {}, three_ops(), desc(7, OpKind::insert, 9, true, true, 1),
      InFlight::unknown);
  EXPECT_EQ(v.verdict, Verdict::violation);
  EXPECT_NE(v.what.find("matches no operation"), std::string::npos)
      << v.what;
}

TEST(Oracle, TracelessFindsAfterTheMatchedOpAreAccepted) {
  // Read-only finds bump the volatile seq (or not) without persisting:
  // the durable descriptor may still name the insert before them.
  std::vector<LaneOp> done = three_ops();
  done.push_back(op(4, OpKind::find, 9, true, 1));
  done.push_back(op(4, OpKind::find, 3, false, 0));
  const auto v = oracle::judge_lane(
      {}, done, desc(3, OpKind::insert, 9, true, true, 1), InFlight::none);
  EXPECT_EQ(v.verdict, Verdict::completed) << v.what;
  // A traced op after the match is not excused.
  done.push_back(op(5, OpKind::erase, 9, true, 1));
  EXPECT_EQ(oracle::judge_lane({}, done,
                               desc(3, OpKind::insert, 9, true, true, 1),
                               InFlight::none)
                .verdict,
            Verdict::violation);
}

TEST(Oracle, PendingInFlightOpIsAccepted) {
  const LaneOp pending{0, OpKind::erase, 5, false, 0, true};
  const auto v = oracle::judge_lane(
      {}, three_ops(), desc(4, OpKind::erase, 5, false, false, 0),
      InFlight::known, pending);
  EXPECT_EQ(v.verdict, Verdict::may) << v.what;
  // Its effect may or may not have reached the durable image.
  oracle::Contents model;
  ASSERT_EQ(oracle::replay(model, three_ops()), "");
  for (const auto& durable : {std::vector<std::int64_t>{5, 9},
                              std::vector<std::int64_t>{9}}) {
    EXPECT_EQ(oracle::judge_contents(model, v, &pending,
                                     oracle::Contents::walked(durable, {})),
              "");
  }
  EXPECT_NE(oracle::judge_contents(model, v, &pending,
                                   oracle::Contents::walked({5}, {})),
            "");
}

TEST(Oracle, InFlightAnnouncementMustNameTheInvokedOp) {
  const LaneOp pending{0, OpKind::erase, 5, false, 0, true};
  EXPECT_EQ(oracle::judge_lane({}, three_ops(),
                               desc(4, OpKind::insert, 5, false, false, 0),
                               InFlight::known, pending)
                .verdict,
            Verdict::violation);
  // Unknown invocations (the kill journal) trust the announcement, but
  // a lane between operations has nothing to announce.
  EXPECT_EQ(oracle::judge_lane({}, three_ops(),
                               desc(4, OpKind::insert, 5, false, false, 0),
                               InFlight::unknown)
                .verdict,
            Verdict::may);
  EXPECT_EQ(oracle::judge_lane({}, three_ops(),
                               desc(4, OpKind::insert, 5, false, false, 0),
                               InFlight::none)
                .verdict,
            Verdict::violation);
}

TEST(Oracle, InFlightOpDoneWithTheWrongResponseIsAViolation) {
  oracle::Contents model;
  ASSERT_EQ(oracle::replay(model, three_ops()), "");  // {5, 9}
  const LaneOp pending{0, OpKind::insert, 5, false, 0, true};
  // insert(5) on a set holding 5 must answer false; "true" is stale.
  const auto v = oracle::judge_lane(
      {}, three_ops(), desc(4, OpKind::insert, 5, true, true, 1),
      InFlight::known, pending);
  ASSERT_EQ(v.verdict, Verdict::must) << v.what;
  EXPECT_NE(oracle::judge_contents(model, v, &pending,
                                   oracle::Contents::walked({5, 9}, {})),
            "");
  // Done-with-success whose effect is not durable (the DROP_PFENCE
  // image) is a violation; with the effect it is fine.
  const LaneOp ins7{0, OpKind::insert, 7, false, 0, true};
  const auto v7 = oracle::judge_lane(
      {}, three_ops(), desc(4, OpKind::insert, 7, true, true, 1),
      InFlight::known, ins7);
  EXPECT_NE(oracle::judge_contents(model, v7, &ins7,
                                   oracle::Contents::walked({5, 9}, {})),
            "");
  EXPECT_EQ(oracle::judge_contents(model, v7, &ins7,
                                   oracle::Contents::walked({9, 5, 7}, {})),
            "");
}

TEST(Oracle, FifoModelChecksResponsesAndDuplicates) {
  oracle::Contents model;
  const std::vector<LaneOp> done = {op(1, OpKind::enqueue, 11, true, 11),
                                    op(2, OpKind::enqueue, 12, true, 12),
                                    op(3, OpKind::dequeue, 0, true, 11)};
  ASSERT_EQ(oracle::replay(model, done), "");
  EXPECT_EQ(model.values, std::vector<std::uint64_t>{12});
  oracle::Contents bad;
  EXPECT_NE(oracle::replay(bad, {op(1, OpKind::enqueue, 11, true, 11),
                                 op(2, OpKind::dequeue, 0, true, 12)}),
            "");
  // A walk that repeats a key is never the model's set.
  oracle::Contents set;
  ASSERT_EQ(oracle::replay(set, three_ops()), "");
  const oracle::LaneVerdict quiet;
  EXPECT_NE(oracle::judge_contents(set, quiet, nullptr,
                                   oracle::Contents::walked({5, 9, 9}, {})),
            "");
}

// Minimal JSON well-formedness check: exactly one value spans the text.
struct JsonCheck {
  const std::string& s;
  std::size_t i = 0;

  char at() const { return i < s.size() ? s[i] : '\0'; }
  void ws() {
    while (at() == ' ' || at() == '\t') ++i;
  }
  bool lit(const char* w) {
    const std::size_t n = std::strlen(w);
    if (s.compare(i, n, w) != 0) return false;
    i += n;
    return true;
  }
  bool str() {
    if (at() != '"') return false;
    for (++i; i < s.size();) {
      const char c = s[i++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') continue;
      const char e = at();
      ++i;
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++i) {
          if (!std::isxdigit(static_cast<unsigned char>(at()))) return false;
        }
      } else if (e == '\0' || std::strchr("\"\\/bfnrt", e) == nullptr) {
        return false;
      }
    }
    return false;
  }
  bool num() {
    const std::size_t start = i;
    while (std::isdigit(static_cast<unsigned char>(at())) || at() == '-' ||
           at() == '+' || at() == '.' || at() == 'e' || at() == 'E') {
      ++i;
    }
    return i > start;
  }
  bool seq(char close, bool keyed) {
    ++i;
    ws();
    if (at() == close) return ++i, true;
    for (;;) {
      ws();
      if (keyed && !(str() && (ws(), at() == ':') && ++i)) return false;
      if (!value()) return false;
      if (at() == close) return ++i, true;
      if (at() != ',') return false;
      ++i;
    }
  }
  bool value() {
    ws();
    const char c = at();
    const bool ok = c == '{'   ? seq('}', true)
                    : c == '[' ? seq(']', false)
                    : c == '"' ? str()
                               : lit("true") || lit("false") || lit("null") ||
                                     num();
    ws();
    return ok;
  }
};

bool one_json_object(const std::string& line) {
  JsonCheck c{line};
  return !line.empty() && line[0] == '{' && c.value() && c.i == line.size();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::string text = harness::kill::detail::slurp(path);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

TEST(Reproducers, EveryFailureIsOneWellFormedJsonLine) {
  const std::string what = "quote \" backslash \\ tab \t end\n";
  const std::string path =
      "/tmp/repro_oracle_test." + std::to_string(::getpid()) + ".jsonl";
  struct Remove {
    const std::string& path;
    ~Remove() { std::remove(path.c_str()); }
  } remove_at_exit{path};

  harness::FuzzReport fuzz;
  fuzz.failures.push_back({"DT", 1, 2, 3, 4, what, {5, 1}});
  fuzz.failures.push_back({"Isb", 6, 7, 8, 9, what, {}});
  harness::write_reproducer(fuzz, path);

  harness::kill::KillReport kill;
  kill.failures.push_back({"isb-list", 1, 17, 0, 1, what, false});
  harness::kill::write_kill_reproducer(kill, path);

  harness::ConcurrentFuzzReport conc;
  conc.failures.push_back(
      {"Isb-Queue", 1, 2, 3, 2, 0, what,
       harness::failure_jsonl("\"structure\":\"Isb-Queue\"", what)});
  harness::write_history_dump(conc, path);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(one_json_object(line)) << line;
    EXPECT_NE(line.find("quote \\\" backslash \\\\ tab \\u0009 end\\n"),
              std::string::npos)
        << line;
  }
}

}  // namespace
