// Measurement helpers for perfbench: exact order
// statistics over latency samples, peak RSS, timer cost, and the host
// and build stamp every result carries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "repro/harness/registry.hpp"
#include "repro/pmem/persist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

// The q-quantile (0 < q < 1) of exact samples, by the nearest-rank
// rule.  Reorders `v`.
inline double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

// Peak resident set of this process (VmHWM), in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// Keeps a computed value alive, so a timed loop is not optimised away.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

// Cost of one steady_clock::now(), median of five 200k-call batches.
inline double clock_ns() {
  std::vector<double> per;
  for (int r = 0; r < 5; ++r) {
    constexpr int kCalls = 200'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) keep(Clock::now());
    per.push_back(seconds_since(t0) * 1e9 / kCalls);
  }
  return median(per);
}

// One disarmed pwb + pfence in private_cache mode (the persistence
// call path with nothing executed), median of five 1M-call batches.
inline double pmem_call_ns() {
  alignas(64) static repro::pmem::persist<std::uint64_t> cell{0};
  repro::pmem::ModeGuard mode(repro::pmem::Mode::private_cache);
  std::vector<double> per;
  for (int r = 0; r < 5; ++r) {
    constexpr int kCalls = 1'000'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      repro::pmem::pwb(&cell);
      repro::pmem::fence();
    }
    per.push_back(seconds_since(t0) * 1e9 / kCalls);
  }
  return median(per);
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

// The host and build stamp printed (as one `stamp {...}` line) before
// every result.
inline std::string stamp_json(const std::string& git_sha,
                              std::uint64_t seed) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"git_sha\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"cpu\": \"%s\", \"nproc\": %u, \"clwb\": %s, "
      "\"hm_buckets\": %d, \"seed\": %llu}",
      json_escape(git_sha).c_str(), json_escape(__VERSION__).c_str(),
      json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(),
#if defined(__x86_64__) || defined(_M_X64)
      repro::pmem::detail::cpu_has_clwb() ? "true" : "false",
#else
      "false",
#endif
      1 << repro::harness::detail::hm_bucket_bits(),
      static_cast<unsigned long long>(seed));
  return buf;
}

}  // namespace perfbench
