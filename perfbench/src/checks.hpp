// Output checks for the perfbench workloads.  Each checker counts the
// violations it finds; a run is correct only when every count is zero.
// The self-test feeds each checker a planted bad trace and expects a
// non-zero count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

// Per-key conservation for a set workload: a key's final membership
// equals its prefill state plus the net successful inserts minus erases
// of every worker.  Workers write only their own delta lane, so the hot
// path is one unshared increment per successful update.
class SetCheck {
 public:
  SetCheck(std::int64_t range, int workers)
      : range_(range),
        prefilled_(static_cast<std::size_t>(range) + 1, 0),
        delta_(static_cast<std::size_t>(workers),
               std::vector<std::int32_t>(static_cast<std::size_t>(range) + 1,
                                         0)) {}

  std::int64_t range() const { return range_; }
  void mark_prefilled(std::int64_t k) {
    prefilled_[static_cast<std::size_t>(k)] = 1;
  }
  std::int32_t* lane(int worker) {
    return delta_[static_cast<std::size_t>(worker)].data();
  }

  // Compares the expected membership of every key in [1, range] with
  // the durable walk's key list.  Returns the number of keys that
  // disagree, plus one if the walk itself failed.
  std::uint64_t check(bool walk_ok,
                      const std::vector<std::int64_t>& durable) const {
    std::uint64_t failures = walk_ok ? 0 : 1;
    std::vector<std::uint8_t> in_walk(prefilled_.size(), 0);
    for (const std::int64_t k : durable) {
      if (k < 1 || k > range_ || in_walk[static_cast<std::size_t>(k)]++ != 0) {
        ++failures;  // a phantom or duplicated key in the durable image
      }
    }
    for (std::int64_t k = 1; k <= range_; ++k) {
      const int e = expected(k);
      if (e < 0 || in_walk[static_cast<std::size_t>(k)] != e) ++failures;
    }
    return failures;
  }

  // The same against the live structure: `live(k)` is its find(k),
  // called while no worker runs.
  template <typename Live>
  std::uint64_t check_live(Live&& live) const {
    std::uint64_t failures = 0;
    for (std::int64_t k = 1; k <= range_; ++k) {
      const int e = expected(k);
      if (e < 0 || live(k) != (e == 1)) ++failures;
    }
    return failures;
  }

 private:
  // 1 or 0, or -1 when the deltas admit no membership at all.
  int expected(std::int64_t k) const {
    const auto i = static_cast<std::size_t>(k);
    std::int64_t e = prefilled_[i];
    for (const auto& d : delta_) e += d[i];
    return e == 0 || e == 1 ? static_cast<int>(e) : -1;
  }

  std::int64_t range_;
  std::vector<std::uint8_t> prefilled_;
  std::vector<std::vector<std::int32_t>> delta_;
};

// Queue values carry their origin: an 8-bit seed tag, the producer (0
// is the prefill, worker w is producer w + 1) and a per-producer
// sequence number.
inline std::uint64_t queue_value(std::uint64_t tag, std::uint64_t producer,
                                 std::uint64_t seq) {
  return tag << 56 | producer << 40 | seq;
}

// Per-producer FIFO order, exactly-once delivery and no phantom values
// for a queue workload.  A consumer must see each producer's values in
// increasing sequence order; across all consumers (the final drain is
// one more consumer) every produced value must be seen exactly once.
class QueueCheck {
 public:
  QueueCheck(int producers, int consumers, std::uint64_t tag)
      : producers_(static_cast<std::uint64_t>(producers)),
        tag_(tag),
        consumers_(static_cast<std::size_t>(consumers)) {
    for (auto& c : consumers_) {
      c.last.assign(producers_, -1);
      c.seen.resize(producers_);
    }
  }

  // Consumer `c` dequeued `v`.  Only consumer c's own state is touched.
  void observe(int c, std::uint64_t v) {
    Consumer& me = consumers_[static_cast<std::size_t>(c)];
    const std::uint64_t producer = (v >> 40) & 0xFFFF;
    const std::uint64_t seq = v & ((std::uint64_t{1} << 40) - 1);
    if ((v >> 56) != tag_ || producer >= producers_) {
      ++me.violations;  // a value nobody enqueued
      return;
    }
    if (static_cast<std::int64_t>(seq) <= me.last[producer]) {
      ++me.violations;  // out of the producer's FIFO order
    }
    me.last[producer] = static_cast<std::int64_t>(seq);
    auto& bits = me.seen[producer];
    const std::size_t word = seq >> 6;
    if (word >= bits.size()) bits.resize(std::max(word + 1, bits.size() * 2));
    bits[word] |= std::uint64_t{1} << (seq & 63);
  }

  // Order violations and values nobody enqueued, so far.
  std::uint64_t violations() const {
    std::uint64_t n = 0;
    for (const auto& c : consumers_) n += c.violations;
    return n;
  }

  // `produced[p]` values (sequence numbers 0..produced[p]-1) came from
  // producer p.  Returns order violations + phantom, duplicated and
  // lost values.
  std::uint64_t finish(const std::vector<std::uint64_t>& produced) const {
    std::uint64_t failures = violations();
    for (std::uint64_t p = 0; p < producers_; ++p) {
      const std::uint64_t n = p < produced.size() ? produced[p] : 0;
      std::size_t words = (n + 63) / 64;
      for (const auto& c : consumers_) {
        words = std::max(words, c.seen[p].size());
      }
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t seen = 0;
        for (const auto& c : consumers_) {
          const std::uint64_t b = w < c.seen[p].size() ? c.seen[p][w] : 0;
          failures += static_cast<std::uint64_t>(std::popcount(seen & b));
          seen |= b;
        }
        const std::uint64_t lo = w * 64;
        std::uint64_t valid = 0;
        if (n >= lo + 64) {
          valid = ~std::uint64_t{0};
        } else if (n > lo) {
          valid = (std::uint64_t{1} << (n - lo)) - 1;
        }
        failures += static_cast<std::uint64_t>(std::popcount(seen & ~valid));
        failures += static_cast<std::uint64_t>(std::popcount(~seen & valid));
      }
    }
    return failures;
  }

 private:
  struct alignas(64) Consumer {
    std::vector<std::int64_t> last;
    std::vector<std::vector<std::uint64_t>> seen;
    std::uint64_t violations = 0;
  };
  std::uint64_t producers_;
  std::uint64_t tag_;
  std::vector<Consumer> consumers_;
};

}  // namespace perfbench
