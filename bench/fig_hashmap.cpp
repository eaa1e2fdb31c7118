// Hash-map figures: the split-ordered hash map (one Harris list with
// per-bucket dummy nodes behind a directory that grows with the keys)
// under the paper's transformations, at key ranges the flat list
// cannot open.  Four specs:
//
//   fig-hm          — throughput scaling over the hash-map series
//                     (detectable ISB general/optimized, DT, and the
//                     volatile baseline; selected with the composed
//                     registry selector "trait:hashmap&kind:set"),
//                     uniform keys over [1,100k] and [1,1M], read- and
//                     update-intensive mixes, the paper thread series.
//   fig-hm-zipf     — the same series under production skew: zipfian
//                     keys (theta 0.99) over [1,1M].
//   fig-hm-modes    — per-backend persistence cost for the detectable
//                     variants across every pmem mode (shared_cache,
//                     private_cache, count_only, shadow, mmap) at 1
//                     and 8 threads.
//   fig-hm-vs-list  — the headline comparison: Isb-HashMap vs the flat
//                     Isb list on a 1M key range at 1 and 8 threads.
//                     prefill is pinned low (2%) because filling a
//                     *flat list* to 40% of 1M keys is quadratic; the
//                     same 20k-key working set makes the per-op gap
//                     the structures' own (the map's directory grows
//                     from one bucket to the working set).
//
// CI records the run as BENCH_PR9.json (REPRO_OUT) and shape-validates
// the (algo, threads) combinations of the pinned-thread specs.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace repro::harness;

  ExperimentSpec scaling;
  scaling.figure = "fig-hm";
  scaling.what = "hash map throughput, key ranges [1,100k] and [1,1M]";
  scaling.structures = {"trait:hashmap&kind:set"};
  scaling.key_ranges = {100000, 1000000};
  scaling.mixes = {kReadIntensive, kUpdateIntensive};

  ExperimentSpec zipf;
  zipf.figure = "fig-hm-zipf";
  zipf.what = "hash map under zipfian skew (theta 0.99), [1,1M]";
  zipf.structures = {"trait:hashmap&kind:set"};
  zipf.key_ranges = {1000000};
  zipf.mixes = {kReadIntensive, kUpdateIntensive};
  zipf.dist = KeyDist::zipfian;

  ExperimentSpec modes;
  modes.figure = "fig-hm-modes";
  modes.what = "hash map persistence backends, [1,100k]";
  modes.structures = {"Isb-HashMap", "Isb-HashMap-Opt"};
  modes.key_ranges = {100000};
  modes.mixes = {kReadIntensive};
  modes.threads = {1, 8};
  using repro::pmem::Mode;
  modes.modes = {Mode::shared_cache, Mode::private_cache,
                 Mode::count_only, Mode::shadow, Mode::mmap};

  ExperimentSpec vs_list;
  vs_list.figure = "fig-hm-vs-list";
  vs_list.what = "hash map vs flat list, [1,1M], 2% prefill";
  vs_list.structures = {"Isb-HashMap", "Isb"};
  vs_list.key_ranges = {1000000};
  vs_list.mixes = {kReadIntensive};
  vs_list.threads = {1, 8};
  vs_list.prefill_pct = 2;

  return repro::bench::experiment_main(
      argc, argv, {scaling, zipf, modes, vs_list});
}
