// Experiment E1 — dictionary throughput across operation mixes, key ranges
// and thread counts (the §6 evaluation programme: compare the EFRB tree
// against the lock-based trees of §2 and the skiplist of §1).
//
// Output: one table per (mix, key range); rows = thread counts, columns =
// implementations, cells = Mops/s.
#include <chrono>
#include <cstdio>
#include <vector>

#include "baselines/coarse_bst.hpp"
#include "baselines/finelock_bst.hpp"
#include "baselines/locked_map.hpp"
#include "baselines/skiplist.hpp"
#include "bench_common.hpp"
#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"
#include "util/thread_pool.hpp"
#include "workload/op_mix.hpp"
#include "workload/report.hpp"

namespace {

using Key = std::uint64_t;
using efrb::OpMix;
using efrb::Table;
using efrb::WorkloadConfig;

template <typename Set>
double mops_for(const WorkloadConfig& cfg, const char* name) {
  return efrb::bench::run_cell<Set>(cfg, name).mops();
}

void run_grid(const OpMix& mix, std::uint64_t range,
              const std::vector<std::size_t>& threads) {
  std::printf("-- mix %s, key range %s --\n", efrb::mix_name(mix),
              efrb::bench::human_range(range).c_str());
  Table table({"threads", "efrb-tree", "lockfree-skiplist", "finelock-bst",
               "coarse-lock-bst", "locked-std-map"});
  for (std::size_t t : threads) {
    WorkloadConfig cfg;
    cfg.threads = t;
    cfg.key_range = range;
    cfg.mix = mix;
    cfg.duration = efrb::bench::cell_duration();
    table.add_row(
        {std::to_string(t),
         Table::fmt(mops_for<efrb::EfrbTreeSet<Key>>(cfg, "efrb-tree")),
         Table::fmt(
             mops_for<efrb::LockFreeSkipList<Key>>(cfg, "lockfree-skiplist")),
         Table::fmt(mops_for<efrb::FineLockBst<Key>>(cfg, "finelock-bst")),
         Table::fmt(mops_for<efrb::CoarseLockBst<Key>>(cfg, "coarse-lock-bst")),
         Table::fmt(mops_for<efrb::LockedStdSet<Key>>(cfg, "locked-std-map"))});
  }
  table.print();
  std::printf("\n");
}

// E1b — the handle-path ablation backing docs/API.md: the same tree measured
// through per-thread handles (attached slot, sharded counters), with stats
// disabled and enabled. The tree-level columns of the original A/B are
// archived in bench/history/20260809T233337Z_throughput.json.
void run_handle_ablation(const std::vector<std::size_t>& threads) {
  using Plain = efrb::EfrbTreeSet<Key>;
  using Stats = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                  efrb::StatsTraits>;
  std::printf("-- handle ablation: balanced mix, key range 2^16 --\n");
  Table table({"threads", "handles", "stats+handles"});
  for (std::size_t t : threads) {
    WorkloadConfig cfg;
    cfg.threads = t;
    cfg.key_range = std::uint64_t{1} << 16;
    cfg.mix = efrb::kBalanced;
    cfg.duration = efrb::bench::cell_duration();
    table.add_row({std::to_string(t),
                   Table::fmt(mops_for<Plain>(cfg, "handles")),
                   Table::fmt(mops_for<Stats>(cfg, "stats+handles"))});
  }
  table.print();
  std::printf("\n");
}

// E1d — the balance ablation backing the chromatic tree (PR 7). Three cells,
// each efrb-vs-chromatic:
//   balance:sorted-insert — fixed work, one ascending key stream split round-
//     robin across threads. The EFRB tree degenerates into a vine (O(n)
//     descents); the chromatic tree rebalances to O(log n). This is the cell
//     scripts/check.sh gates at >= 5x.
//   balance:zipf — duration cell, Zipf-skewed balanced mix: the hot keys
//     cluster, so depth under the hot path is what the rebalancing buys.
//   balance:uniform — duration cell, uniform balanced mix: the rent. The
//     chromatic tree pays LLX windows + SCX records + cleanup on every
//     update and must stay within 0.9x of EFRB here (the other check.sh
//     gate).
template <typename Set>
double sorted_insert_mops(int n, std::size_t threads, const char* name) {
  Set set;
  const auto t0 = std::chrono::steady_clock::now();
  efrb::run_threads(threads, [&](std::size_t tid) {
    auto h = set.handle();
    for (int k = static_cast<int>(tid); k < n; k += static_cast<int>(threads)) {
      h.insert(k);
    }
  });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  efrb::WorkloadResult res;
  res.inserts = static_cast<std::uint64_t>(n);
  res.ok_inserts = res.inserts;
  res.seconds = seconds;
  if (efrb::bench::metrics().enabled()) {
    WorkloadConfig cfg;
    cfg.threads = threads;
    cfg.key_range = static_cast<std::uint64_t>(n);
    cfg.mix = OpMix{100, 0};
    cfg.prefill_fraction = 0;
    cfg.seed = efrb::bench::bench_seed(cfg.seed);
    efrb::bench::metrics().add_cell(name, cfg, res);
  }
  return res.mops();
}

void run_balance_grid(const std::vector<std::size_t>& threads) {
  using Efrb = efrb::EfrbTreeSet<Key>;
  using Chromatic = efrb::ChromaticTreeSet<Key>;
  // Fixed sorted-insert work: big enough that the EFRB vine's quadratic
  // descent cost dominates, small enough that the cell stays sub-second.
  constexpr int kSortedKeys = 20'000;

  std::printf("-- balance ablation: sorted insert of %d keys (Mops/s) --\n",
              kSortedKeys);
  Table sorted({"threads", "efrb-tree", "chromatic-tree"});
  for (std::size_t t : threads) {
    sorted.add_row(
        {std::to_string(t),
         Table::fmt(sorted_insert_mops<Efrb>(kSortedKeys, t,
                                             "balance:sorted-insert efrb")),
         Table::fmt(sorted_insert_mops<Chromatic>(
             kSortedKeys, t, "balance:sorted-insert chromatic"))});
  }
  sorted.print();
  std::printf("\n");

  std::printf(
      "-- balance ablation: zipf-skewed vs uniform balanced mix, 2^16 --\n");
  Table mixes({"threads", "efrb zipf", "chromatic zipf", "efrb uniform",
               "chromatic uniform"});
  for (std::size_t t : threads) {
    WorkloadConfig uni;
    uni.threads = t;
    uni.key_range = std::uint64_t{1} << 16;
    uni.mix = efrb::kBalanced;
    uni.duration = efrb::bench::cell_duration();
    WorkloadConfig zipf = uni;
    zipf.zipf = true;
    mixes.add_row(
        {std::to_string(t),
         Table::fmt(mops_for<Efrb>(zipf, "balance:zipf efrb")),
         Table::fmt(mops_for<Chromatic>(zipf, "balance:zipf chromatic")),
         Table::fmt(mops_for<Efrb>(uni, "balance:uniform efrb")),
         Table::fmt(mops_for<Chromatic>(uni, "balance:uniform chromatic"))});
  }
  mixes.print();
  std::printf("\n");

  // Fixed-op-count uniform cells: same Mops/s comparison as balance:uniform,
  // but both trees perform the IDENTICAL op/key stream (equal work), so the
  // chromatic/efrb ratio is stable enough for check.sh to gate on strictly —
  // fixed-duration ratios wobble with whatever the scheduler let each cell
  // get through (the strict-gate flake this replaces).
  constexpr std::uint64_t kUniformOps = 200'000;
  std::printf("-- balance ablation: fixed %llu-op uniform mix, 2^16 --\n",
              static_cast<unsigned long long>(kUniformOps));
  Table ops({"threads", "efrb uniform-ops", "chromatic uniform-ops"});
  for (std::size_t t : threads) {
    ops.add_row(
        {std::to_string(t),
         Table::fmt(efrb::bench::run_fixed_ops_cell<Efrb>(
                        kUniformOps, t, std::uint64_t{1} << 16,
                        "balance:uniform-ops efrb")
                        .mops()),
         Table::fmt(efrb::bench::run_fixed_ops_cell<Chromatic>(
                        kUniformOps, t, std::uint64_t{1} << 16,
                        "balance:uniform-ops chromatic")
                        .mops())});
  }
  ops.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  efrb::bench::metrics().init("bench_throughput", argc, argv);
  efrb::bench::print_header(
      "E1: throughput vs threads (Mops/s)",
      "Paper expectation (§1/§3): the non-blocking tree sustains throughput\n"
      "as threads grow, lookups never block, and coarse locks collapse under\n"
      "update load. NOTE: single-CPU host — thread counts measure behaviour\n"
      "under oversubscription (lock convoys vs helping), not parallelism.");

  const std::vector<std::size_t> threads = {1, 2, 4, 8};
  for (const OpMix mix :
       {efrb::kReadOnly, efrb::kBalanced, efrb::kUpdateHeavy}) {
    for (const std::uint64_t range : {std::uint64_t{1} << 10,
                                      std::uint64_t{1} << 20}) {
      run_grid(mix, range, threads);
    }
  }
  run_handle_ablation(threads);
  run_balance_grid(threads);
  return efrb::bench::metrics().finish() ? 0 : 1;
}
