// Experiment E4 — reclamation-policy ablation. The paper's algorithm assumes
// GC; this bench quantifies what the C++ substitutes cost:
//   * leaky      — the paper's model (never free): zero reclamation overhead,
//                  unbounded memory; the upper bound on throughput.
//   * epoch      — the default: pin/unpin per op + batched sweeps.
//   * epoch-small— retire_batch=8: more frequent epoch scans (worst case).
//   * hazard     — grace-round reclamation (coarse per-thread hazard seq).
// Also reports objects freed, to show the reclaiming policies actually do.
#include <cstdio>

#include "bench_common.hpp"
#include "core/efrb_tree.hpp"
#include "reclaim/hazard.hpp"
#include "workload/report.hpp"

namespace {

using Key = std::uint64_t;
using efrb::Table;
using efrb::WorkloadConfig;

WorkloadConfig config() {
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.key_range = 1 << 16;
  cfg.mix = efrb::kUpdateHeavy;
  cfg.duration = efrb::bench::cell_duration();
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  efrb::bench::metrics().init("bench_reclaim", argc, argv);
  efrb::bench::print_header(
      "E4: reclamation ablation (4 threads, 50i/50d, range 2^16)",
      "Expected shape: leaky is the ceiling; epoch costs a modest constant\n"
      "factor (one announcement store + fence per op, amortized sweeps);\n"
      "shrinking the retire batch raises sweep frequency and cost.");

  Table table({"policy", "Mops/s", "objects freed"});

  {
    efrb::EfrbTreeSet<Key, std::less<Key>, efrb::LeakyReclaimer> t;
    efrb::prefill(t, config().key_range, 0.5, config().seed);
    const auto r = efrb::run_workload(t, config());
    const auto g = t.reclaimer().gauges();
    efrb::bench::metrics().add_cell("leaky", config(), r, nullptr, &g);
    table.add_row({"leaky (paper model)", Table::fmt(r.mops()), "0"});
  }
  {
    efrb::EfrbTreeSet<Key> t;  // default EpochReclaimer(64, 256)
    efrb::prefill(t, config().key_range, 0.5, config().seed);
    const auto r = efrb::run_workload(t, config());
    const auto g = t.reclaimer().gauges();
    efrb::bench::metrics().add_cell("epoch-batch-256", config(), r, nullptr,
                                    &g);
    table.add_row({"epoch (batch 256)", Table::fmt(r.mops()),
                   std::to_string(t.reclaimer().freed_count())});
  }
  {
    efrb::EfrbTreeSet<Key> t(std::less<Key>{}, efrb::EpochReclaimer(64, 8));
    efrb::prefill(t, config().key_range, 0.5, config().seed);
    const auto r = efrb::run_workload(t, config());
    const auto g = t.reclaimer().gauges();
    efrb::bench::metrics().add_cell("epoch-batch-8", config(), r, nullptr, &g);
    table.add_row({"epoch (batch 8)", Table::fmt(r.mops()),
                   std::to_string(t.reclaimer().freed_count())});
  }
  {
    efrb::EfrbTreeSet<Key> t(std::less<Key>{}, efrb::EpochReclaimer(64, 512));
    efrb::prefill(t, config().key_range, 0.5, config().seed);
    const auto r = efrb::run_workload(t, config());
    const auto g = t.reclaimer().gauges();
    efrb::bench::metrics().add_cell("epoch-batch-512", config(), r, nullptr,
                                    &g);
    table.add_row({"epoch (batch 512)", Table::fmt(r.mops()),
                   std::to_string(t.reclaimer().freed_count())});
  }
  {
    efrb::EfrbTreeSet<Key, std::less<Key>, efrb::HazardReclaimer> t;
    efrb::prefill(t, config().key_range, 0.5, config().seed);
    const auto r = efrb::run_workload(t, config());
    const auto g = t.reclaimer().gauges();
    efrb::bench::metrics().add_cell("hazard", config(), r, nullptr, &g);
    table.add_row({"hazard (grace rounds)", Table::fmt(r.mops()),
                   std::to_string(t.reclaimer().freed_count())});
  }
  table.print();
  return efrb::bench::metrics().finish() ? 0 : 1;
}
