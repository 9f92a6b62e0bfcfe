// Experiment E6 — single-operation latency (google-benchmark): Find, Insert
// and Delete cost on prefilled trees of growing size, for the EFRB tree and
// the sequential-cost reference points (std::set and the coarse-locked BST).
// The expected shape is logarithmic growth in tree size for all of them — the
// §6 observation that randomly built BSTs have expected logarithmic depth —
// with the EFRB constant factor covering atomics + epoch pin.
#include <benchmark/benchmark.h>

#include <cstring>
#include <set>
#include <vector>

#include "baselines/coarse_bst.hpp"
#include "bench_common.hpp"
#include "core/efrb_tree.hpp"
#include "util/rng.hpp"
#include "workload/op_mix.hpp"

namespace {

using Key = std::uint64_t;

template <typename Set>
void fill_random(Set& s, std::int64_t n, std::uint64_t seed) {
  efrb::Xoshiro256 rng(seed);
  std::int64_t inserted = 0;
  while (inserted < n) {
    if (s.insert(rng.next() >> 1)) ++inserted;
  }
}

void BM_EfrbFind(benchmark::State& state) {
  efrb::EfrbTreeSet<Key> t;
  fill_random(t, state.range(0), 42);
  auto h = t.handle();  // measured loops use the per-thread handle path
  efrb::Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.contains(rng.next() >> 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EfrbFind)->Range(1 << 8, 1 << 18)->Complexity(benchmark::oLogN);

void BM_EfrbInsertErase(benchmark::State& state) {
  efrb::EfrbTreeSet<Key> t;
  fill_random(t, state.range(0), 42);
  auto h = t.handle();
  efrb::Xoshiro256 rng(7);
  for (auto _ : state) {
    const Key k = rng.next() >> 1;
    benchmark::DoNotOptimize(h.insert(k));
    benchmark::DoNotOptimize(h.erase(k));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EfrbInsertErase)
    ->Range(1 << 8, 1 << 18)
    ->Complexity(benchmark::oLogN);

void BM_StdSetFind(benchmark::State& state) {
  struct Wrapper {
    std::set<Key> s;
    bool insert(Key k) { return s.insert(k).second; }
  } t;
  fill_random(t, state.range(0), 42);
  efrb::Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.s.count(rng.next() >> 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StdSetFind)->Range(1 << 8, 1 << 18)->Complexity(benchmark::oLogN);

void BM_CoarseLockFind(benchmark::State& state) {
  efrb::CoarseLockBst<Key> t;
  fill_random(t, state.range(0), 42);
  efrb::Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.contains(rng.next() >> 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CoarseLockFind)
    ->Range(1 << 8, 1 << 18)
    ->Complexity(benchmark::oLogN);

void BM_EfrbMinKey(benchmark::State& state) {
  efrb::EfrbTreeSet<Key> t;
  fill_random(t, state.range(0), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.min_key());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EfrbMinKey)->Range(1 << 8, 1 << 16)->Complexity(benchmark::oLogN);

}  // namespace

int main(int argc, char** argv) {
  efrb::bench::metrics().init("bench_latency", argc, argv);
  // Strip `--json <path>` before handing argv to google-benchmark, whose
  // flag parser rejects arguments it does not recognize.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The loops above measure single-thread cost; when --json is active, also
  // run instrumented concurrent cells so the document carries full latency
  // histograms (per-op-type plus the retried-ops distribution).
  if (efrb::bench::metrics().enabled()) {
    struct MixCell {
      const char* name;
      efrb::OpMix mix;
    };
    const MixCell cells[] = {{"efrb-tree/balanced", efrb::kBalanced},
                             {"efrb-tree/update-heavy", efrb::kUpdateHeavy}};
    for (const MixCell& c : cells) {
      efrb::EfrbTreeSet<Key> t;
      efrb::WorkloadConfig cfg;
      cfg.threads = 4;
      cfg.key_range = 1 << 16;
      cfg.mix = c.mix;
      cfg.duration = efrb::bench::cell_duration();
      efrb::prefill(t, cfg.key_range, cfg.prefill_fraction, cfg.seed);
      efrb::LatencySamples lat;
      const efrb::obs::Instruments instruments{.latency = &lat};
      const auto r = efrb::run_workload(t, cfg, &instruments);
      const auto g = t.reclaimer().gauges();
      efrb::bench::metrics().add_cell(c.name, cfg, r, nullptr, &g, &lat);
    }
  }
  return efrb::bench::metrics().finish() ? 0 : 1;
}
