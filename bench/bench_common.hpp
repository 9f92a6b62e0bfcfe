// Shared plumbing for the experiment binaries (E1-E5): run a workload cell
// against a named implementation and format rows. Durations are deliberately
// short by default so the full `for b in build/bench/*` sweep finishes in
// minutes; set EFRB_BENCH_MS to lengthen each cell for lower variance.
//
// Every bench binary also accepts `--json <path>` (parsed by init()): when
// given, cells measured through run_cell()/add_cell() are accumulated into a
// schema-versioned metrics document (obs/metrics.hpp) written by finish() —
// the machinery behind the repo-root BENCH_*.json trajectory files (see
// scripts/bench_json.sh).
//
// EFRB_BENCH_SEED pins every cell's workload seed (run_cell applies it over
// the config's default), so two bench invocations sample identical op/key
// streams — the reproducibility knob scripts/bench_json.sh sets when
// regenerating the trajectory files.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/report.hpp"
#include "workload/runner.hpp"

namespace efrb::bench {

inline std::chrono::milliseconds cell_duration() {
  if (const char* ms = std::getenv("EFRB_BENCH_MS")) {
    return std::chrono::milliseconds(std::max(10L, std::atol(ms)));
  }
  return std::chrono::milliseconds(120);
}

/// EFRB_BENCH_SEED override, else `fallback` (the config's own seed).
inline std::uint64_t bench_seed(std::uint64_t fallback) {
  if (const char* s = std::getenv("EFRB_BENCH_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return fallback;
}

/// Process-wide metrics accumulator behind the shared --json flag.
/// Inactive (all no-ops) until init() sees the flag; thereafter add_cell()
/// appends to the document and finish() writes the file.
/// Single-threaded use from bench main() flows only.
class MetricsSink {
 public:
  /// Parse `--json <path>` out of argv (the only argument recognized here;
  /// everything else is left to the caller).
  void init(const char* tool, int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) path_ = argv[i + 1];
    }
    if (!path_.empty()) doc_.emplace(tool);
  }

  bool enabled() const noexcept { return doc_.has_value(); }

  void add_cell(std::string_view name, const WorkloadConfig& cfg,
                const WorkloadResult& res, const TreeStats* stats = nullptr,
                const ReclaimGauges* gauges = nullptr,
                const LatencySamples* latency = nullptr) {
    if (doc_) doc_->add_cell(name, cfg, res, stats, gauges, latency);
  }

  /// Write the document. Call once, at the end of main(); returns false on
  /// an I/O failure (also reported on stderr).
  bool finish() {
    if (!doc_) return true;
    const bool wrote = doc_->write(path_);
    std::fprintf(wrote ? stdout : stderr, "metrics: %s %s\n",
                 wrote ? "wrote" : "FAILED to write", path_.c_str());
    doc_.reset();
    return wrote;
  }

 private:
  std::string path_;
  std::optional<obs::MetricsDocument> doc_;
};

inline MetricsSink& metrics() {
  static MetricsSink sink;
  return sink;
}

/// Measures one (implementation, config) cell: fresh instance, prefill, run.
/// When `name` is non-null and --json is active, the cell is recorded into
/// the metrics document, with protocol stats and reclaimer gauges attached
/// when the structure exposes them.
template <typename Set>
WorkloadResult run_cell(const WorkloadConfig& base_cfg,
                        const char* name = nullptr) {
  WorkloadConfig cfg = base_cfg;
  cfg.seed = bench_seed(cfg.seed);
  Set set;
  prefill(set, cfg.key_range, cfg.prefill_fraction, cfg.seed);
  const WorkloadResult res = run_workload(set, cfg);
  if (name != nullptr && metrics().enabled()) {
    TreeStats stats;
    const TreeStats* stats_p = nullptr;
    if constexpr (requires { set.stats_snapshot(); }) {
      stats = set.stats_snapshot();
      stats_p = &stats;
    }
    ReclaimGauges gauges;
    const ReclaimGauges* gauges_p = nullptr;
    if constexpr (requires { set.reclaimer().gauges(); }) {
      gauges = set.reclaimer().gauges();
      gauges_p = &gauges;
    }
    metrics().add_cell(name, cfg, res, stats_p, gauges_p);
  }
  return res;
}

/// Fixed-op-count mixed run on an existing (already prefilled) structure:
/// every invocation with the same (ops, threads, range, seed) performs the
/// IDENTICAL operation/key stream, so ops/sec ratios between two structures
/// compare equal work — the stable footing the check.sh A/B gates need,
/// where fixed-duration cells compare whatever the scheduler let each run
/// get through. Mix: 50% contains / 25% insert / 25% erase, uniform keys.
template <typename Set>
WorkloadResult run_fixed_ops(Set& set, std::uint64_t total_ops,
                             std::size_t threads, std::uint64_t range,
                             std::uint64_t seed) {
  const std::uint64_t per_thread = total_ops / threads;
  std::vector<WorkloadResult> per(threads);
  const auto t0 = std::chrono::steady_clock::now();
  run_threads(threads, [&](std::size_t tid) {
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + tid);
    auto h = make_handle(set);
    WorkloadResult& r = per[tid];
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      const std::uint64_t k = rng.next_below(range);
      switch (rng.next_below(4)) {
        case 0:
          ++r.inserts;
          if (h.insert(static_cast<typename Set::key_type>(k))) ++r.ok_inserts;
          break;
        case 1:
          ++r.erases;
          if (h.erase(static_cast<typename Set::key_type>(k))) ++r.ok_erases;
          break;
        default:
          ++r.finds;
          if (h.contains(static_cast<typename Set::key_type>(k))) ++r.ok_finds;
      }
    }
  });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  WorkloadResult total;
  for (const WorkloadResult& r : per) {
    total.finds += r.finds;
    total.inserts += r.inserts;
    total.erases += r.erases;
    total.ok_finds += r.ok_finds;
    total.ok_inserts += r.ok_inserts;
    total.ok_erases += r.ok_erases;
  }
  total.seconds = seconds;
  return total;
}

/// run_fixed_ops over a fresh prefilled instance, recorded as a named cell
/// (the fixed-op sibling of run_cell). EFRB_BENCH_SEED pins the stream.
template <typename Set>
WorkloadResult run_fixed_ops_cell(std::uint64_t total_ops, std::size_t threads,
                                  std::uint64_t range, const char* name) {
  const std::uint64_t seed = bench_seed(42);
  Set set;
  prefill(set, range, 0.5, seed);
  const WorkloadResult res =
      run_fixed_ops(set, total_ops, threads, range, seed);
  if (name != nullptr && metrics().enabled()) {
    WorkloadConfig cfg;
    cfg.threads = threads;
    cfg.key_range = range;
    cfg.mix = kBalanced;
    cfg.seed = seed;
    TreeStats stats;
    const TreeStats* stats_p = nullptr;
    if constexpr (requires { set.stats_snapshot(); }) {
      stats = set.stats_snapshot();
      stats_p = &stats;
    }
    metrics().add_cell(name, cfg, res, stats_p);
  }
  return res;
}

inline std::string human_range(std::uint64_t range) {
  char buf[32];
  if (range >= (1u << 20) && range % (1u << 20) == 0) {
    std::snprintf(buf, sizeof(buf), "2^%d", 20 + __builtin_ctzll(range >> 20));
  } else if (range >= 1024 && range % 1024 == 0 &&
             (range & (range - 1)) == 0) {
    std::snprintf(buf, sizeof(buf), "2^%d", __builtin_ctzll(range));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(range));
  }
  return buf;
}

inline void print_header(const char* experiment, const char* description) {
  std::printf("\n=== %s ===\n%s\n", experiment, description);
  std::printf("cell duration: %lld ms%s\n\n",
              static_cast<long long>(cell_duration().count()),
              std::getenv("EFRB_BENCH_MS") ? " (EFRB_BENCH_MS)" : "");
}

}  // namespace efrb::bench
