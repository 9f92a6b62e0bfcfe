// Observability probe: runs a short instrumented workload on a fully
// instrumented EFRB tree (trace + heatmap + causal help attribution +
// liveness watchdog + flight recorder) and writes every machine-readable
// artifact the obs layer produces:
//   * a schema-versioned metrics document (obs/metrics.hpp, v5 — includes
//     the "causality" and "watchdog" sections and the self/helper-completed
//     latency split),
//   * a Chrome trace-event JSON with help-flow arrows (obs/causal.hpp),
//   * a flight-recorder dump of the trace rings via --flight (decodable
//     with efrb_postmortem).
// CI (scripts/check.sh) runs this and validates the files; --abort makes
// the probe kill itself mid-flight after the workload so the check's
// postmortem stage can assert the crash dump path works end to end.
//
// Usage: obs_probe [--metrics <path>] [--trace <path>] [--flight <path>]
//                  [--abort] [--profile]
//                  [--ms N | --duration N] [--interval N] [--threads N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/efrb_tree.hpp"
#include "obs/causal.hpp"
#include "obs/flightrec.hpp"
#include "obs/heatmap.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "workload/runner.hpp"

namespace {

using Key = std::uint64_t;

/// Every obs consumer in one instrumented run: the tree hands each event to
/// the Instruments attached in main(), which fans it out to all of them.
using ProbedTree = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                     efrb::obs::ObsTraits>;

struct Options {
  std::string metrics_path = "obs_metrics.json";
  std::string trace_path = "obs_trace.json";
  std::string flight_path;  // empty = no flight dump
  bool abort_after_run = false;
  bool profile = false;  // attach the phase profiler
  long ms = 50;
  long interval_ms = 10;
  std::size_t threads = 4;
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obs_probe: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--metrics") == 0) {
      opt.metrics_path = next();
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace_path = next();
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      opt.flight_path = next();
    } else if (std::strcmp(argv[i], "--abort") == 0) {
      opt.abort_after_run = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      opt.profile = true;
    } else if (std::strcmp(argv[i], "--ms") == 0 ||
               std::strcmp(argv[i], "--duration") == 0) {
      opt.ms = std::atol(next());
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      opt.interval_ms = std::atol(next());
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opt.threads = static_cast<std::size_t>(std::atol(next()));
    } else {
      std::fprintf(
          stderr,
          "usage: obs_probe [--metrics <path>] [--trace <path>] "
          "[--flight <path>] [--abort] [--profile] "
          "[--ms N | --duration N] [--interval N] [--threads N]\n");
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  efrb::WorkloadConfig cfg;
  cfg.threads = opt.threads;
  cfg.key_range = 1 << 12;  // small range so helping/retries actually fire
  cfg.mix = efrb::kUpdateHeavy;
  cfg.zipf = true;  // localized contention: the heatmap has something to show
  cfg.duration = std::chrono::milliseconds(std::max(10L, opt.ms));

  efrb::obs::TraceRegistry registry;
  efrb::obs::KeyHeatmap heatmap(cfg.key_range);
  efrb::obs::CausalRegistry causal(registry.max_tids(), &registry);
  efrb::obs::FlightRecorder flight(registry);
  efrb::obs::PhaseProfiler profiler;
  efrb::LatencySamples latency;
  efrb::obs::MetricsPoller poller(
      std::chrono::milliseconds(std::max(1L, opt.interval_ms)));
  efrb::obs::Instruments instruments{.trace = &registry,
                                     .heatmap = &heatmap,
                                     .causal = &causal,
                                     .latency = &latency,
                                     .poller = &poller};
  efrb::obs::ObsTraits::attach(&instruments);
  if (opt.abort_after_run && !opt.flight_path.empty()) {
    efrb::obs::install_flight_handler(&flight, opt.flight_path.c_str());
  }

  ProbedTree tree;
  efrb::prefill(tree, cfg.key_range, cfg.prefill_fraction, cfg.seed);

  // Attached after prefill so the profiler's events_outside_op count
  // describes only the measured window (the runner opens the op windows).
  if (opt.profile) instruments.profiler = &profiler;

  // Live gauge mirrors for the flight recorder: ReclaimGauges is a snapshot
  // struct, so the poller's gauge source refreshes these atomics each
  // interval — a crash dump then carries last-poll reclaimer state.
  static std::atomic<std::uint64_t> live_retired{0};
  static std::atomic<std::uint64_t> live_freed{0};
  static std::atomic<std::uint64_t> live_backlog{0};
  flight.add_gauge("reclaim_retired", &live_retired);
  flight.add_gauge("reclaim_freed", &live_freed);
  flight.add_gauge("reclaim_backlog", &live_backlog);
  // Profile mirror: last-poll profiler totals, so a crash dump decoded by
  // efrb_postmortem shows the counter state at crash time.
  static std::atomic<std::uint64_t> live_profile_ops{0};
  static std::atomic<std::uint64_t> live_profile_cycles{0};
  if (opt.profile) {
    flight.add_gauge("profile_ops", &live_profile_ops);
    flight.add_gauge("profile_cycles", &live_profile_cycles);
  }
  flight.attach_progress(&tree.progress_table());

  poller.set_sources({
      {},  // ops source is wired by run_workload
      [&tree] { return tree.stats(); },
      [&tree, &profiler, profile = opt.profile] {
        const efrb::ReclaimGauges g = tree.reclaimer().gauges();
        live_retired.store(g.retired_total, std::memory_order_relaxed);
        live_freed.store(g.freed_total, std::memory_order_relaxed);
        live_backlog.store(g.backlog(), std::memory_order_relaxed);
        if (profile) {
          live_profile_ops.store(profiler.live_ops(),
                                 std::memory_order_relaxed);
          live_profile_cycles.store(profiler.live_cycles(),
                                    std::memory_order_relaxed);
        }
        return g;
      },
  });

  efrb::obs::LivenessWatchdog watchdog(
      tree.progress_table(), efrb::obs::WatchdogBudget{},
      std::chrono::milliseconds(std::max(1L, opt.interval_ms)));
  watchdog.start();

  const efrb::WorkloadResult result =
      efrb::run_workload(tree, cfg, &instruments);

  watchdog.stop();

  if (opt.abort_after_run) {
    // The postmortem path: die the way a tripped EFRB_ASSERT would, leaving
    // only the flight recorder's signal-handler dump behind.
    std::fflush(stdout);
    std::abort();
  }

  efrb::obs::ObsTraits::detach();

  const efrb::TreeStats stats = tree.stats();
  const efrb::ReclaimGauges gauges = tree.reclaimer().gauges();
  const std::vector<efrb::obs::PollSample> samples = poller.samples();
  const efrb::obs::ProfileSnapshot profile = profiler.snapshot();

  efrb::obs::MetricsDocument doc("obs_probe");
  doc.add_cell("efrb-tree/probed", cfg, result, &stats, &gauges, &latency,
               &samples, &heatmap, &causal,
               opt.profile ? &profile : nullptr, &watchdog);
  if (!doc.write(opt.metrics_path)) {
    std::fprintf(stderr, "obs_probe: FAILED to write %s\n",
                 opt.metrics_path.c_str());
    return 1;
  }
  // The trace export now carries the help-flow arrows: every event the
  // TraceRegistry retained plus an s/f pair per attributed help edge.
  if (!efrb::obs::write_file(opt.trace_path,
                             causal.chrome_trace_with_flows(registry))) {
    std::fprintf(stderr, "obs_probe: FAILED to write %s\n",
                 opt.trace_path.c_str());
    return 1;
  }
  if (!opt.flight_path.empty()) {
    if (!flight.dump_to_path(opt.flight_path.c_str())) {
      std::fprintf(stderr, "obs_probe: FAILED to write %s\n",
                   opt.flight_path.c_str());
      return 1;
    }
    std::printf("obs_probe: flight  -> %s\n", opt.flight_path.c_str());
  }

  std::uint64_t events = 0;
  for (unsigned tid = 0; tid < registry.max_tids(); ++tid) {
    events += registry.snapshot(tid).size();
  }
  std::printf("obs_probe: %llu ops, %llu retained trace events "
              "(%llu recorded w/o tid), latency samples %llu\n",
              static_cast<unsigned long long>(result.total_ops()),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(registry.dropped_no_tid()),
              static_cast<unsigned long long>(latency.total_count()));
  std::printf("obs_probe: %llu poller samples (%llu dropped), heatmap [%s]\n",
              static_cast<unsigned long long>(poller.samples_pushed()),
              static_cast<unsigned long long>(poller.samples_dropped()),
              heatmap.strip().c_str());
  std::printf("obs_probe: %llu helps attributed (%llu unattributed), "
              "stall events %llu\n",
              static_cast<unsigned long long>(causal.total_helps()),
              static_cast<unsigned long long>(causal.dropped_unattributed()),
              static_cast<unsigned long long>(watchdog.stall_events_total()));
  if (opt.profile) {
    // Top phase by attributed cost, for the one-line summary.
    std::size_t top = 0;
    for (std::size_t i = 1; i < efrb::kNumPhases; ++i) {
      if (profile.phases[i].cycles > profile.phases[top].cycles) top = i;
    }
    std::printf("obs_probe: profile %llu ops, %.1f %s/op on-CPU, "
                "on-CPU %.1f%% preempted %.1f%%, top phase %s (%.1f%%)\n",
                static_cast<unsigned long long>(profile.ops),
                profile.cycles_per_op(), profile.source.c_str(),
                100.0 * (1.0 - profile.preempted_share()),
                100.0 * profile.preempted_share(),
                efrb::to_string(static_cast<efrb::Phase>(top)),
                100.0 * profile.phase_share(top));
  }
  std::printf("obs_probe: metrics -> %s\n", opt.metrics_path.c_str());
  std::printf("obs_probe: trace   -> %s\n", opt.trace_path.c_str());
  return 0;
}
