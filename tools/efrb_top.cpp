// efrb_top — a live terminal dashboard over the continuous-telemetry layer.
//
// Runs a configurable workload on a heatmap-instrumented EFRB tree in a
// background thread while the main thread re-renders, once per interval, the
// picture the obs layer maintains anyway: windowed rates from the attached
// MetricsPoller (ops/s, CAS-failure rate, helps/s, backlog slope), the
// reclaimer gauges, and the key-space contention strip from the KeyHeatmap.
// Think `top`, but the processes are protocol steps.
//
// Live mode switches to the terminal's alternate screen, hides the cursor,
// and redraws once per --interval until --ms elapses; on any exit — normal,
// SIGINT, SIGTERM — the terminal is restored (alternate screen left, cursor
// shown) so a Ctrl-C never strands the shell on a blank scrollback-less
// screen. The parting protocol-step table prints on the normal screen.
// `--once` renders exactly one plain frame after the run finishes — no
// escape codes, no signal handlers, no timing dependence — which is what
// scripts/check.sh drives headlessly in CI.
//
// The dashboard also carries the liveness surface (PR 9): a causal help
// summary (who is helping whom, from obs/causal.hpp) and the watchdog's
// stalled-operation rows (obs/watchdog.hpp).
//
// PR 10 adds two rows: `latency` (per-op p50/p99 plus the histogram
// saturated counts — workers merge samples at join, so live frames show a
// collecting placeholder) and `profile` (phase-attributed cycles/op from
// obs/profile.hpp, with per-phase shares and the on-CPU / preempted split
// on the final frame).
//
// Usage: efrb_top [--ms N] [--interval N] [--threads N] [--range N]
//                 [--mix read|mostly|balanced|update] [--uniform] [--once]
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/efrb_tree.hpp"
#include "obs/causal.hpp"
#include "obs/heatmap.hpp"
#include "obs/instruments.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "workload/report.hpp"
#include "workload/runner.hpp"

namespace {

using Key = std::uint64_t;

/// Heatmap + causal help attribution + phase profiling: the tree hands each
/// event to the Instruments run_top attaches. kCausalTrace (on in ObsTraits)
/// also gives every handle a progress slot, the watchdog's sampling surface.
using TopTree = efrb::EfrbTreeSet<Key, std::less<Key>, efrb::EpochReclaimer,
                                  efrb::obs::ObsTraits>;

struct Options {
  long ms = 2000;
  long interval_ms = 200;
  std::size_t threads = 4;
  std::uint64_t range = 1 << 12;
  efrb::OpMix mix = efrb::kUpdateHeavy;
  const char* mix_label = "update";
  bool zipf = true;
  bool once = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "efrb_top: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--ms") == 0) {
      opt.ms = std::atol(next());
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      opt.interval_ms = std::atol(next());
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opt.threads = static_cast<std::size_t>(std::atol(next()));
    } else if (std::strcmp(argv[i], "--range") == 0) {
      opt.range = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--mix") == 0) {
      const char* m = next();
      opt.mix_label = m;
      if (std::strcmp(m, "read") == 0) {
        opt.mix = efrb::kReadOnly;
      } else if (std::strcmp(m, "mostly") == 0) {
        opt.mix = efrb::kReadMostly;
      } else if (std::strcmp(m, "balanced") == 0) {
        opt.mix = efrb::kBalanced;
      } else if (std::strcmp(m, "update") == 0) {
        opt.mix = efrb::kUpdateHeavy;
      } else {
        std::fprintf(stderr, "efrb_top: unknown mix '%s'\n", m);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--uniform") == 0) {
      opt.zipf = false;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      opt.once = true;
    } else {
      std::fprintf(stderr,
                   "usage: efrb_top [--ms N] [--interval N] [--threads N] "
                   "[--range N] [--mix read|mostly|balanced|update] "
                   "[--uniform] [--once]\n");
      std::exit(2);
    }
  }
  return opt;
}

// --- terminal state management (live mode only) ---------------------------
//
// Live mode runs on the alternate screen. The restore sequence must reach
// the terminal on EVERY exit path — normal return, SIGINT (Ctrl-C), SIGTERM
// — or the user's shell is left on a blank alternate screen with a hidden
// cursor. The signal handler uses only write(2) (async-signal-safe) and
// _exit; 128+signo is the conventional killed-by-signal exit status.

constexpr char kEnterAltScreen[] = "\x1b[?1049h\x1b[?25l";  // alt + hide cursor
constexpr char kLeaveAltScreen[] = "\x1b[?1049l\x1b[?25h";  // back + show

void restore_terminal_on_signal(int sig) {
  // NOLINTNEXTLINE(cppcoreguidelines-pro-bounds-array-to-pointer-decay)
  ::write(STDOUT_FILENO, kLeaveAltScreen, sizeof(kLeaveAltScreen) - 1);
  ::_exit(128 + sig);
}

void enter_live_screen() {
  struct sigaction sa {};
  sa.sa_handler = &restore_terminal_on_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  std::fputs(kEnterAltScreen, stdout);
  std::fflush(stdout);
}

void leave_live_screen() {
  std::fputs(kLeaveAltScreen, stdout);
  std::fflush(stdout);
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
}

/// Causal + watchdog rows under the common frame: who is helping whom and
/// which in-flight ops the watchdog currently flags as stalled.
void render_liveness(const efrb::obs::CausalRegistry& causal,
                     const efrb::obs::LivenessWatchdog& watchdog) {
  // The busiest helper->owner pair, as a one-line summary.
  unsigned best_h = 0;
  unsigned best_o = 0;
  std::uint64_t best_n = 0;
  for (unsigned h = 0; h < causal.max_tids(); ++h) {
    if (causal.helps_given(h) == 0) continue;
    for (unsigned o = 0; o < causal.max_tids(); ++o) {
      const std::uint64_t n = causal.helped_by(h, o);
      if (n > best_n) {
        best_n = n;
        best_h = h;
        best_o = o;
      }
    }
  }
  std::printf("causal   %llu helps attributed (%llu unattributed)",
              static_cast<unsigned long long>(causal.total_helps()),
              static_cast<unsigned long long>(causal.dropped_unattributed()));
  if (best_n > 0) {
    std::printf("  top: tid %u helped tid %u x%llu", best_h, best_o,
                static_cast<unsigned long long>(best_n));
  }
  std::printf("\n");

  const efrb::obs::StallReport rep = watchdog.report();
  std::printf("stalls   %zu flagged now, %llu events total "
              "(budget: %llu retries / %.0f ms)\n",
              rep.stalled.size(),
              static_cast<unsigned long long>(rep.stall_events_total),
              static_cast<unsigned long long>(watchdog.budget().retries),
              static_cast<double>(watchdog.budget().wall_ns) / 1e6);
  for (const efrb::obs::StallEntry& e : rep.stalled) {
    std::printf("         tid %-3u key=%llu age=%.1f ms retries=%llu "
                "step=%s depth=%u\n",
                e.tid, static_cast<unsigned long long>(e.op_key),
                static_cast<double>(e.age_ns) / 1e6,
                static_cast<unsigned long long>(e.retries),
                e.last_step == efrb::kNoStep
                    ? "(none)"
                    : efrb::to_string(static_cast<efrb::CasStep>(e.last_step)),
                e.help_depth);
  }
}

/// Latency row: per-op p50/p99 plus the saturated counts that tell a
/// clamped tail from a measured one. Workers record into private sample
/// sets that merge into `lat` only at join, so live frames pass
/// `collecting=true` and show a placeholder until the final frame.
void render_latency(const efrb::LatencySamples& lat, bool collecting) {
  if (collecting) {
    std::printf("latency  (collecting — merged at end of run)\n");
    return;
  }
  std::printf("latency  find p50=%llu p99=%llu  insert p50=%llu p99=%llu  "
              "erase p50=%llu p99=%llu ns  saturated=%llu/%llu/%llu\n",
              static_cast<unsigned long long>(lat.find.percentile(50)),
              static_cast<unsigned long long>(lat.find.percentile(99)),
              static_cast<unsigned long long>(lat.insert.percentile(50)),
              static_cast<unsigned long long>(lat.insert.percentile(99)),
              static_cast<unsigned long long>(lat.erase.percentile(50)),
              static_cast<unsigned long long>(lat.erase.percentile(99)),
              static_cast<unsigned long long>(lat.find.saturated()),
              static_cast<unsigned long long>(lat.insert.saturated()),
              static_cast<unsigned long long>(lat.erase.saturated()));
}

/// Profile row: where the cycles go, by protocol phase. Live frames read
/// the profiler's relaxed running totals, which are wall ticks; the final
/// frame renders the full snapshot: on-CPU cycles per op, the on-CPU and
/// preempted shares of the in-op time, and the per-phase shares.
void render_profile(const efrb::obs::PhaseProfiler& profiler, bool live) {
  if (live) {
    std::printf("profile  %llu ops, %llu wall ticks in ops (live)\n",
                static_cast<unsigned long long>(profiler.live_ops()),
                static_cast<unsigned long long>(profiler.live_cycles()));
    return;
  }
  const efrb::obs::ProfileSnapshot s = profiler.snapshot();
  std::printf("profile  %llu ops, %.1f %s/op on-CPU, on-CPU %.1f%% "
              "preempted %.1f%%\n",
              static_cast<unsigned long long>(s.ops), s.cycles_per_op(),
              s.source.c_str(), 100.0 * (1.0 - s.preempted_share()),
              100.0 * s.preempted_share());
  std::printf("         ");
  for (std::size_t i = 0; i < efrb::kNumPhases; ++i) {
    std::printf("%s %.1f%%%s", efrb::to_string(static_cast<efrb::Phase>(i)),
                100.0 * s.phase_share(i),
                i + 1 < efrb::kNumPhases ? "  " : "\n");
  }
}

/// One dashboard frame from the current poller/heatmap/gauge state. The
/// same renderer serves the live loop and the --once snapshot; only the
/// screen-clearing differs.
void render_frame(const Options& opt, const efrb::obs::MetricsPoller& poller,
                  const efrb::obs::KeyHeatmap& heatmap,
                  const efrb::ReclaimGauges& gauges, bool live) {
  if (live) std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home

  std::printf("efrb_top — efrb-tree  threads=%zu  range=%llu  mix=%s  %s\n\n",
              opt.threads, static_cast<unsigned long long>(opt.range),
              opt.mix_label, opt.zipf ? "zipf" : "uniform");

  const std::vector<efrb::obs::WindowRates> rates = poller.rates();
  efrb::Table t({"t (s)", "ops/s", "cas fail %", "helps/s", "retries/s",
                 "retired/s", "freed/s", "backlog slope"});
  // The latest handful of windows, newest last — enough to see a trend
  // without scrolling the terminal.
  const std::size_t kShow = 8;
  const std::size_t from = rates.size() > kShow ? rates.size() - kShow : 0;
  for (std::size_t i = from; i < rates.size(); ++i) {
    const efrb::obs::WindowRates& r = rates[i];
    t.add_row({efrb::Table::fmt(static_cast<double>(r.t_ns) / 1e9),
               efrb::Table::fmt(r.ops_per_s, 0),
               efrb::Table::fmt(100.0 * r.cas_failure_rate),
               efrb::Table::fmt(r.helps_per_s, 0),
               efrb::Table::fmt(r.retries_per_s, 0),
               efrb::Table::fmt(r.retired_per_s, 0),
               efrb::Table::fmt(r.freed_per_s, 0),
               efrb::Table::fmt(r.backlog_slope, 0)});
  }
  if (rates.empty()) {
    t.add_row({"-", "-", "-", "-", "-", "-", "-", "-"});
  }
  t.print();

  const std::vector<efrb::obs::HeatBucket> buckets = heatmap.snapshot();
  std::uint64_t contended = 0;
  std::uint64_t attempts = 0;
  for (const efrb::obs::HeatBucket& b : buckets) {
    contended += b.contended();
    attempts += b.attempts;
  }
  std::printf("\nheatmap  [%s]  (%llu contended / %llu attempts, "
              "%llu unattributed)\n",
              heatmap.strip(buckets).c_str(),
              static_cast<unsigned long long>(contended),
              static_cast<unsigned long long>(attempts),
              static_cast<unsigned long long>(heatmap.dropped()));
  std::printf("reclaim  retired=%llu freed=%llu backlog=%llu orphans=%llu "
              "epoch=%llu\n",
              static_cast<unsigned long long>(gauges.retired_total),
              static_cast<unsigned long long>(gauges.freed_total),
              static_cast<unsigned long long>(gauges.backlog()),
              static_cast<unsigned long long>(gauges.orphan_depth),
              static_cast<unsigned long long>(gauges.epoch));
  std::fflush(stdout);
}

/// One dashboard run over `tree`: background workload, live redraw loop,
/// final frame + protocol summary.
int run_top(const Options& opt, TopTree& tree,
            efrb::obs::CausalRegistry& causal,
            efrb::obs::LivenessWatchdog& watchdog) {
  efrb::WorkloadConfig cfg;
  cfg.threads = opt.threads;
  cfg.key_range = opt.range;
  cfg.mix = opt.mix;
  cfg.zipf = opt.zipf;
  cfg.duration = std::chrono::milliseconds(std::max(10L, opt.ms));

  efrb::obs::KeyHeatmap heatmap(cfg.key_range);
  efrb::obs::PhaseProfiler profiler;
  efrb::LatencySamples latency;
  efrb::obs::MetricsPoller poller(
      std::chrono::milliseconds(std::max(1L, opt.interval_ms)));
  efrb::obs::Instruments instruments{.heatmap = &heatmap,
                                     .causal = &causal,
                                     .latency = &latency,
                                     .poller = &poller};
  efrb::obs::ObsTraits::attach(&instruments);
  efrb::prefill(tree, cfg.key_range, cfg.prefill_fraction, cfg.seed);

  // Phase profiler attached after prefill so the profile row describes the
  // measured window only; latency sampling feeds the p50/p99 + saturated
  // row (workers record privately; run_workload merges at join).
  instruments.profiler = &profiler;

  poller.set_sources({
      {},  // ops source is wired by run_workload
      [&tree] { return tree.stats(); },
      [&tree] { return tree.reclaimer().gauges(); },
  });

  watchdog.start();

  std::atomic<bool> done{false};
  efrb::WorkloadResult result;
  std::thread worker([&] {
    result = efrb::run_workload(tree, cfg, &instruments);
    done.store(true, std::memory_order_release);
  });

  if (!opt.once) {
    enter_live_screen();
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1L, opt.interval_ms)));
      render_frame(opt, poller, heatmap, tree.reclaimer().gauges(), true);
      render_latency(latency, /*collecting=*/true);
      render_profile(profiler, /*live=*/true);
      render_liveness(causal, watchdog);
    }
    leave_live_screen();
  }
  worker.join();
  watchdog.stop();
  efrb::obs::ObsTraits::detach();

  // Final (or only, with --once) frame from the completed run, plus the
  // protocol-step summary — on the normal screen, so it survives in
  // scrollback after a live session.
  render_frame(opt, poller, heatmap, tree.reclaimer().gauges(), false);
  render_latency(latency, /*collecting=*/false);
  render_profile(profiler, /*live=*/false);
  render_liveness(causal, watchdog);
  std::printf("\n%llu ops in %.2f s (%.2f Mops/s), %llu poller samples\n\n",
              static_cast<unsigned long long>(result.total_ops()),
              result.seconds, result.mops(),
              static_cast<unsigned long long>(poller.samples_pushed()));
  efrb::protocol_step_table(tree.stats()).print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  TopTree tree;
  efrb::obs::CausalRegistry causal;
  efrb::obs::LivenessWatchdog watchdog(
      tree.progress_table(), efrb::obs::WatchdogBudget{},
      std::chrono::milliseconds(std::max(1L, opt.interval_ms)));
  return run_top(opt, tree, causal, watchdog);
}
