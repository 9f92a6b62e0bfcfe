// Tests for the profiling layer: the PhaseProfiler state machine driven by
// synthetic hook streams (attribution tiles the op window, helping nests,
// scopes saturate, out-of-window events are counted but never attributed),
// the on-CPU scaling by handed-in thread times, the runner integration on
// an ObsTraits-instrumented tree (including an oversubscribed run, whose
// phases must fit in the threads' CPU time), and the metrics-v5 `profile`
// cell validated by round-tripping through the JSON parser.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>

#include "core/efrb_tree.hpp"
#include "obs/instruments.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "reclaim/epoch.hpp"
#include "workload/runner.hpp"

namespace efrb {
namespace {

using obs::JsonValue;
using obs::PhaseProfiler;
using obs::ProfileSnapshot;
using obs::Instruments;
using obs::ObsTraits;

/// Burn a few thousand cycle_stamp ticks so zero-length segments cannot make
/// an assertion vacuous on a coarse clock.
void spin_a_little() {
  const std::uint64_t start = obs::cycle_stamp();
  volatile std::uint64_t sink = 0;
  while (obs::cycle_stamp() - start < 5000) sink = sink + 1;
}

/// CPU time of every thread of this process so far, in ns.
std::uint64_t process_cpu_ns() {
  timespec ts{};
  EXPECT_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts), 0);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// ------------------------------------------------------------ phase basics

TEST(PhaseTest, EveryPhaseHasAStableName) {
  EXPECT_STREQ(to_string(Phase::kDescent), "descent");
  EXPECT_STREQ(to_string(Phase::kCasProtocol), "cas_protocol");
  EXPECT_STREQ(to_string(Phase::kHelping), "helping");
  EXPECT_STREQ(to_string(Phase::kRebalanceCleanup), "rebalance_cleanup");
  EXPECT_STREQ(to_string(Phase::kReclamation), "reclamation");
  EXPECT_STREQ(to_string(Phase::kPoolAlloc), "pool_alloc");
  static_assert(kNumPhases == 6);
}

TEST(PhaseProfilerTest, CycleStampIsMonotone) {
  std::uint64_t prev = obs::cycle_stamp();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = obs::cycle_stamp();
    EXPECT_GE(now, prev);
    prev = now;
  }
  EXPECT_FALSE(std::string(obs::cycle_source()).empty());
}

// ------------------------------------------------- profiler state machine

TEST(PhaseProfilerTest, SegmentsTileTheOpWindow) {
  PhaseProfiler prof;
  prof.op_begin(0);
  spin_a_little();                       // descent
  prof.on_point(HookPoint::kAfterSearch, 0);   // -> cas_protocol
  spin_a_little();
  prof.phase(true, Phase::kPoolAlloc, 0);
  spin_a_little();
  prof.phase(false, Phase::kPoolAlloc, 0);
  spin_a_little();
  prof.op_end(0);

  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.ops, 1u);
  EXPECT_GT(s.cycles, 0u);
  // The core invariant: attributed segments tile the window, never exceed it.
  EXPECT_LE(s.phase_cycles_sum(), s.cycles);
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kDescent)].cycles, 0u);
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kCasProtocol)].cycles,
            0u);
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kPoolAlloc)].cycles, 0u);
  EXPECT_EQ(s.phases[static_cast<std::size_t>(Phase::kPoolAlloc)].enters, 1u);
  EXPECT_EQ(s.events_outside_op, 0u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_GT(s.cycles_per_op(), 0.0);
}

TEST(PhaseProfilerTest, NestedHelpingStaysHelpingUntilOutermostReturns) {
  PhaseProfiler prof;
  prof.op_begin(3);
  prof.on_point(HookPoint::kAfterSearch, 3);  // cas_protocol
  prof.on_point(HookPoint::kBeforeHelp, 3);   // helping (depth 1)
  spin_a_little();
  prof.on_point(HookPoint::kBeforeHelp, 3);   // helping (depth 2)
  spin_a_little();
  prof.on_point(HookPoint::kAfterHelp, 3);    // still helping (depth 1)
  spin_a_little();
  prof.on_point(HookPoint::kAfterHelp, 3);    // resume cas_protocol
  spin_a_little();
  prof.op_end(3);

  const ProfileSnapshot s = prof.snapshot();
  const auto& helping = s.phases[static_cast<std::size_t>(Phase::kHelping)];
  EXPECT_EQ(helping.enters, 2u);
  EXPECT_GT(helping.cycles, 0u);
  // Time after the outermost kAfterHelp went back to the op's own protocol.
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kCasProtocol)].cycles,
            0u);
  EXPECT_LE(s.phase_cycles_sum(), s.cycles);
}

TEST(PhaseProfilerTest, RetryResetsToDescent) {
  PhaseProfiler prof;
  prof.op_begin(0);
  prof.on_point(HookPoint::kAfterSearch, 0);
  prof.on_point(HookPoint::kInsertRetry, 0);  // attempt failed -> re-descent
  spin_a_little();
  prof.on_point(HookPoint::kAfterSearch, 0);
  prof.op_end(0);
  const ProfileSnapshot s = prof.snapshot();
  // Two descent enters: op_begin and the retry reset.
  EXPECT_EQ(s.phases[static_cast<std::size_t>(Phase::kDescent)].enters, 2u);
  EXPECT_EQ(s.phases[static_cast<std::size_t>(Phase::kCasProtocol)].enters,
            2u);
}

TEST(PhaseProfilerTest, EventsOutsideAWindowCountButNeverAttribute) {
  PhaseProfiler prof;
  prof.on_point(HookPoint::kAfterSearch, 0);       // no open window
  prof.phase(true, Phase::kReclamation, 0);  // ditto
  prof.op_end(0);                            // unmatched end: no-op
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.ops, 0u);
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.phase_cycles_sum(), 0u);
  EXPECT_EQ(s.events_outside_op, 2u);
}

TEST(PhaseProfilerTest, OutOfRangeTidIsDroppedNotCorrupting) {
  PhaseProfiler prof;
  prof.op_begin(PhaseProfiler::kMaxTids);  // out of range
  prof.on_point(HookPoint::kAfterSearch, PhaseProfiler::kMaxTids + 7);
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.ops, 0u);
  EXPECT_EQ(s.dropped, 2u);
}

TEST(PhaseProfilerTest, ScopeStackSaturatesAndUnmatchedExitsAreNoops) {
  PhaseProfiler prof;
  prof.op_begin(0);
  // Push past the stack bound; the deep enters saturate (no transition) and
  // the matching exits unwind without corrupting the shallow frames.
  for (int i = 0; i < PhaseProfiler::kMaxScopeDepth + 4; ++i) {
    prof.phase(true, Phase::kReclamation, 0);
  }
  for (int i = 0; i < PhaseProfiler::kMaxScopeDepth + 8; ++i) {
    prof.phase(false, Phase::kReclamation, 0);
  }
  spin_a_little();
  prof.op_end(0);
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.ops, 1u);
  EXPECT_LE(s.phase_cycles_sum(), s.cycles);
  // After the unwind the tail of the op is back in descent (the op_begin
  // phase), not stuck in reclamation.
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kDescent)].cycles, 0u);
}

TEST(PhaseProfilerTest, ResetZeroesEverything) {
  PhaseProfiler prof;
  prof.op_begin(0);
  prof.op_end(0);
  prof.on_point(HookPoint::kAfterSearch, PhaseProfiler::kMaxTids);
  prof.reset();
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.ops, 0u);
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.events_outside_op, 0u);
  EXPECT_EQ(s.phase_cycles_sum(), 0u);
}

TEST(PhaseProfilerTest, HandedInCpuTimeScalesPhasesAndFillsPreempted) {
  // One thread's synthetic op window, then cpu = wall / 2 handed in: every
  // phase halves and the other half of the in-op ticks is preempted time.
  PhaseProfiler prof;
  prof.op_begin(0);
  spin_a_little();  // descent
  prof.on_point(HookPoint::kAfterSearch, 0);
  spin_a_little();  // cas_protocol
  prof.phase(true, Phase::kReclamation, 0);
  spin_a_little();
  prof.phase(false, Phase::kReclamation, 0);
  prof.op_end(0);
  const ProfileSnapshot whole = prof.snapshot();
  // Nothing handed in yet: r = 1, the snapshot is the raw tick tiling.
  EXPECT_EQ(whole.cycles, whole.wall_cycles);
  EXPECT_EQ(whole.preempted_cycles, 0u);
  EXPECT_EQ(whole.cpu_ns, 0u);

  prof.add_thread_time(0, 500, 1000);
  const ProfileSnapshot half = prof.snapshot();
  EXPECT_EQ(half.cpu_ns, 500u);
  EXPECT_EQ(half.wall_ns, 1000u);
  EXPECT_EQ(half.ops, whole.ops);
  EXPECT_EQ(half.wall_cycles, whole.wall_cycles);
  EXPECT_EQ(half.cycles, whole.cycles / 2);
  EXPECT_EQ(half.preempted_cycles, whole.wall_cycles - whole.cycles / 2);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_EQ(half.phases[i].cycles, whole.phases[i].cycles / 2)
        << to_string(static_cast<Phase>(i));
    EXPECT_EQ(half.phases[i].enters, whole.phases[i].enters);
  }
  EXPECT_GT(half.phases[static_cast<std::size_t>(Phase::kReclamation)].cycles,
            0u);
  // Each phase truncates on its own: at most one tick per phase short.
  EXPECT_LE(half.phase_cycles_sum() + half.preempted_cycles, half.wall_cycles);
  EXPECT_GE(half.phase_cycles_sum() + half.preempted_cycles + kNumPhases,
            half.wall_cycles);

  // CPU time above the wall time (clock skew) caps r at 1.
  PhaseProfiler capped;
  capped.op_begin(0);
  spin_a_little();
  capped.op_end(0);
  capped.add_thread_time(0, 2000, 1000);
  const ProfileSnapshot c = capped.snapshot();
  EXPECT_EQ(c.cycles, c.wall_cycles);
  EXPECT_EQ(c.preempted_cycles, 0u);
}

// ------------------------------------------------------ runner integration

using ProfiledTree =
    EfrbTreeSet<std::uint64_t, std::less<std::uint64_t>, EpochReclaimer,
                ObsTraits>;

TEST(ProfileIntegrationTest, WorkloadAttributionCoversEveryOperation) {
  ProfiledTree tree;
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.key_range = 256;
  cfg.mix = kUpdateHeavy;
  cfg.duration = std::chrono::milliseconds(50);
  prefill(tree, cfg.key_range, cfg.prefill_fraction, cfg.seed);

  PhaseProfiler profiler;
  const Instruments instruments{.profiler = &profiler};
  ObsTraits::attach(&instruments);
  const WorkloadResult res = run_workload(tree, cfg, &instruments);
  ObsTraits::detach();

  const ProfileSnapshot s = profiler.snapshot();
  EXPECT_GT(res.total_ops(), 0u);
  EXPECT_EQ(s.ops, res.total_ops());
  EXPECT_GT(s.cycles, 0u);
  EXPECT_LE(s.phase_cycles_sum(), s.cycles);
  // An update-heavy run descends and runs the CAS protocol on every op, and
  // allocates/retires through the phase-scoped seams.
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kDescent)].cycles, 0u);
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kCasProtocol)].cycles,
            0u);
  EXPECT_GT(s.phases[static_cast<std::size_t>(Phase::kPoolAlloc)].enters, 0u);
  EXPECT_EQ(s.dropped, 0u);
}

TEST(ProfileIntegrationTest, OversubscribedPhasesStayWithinThreadCpuTime) {
  // Twice as many workers as cores: each thread spends about half its loop
  // descheduled. The attributed phases must fit in the CPU time the
  // threads actually got, which the process CPU clock bounds from above
  // (it also counts the main thread and the barrier spins).
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  ProfiledTree tree;
  WorkloadConfig cfg;
  cfg.threads = std::min(16u, 2 * cores);
  cfg.key_range = 1024;
  cfg.mix = kUpdateHeavy;
  cfg.duration = std::chrono::milliseconds(300);
  prefill(tree, cfg.key_range, cfg.prefill_fraction, cfg.seed);

  PhaseProfiler profiler;
  const Instruments instruments{.profiler = &profiler};
  ObsTraits::attach(&instruments);
  const auto wall0 = std::chrono::steady_clock::now();
  const std::uint64_t tick0 = obs::cycle_stamp();
  const std::uint64_t cpu0 = process_cpu_ns();
  const WorkloadResult res = run_workload(tree, cfg, &instruments);
  const std::uint64_t cpu = process_cpu_ns() - cpu0;
  const std::uint64_t ticks = obs::cycle_stamp() - tick0;
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();
  ObsTraits::detach();

  const ProfileSnapshot s = profiler.snapshot();
  ASSERT_GT(res.total_ops(), 0u);
  EXPECT_EQ(s.ops, res.total_ops());
  ASSERT_GT(ticks, 0u);
  const double ns_per_tick = wall_ns / static_cast<double>(ticks);
  const double phase_ns = static_cast<double>(s.phase_cycles_sum()) * ns_per_tick;
  // 2% slack covers the tick-to-ns conversion over a 300 ms window.
  EXPECT_LE(phase_ns, 1.02 * static_cast<double>(cpu))
      << "phases " << phase_ns / 1e6 << " ms vs process CPU "
      << static_cast<double>(cpu) / 1e6 << " ms at " << cfg.threads
      << " threads";
}

TEST(ProfileIntegrationTest, FallbackModeStillAttributesAndStaysCorrect) {
  // The differential check: instrumented tree semantics against std::set,
  // with the profiler attached and op windows opened by hand (no thread
  // times handed in, so the raw tick tiling stands).
  ProfiledTree tree;
  PhaseProfiler profiler;
  const Instruments instruments{.profiler = &profiler};
  ObsTraits::attach(&instruments);
  std::set<std::uint64_t> reference;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = x % 512;
    profiler.op_begin(0);
    switch (x % 3) {
      case 0:
        EXPECT_EQ(tree.insert(key), reference.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(tree.erase(key), reference.erase(key) > 0);
        break;
      default:
        EXPECT_EQ(tree.contains(key), reference.count(key) > 0);
        break;
    }
    profiler.op_end(0);
  }
  ObsTraits::detach();

  const ProfileSnapshot s = profiler.snapshot();
  EXPECT_EQ(s.ops, 4000u);
  EXPECT_LE(s.phase_cycles_sum(), s.cycles);
  EXPECT_EQ(s.cycles, s.wall_cycles);
  EXPECT_EQ(s.preempted_cycles, 0u);
}

// ----------------------------------------------- metrics v5 profile cell

TEST(ProfileMetricsTest, FallbackCellOmitsHwAndDerivedSections) {
  // The v5 cell shape: on-CPU attribution plus the wall and preempted
  // ticks and the thread times behind them; no hardware-counter keys.
  ProfiledTree tree;
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.key_range = 128;
  cfg.duration = std::chrono::milliseconds(30);
  prefill(tree, cfg.key_range, cfg.prefill_fraction, cfg.seed);
  PhaseProfiler profiler;
  const Instruments instruments{.profiler = &profiler};
  ObsTraits::attach(&instruments);
  const WorkloadResult res = run_workload(tree, cfg, &instruments);
  ObsTraits::detach();
  const ProfileSnapshot snap = profiler.snapshot();

  obs::MetricsDocument doc("profile_test");
  doc.add_cell("cell", cfg, res, nullptr, nullptr, nullptr, nullptr, nullptr,
               nullptr, &snap);
  const std::string json = doc.finish();

  std::string err;
  std::optional<JsonValue> parsed = obs::parse_json(json, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->number_at("schema_version", 0), 5.0);
  const JsonValue* cells = parsed->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 1u);
  const JsonValue& cell = cells->array[0];

  const JsonValue* profile = cell.find("profile");
  ASSERT_NE(profile, nullptr);
  for (const char* gone : {"available", "sw_available", "unavailable_reason",
                           "paranoid", "hw", "sw", "derived"}) {
    EXPECT_EQ(profile->find(gone), nullptr) << gone;
  }
  EXPECT_FALSE(std::string(profile->string_at("source")).empty());
  EXPECT_GT(profile->number_at("ops", 0), 0.0);
  EXPECT_GT(profile->number_at("cycles", 0), 0.0);
  EXPECT_NE(profile->find("cycles_per_op"), nullptr);
  EXPECT_NE(profile->find("span_cycles"), nullptr);
  // The runner handed in both workers' times.
  EXPECT_GT(profile->number_at("cpu_ns", 0), 0.0);
  EXPECT_GT(profile->number_at("wall_ns", 0), 0.0);
  const double wall = profile->number_at("wall_cycles", 0);
  EXPECT_GE(wall, profile->number_at("cycles", 0));
  EXPECT_NEAR(profile->number_at("phase_cycles_sum", 0) +
                  profile->number_at("preempted_cycles", -1),
              wall, static_cast<double>(kNumPhases * cfg.threads));
  const JsonValue* phases = profile->find("phases");
  ASSERT_NE(phases, nullptr);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const JsonValue* ph = phases->find(to_string(static_cast<Phase>(i)));
    ASSERT_NE(ph, nullptr) << to_string(static_cast<Phase>(i));
    EXPECT_NE(ph->find("cycles"), nullptr);
    EXPECT_NE(ph->find("enters"), nullptr);
    EXPECT_NE(ph->find("share"), nullptr);
    EXPECT_EQ(ph->object.size(), 3u);
  }
}

}  // namespace
}  // namespace efrb
