// Tests for the profiling layer (PR 10): the perf_event_open wrapper's
// graceful degradation (EFRB_PERFCTR_DISABLE forces the fallback path
// deterministically, so these pass on hosts with and without a PMU), the
// PhaseProfiler state machine driven by synthetic hook streams (attribution
// tiles the op window, helping nests, scopes saturate, out-of-window events
// are counted but never attributed), the runner integration on an
// ObsTraits-instrumented tree, and the metrics-v4 `profile` cell's
// absent-not-zero contract validated by round-tripping through the JSON
// parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>

#include "core/efrb_tree.hpp"
#include "obs/instruments.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/perfctr.hpp"
#include "obs/profile.hpp"
#include "reclaim/epoch.hpp"
#include "workload/runner.hpp"

namespace efrb {
namespace {

using obs::JsonValue;
using obs::PerfAvailability;
using obs::PerfCounterGroup;
using obs::PerfCounts;
using obs::PhaseProfiler;
using obs::ProfileSnapshot;
using obs::Instruments;
using obs::ObsTraits;

/// Scoped environment override; restores (or re-unsets) on destruction so a
/// failing test cannot leak the kill switch into later cases.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

/// Burn a few thousand cycle_stamp ticks so zero-length segments cannot make
/// an assertion vacuous on a coarse clock.
void spin_a_little() {
  const std::uint64_t start = obs::cycle_stamp();
  volatile std::uint64_t sink = 0;
  while (obs::cycle_stamp() - start < 5000) sink = sink + 1;
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

TEST(PerfctrTest, CycleStampIsMonotone) {
  std::uint64_t prev = obs::cycle_stamp();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = obs::cycle_stamp();
    EXPECT_GE(now, prev);
    prev = now;
  }
  EXPECT_FALSE(std::string(obs::cycle_source()).empty());
}

// --------------------------------------------------- availability fallback

TEST(PerfctrTest, KillSwitchForcesUnavailable) {
  EnvGuard guard("EFRB_PERFCTR_DISABLE", "1");
  EXPECT_TRUE(obs::perfctr_disabled());
  const PerfAvailability avail = obs::probe_perf_availability();
  EXPECT_FALSE(avail.hw);
  EXPECT_FALSE(avail.sw);
  EXPECT_NE(avail.reason.find("EFRB_PERFCTR_DISABLE"), std::string::npos);

  PerfCounterGroup group;
  EXPECT_FALSE(group.open());
  EXPECT_FALSE(group.hw_available());
  EXPECT_FALSE(group.sw_available());
  const PerfCounts counts = group.read();
  EXPECT_FALSE(counts.hw_ok);
  EXPECT_FALSE(counts.sw_ok);
  EXPECT_FALSE(counts.cycles_ok);
  EXPECT_FALSE(counts.task_clock_ok);
}

TEST(PerfctrTest, KillSwitchIsCheckedFreshEachCall) {
  {
    EnvGuard guard("EFRB_PERFCTR_DISABLE", "1");
    EXPECT_TRUE(obs::perfctr_disabled());
  }
  // Guard restored the previous environment: the probe must not have cached
  // the disabled verdict.
  if (std::getenv("EFRB_PERFCTR_DISABLE") == nullptr) {
    EXPECT_FALSE(obs::perfctr_disabled());
  }
}

TEST(PerfctrTest, GroupDegradesPerCounterNotWholesale) {
  // Host-tolerant: on a PMU-less VM hw stays closed while sw task-clock
  // works; on bare metal both work. Either way the per-field _ok flags must
  // agree with the headline availability bits and an unavailable group must
  // explain itself.
  PerfCounterGroup group;
  const bool opened = group.open();
  group.enable();
  spin_a_little();
  group.disable();
  const PerfCounts counts = group.read();
  EXPECT_EQ(counts.hw_ok, counts.cycles_ok);
  EXPECT_EQ(counts.sw_ok, counts.task_clock_ok);
  EXPECT_EQ(opened, group.hw_available() || group.sw_available());
  if (!group.hw_available()) {
    EXPECT_FALSE(group.unavailable_reason().empty());
    EXPECT_FALSE(counts.cycles_ok);
    EXPECT_EQ(counts.cycles, 0u);  // absent counters stay zero with ok=false
  } else {
    EXPECT_GT(counts.cycles, 0u);
  }
  if (group.sw_available()) {
    EXPECT_TRUE(counts.task_clock_ok);
    EXPECT_GT(counts.task_clock_ns, 0u);
  }
}

TEST(PerfctrTest, AccumulateSumsAndUnionsAvailability) {
  PerfCounts a;
  a.cycles = 100;
  a.cycles_ok = true;
  a.hw_ok = true;
  PerfCounts b;
  b.task_clock_ns = 50;
  b.task_clock_ok = true;
  b.sw_ok = true;
  PerfCounts sum;
  sum.accumulate(a);
  sum.accumulate(b);
  EXPECT_TRUE(sum.hw_ok);
  EXPECT_TRUE(sum.sw_ok);
  EXPECT_EQ(sum.cycles, 100u);
  EXPECT_EQ(sum.task_clock_ns, 50u);
  EXPECT_TRUE(sum.cycles_ok);
  EXPECT_TRUE(sum.task_clock_ok);
  EXPECT_FALSE(sum.instructions_ok);
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

TEST(PhaseProfilerTest, DerivedRatesAreUndefinedWithoutTheirCounters) {
  PhaseProfiler prof;
  prof.op_begin(0);
  prof.op_end(0);
  const ProfileSnapshot s = prof.snapshot();
  double out = 0;
  if (!s.available) {
    EXPECT_FALSE(s.hw_cycles_per_op(&out));
    EXPECT_FALSE(s.ipc(&out));
    EXPECT_FALSE(s.cache_miss_rate(&out));
    EXPECT_FALSE(s.branch_miss_per_kinstr(&out));
    EXPECT_FALSE(s.multiplex_scale(&out));
    EXPECT_FALSE(s.phase_cycles_est(0, &out));
  }
}

TEST(PhaseProfilerTest, AddHwFoldsThreadReads) {
  PhaseProfiler prof;
  PerfCounts counts;
  counts.hw_ok = true;
  counts.cycles_ok = true;
  counts.cycles = 1000;
  counts.instructions_ok = true;
  counts.instructions = 2000;
  prof.add_hw(counts, "");
  prof.add_hw(counts, "");
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_TRUE(s.available);
  EXPECT_EQ(s.hw_threads, 2u);
  EXPECT_EQ(s.hw.cycles, 2000u);
  double ipc = 0;
  ASSERT_TRUE(s.ipc(&ipc));
  EXPECT_DOUBLE_EQ(ipc, 2.0);  // 4000 instructions over 2000 cycles
  EXPECT_TRUE(s.unavailable_reason.empty());
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

TEST(ProfileIntegrationTest, FallbackModeStillAttributesAndStaysCorrect) {
  // The differential check under the kill switch: instrumented tree semantics
  // against std::set, with the profiler attached and hardware denied.
  EnvGuard guard("EFRB_PERFCTR_DISABLE", "1");
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
  EXPECT_FALSE(s.available);  // kill switch wins whatever the host has
  EXPECT_LE(s.phase_cycles_sum(), s.cycles);
  EXPECT_FALSE(s.unavailable_reason.empty());
}

// ----------------------------------------------- metrics v4 profile cell

TEST(ProfileMetricsTest, FallbackCellOmitsHwAndDerivedSections) {
  EnvGuard guard("EFRB_PERFCTR_DISABLE", "1");
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
  EXPECT_EQ(parsed->number_at("schema_version", 0), 4.0);
  const JsonValue* cells = parsed->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 1u);
  const JsonValue& cell = cells->array[0];

  const JsonValue* profile = cell.find("profile");
  ASSERT_NE(profile, nullptr);
  const JsonValue* available = profile->find("available");
  ASSERT_NE(available, nullptr);
  EXPECT_FALSE(available->boolean);
  // The absent-not-zero contract: no hw section, no derived rates, and an
  // explanation for why.
  EXPECT_EQ(profile->find("hw"), nullptr);
  EXPECT_EQ(profile->find("derived"), nullptr);
  EXPECT_FALSE(std::string(profile->string_at("unavailable_reason")).empty());
  // The tick-based attribution is still fully populated.
  EXPECT_GT(profile->number_at("ops", 0), 0.0);
  EXPECT_GT(profile->number_at("cycles", 0), 0.0);
  EXPECT_NE(profile->find("cycles_per_op"), nullptr);
  EXPECT_LE(profile->number_at("phase_cycles_sum", 0),
            profile->number_at("cycles", 0));
  const JsonValue* phases = profile->find("phases");
  ASSERT_NE(phases, nullptr);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const JsonValue* ph = phases->find(to_string(static_cast<Phase>(i)));
    ASSERT_NE(ph, nullptr) << to_string(static_cast<Phase>(i));
    EXPECT_NE(ph->find("cycles"), nullptr);
    EXPECT_NE(ph->find("enters"), nullptr);
    EXPECT_NE(ph->find("share"), nullptr);
    // hw_cycles_est is hw-derived: absent in fallback mode.
    EXPECT_EQ(ph->find("hw_cycles_est"), nullptr);
  }
  EXPECT_FALSE(std::string(profile->string_at("source")).empty());
}

TEST(ProfileMetricsTest, HwSectionsAppearWhenCountersWereCollected) {
  // Synthesize an available snapshot (no PMU dependence) and check the
  // conditional sections materialize with only the counters that reported.
  PhaseProfiler profiler;
  profiler.op_begin(0);
  spin_a_little();
  profiler.op_end(0);
  PerfCounts counts;
  counts.hw_ok = true;
  counts.cycles_ok = true;
  counts.cycles = 123456;
  counts.instructions_ok = true;
  counts.instructions = 246912;
  counts.time_enabled_ns = 1000;
  counts.time_running_ns = 1000;
  profiler.add_hw(counts, "");
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_TRUE(snap.available);

  obs::MetricsDocument doc("profile_test");
  WorkloadConfig cfg;
  WorkloadResult res;
  res.finds = 1;
  res.seconds = 1;
  doc.add_cell("cell", cfg, res, nullptr, nullptr, nullptr, nullptr, nullptr,
               nullptr, &snap);
  std::string err;
  std::optional<JsonValue> parsed = obs::parse_json(doc.finish(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  const JsonValue* profile =
      parsed->find("cells")->array[0].find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->find("unavailable_reason"), nullptr);
  const JsonValue* hw = profile->find("hw");
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(hw->number_at("cycles", 0), 123456.0);
  EXPECT_EQ(hw->number_at("instructions", 0), 246912.0);
  // Counters that never opened stay absent even inside an available cell.
  EXPECT_EQ(hw->find("cache_misses"), nullptr);
  EXPECT_EQ(hw->find("branch_misses"), nullptr);
  const JsonValue* derived = profile->find("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_DOUBLE_EQ(derived->number_at("ipc", 0), 2.0);
  EXPECT_EQ(derived->find("cache_miss_rate"), nullptr);
}

}  // namespace
}  // namespace efrb
