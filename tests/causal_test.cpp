// Help-chain attribution (obs/causal.hpp) end to end: the owner-stamp
// packing, the CausalRegistry matrix/edge bookkeeping, and the PR's
// acceptance scenario — a deliberately stalled deleter whose operation is
// completed by a helper must produce (a) a nonzero helped_by[helper][owner]
// matrix cell, (b) a Chrome-trace flow arrow from the helper's span to the
// stalled op's thread, and (c) a StallReport naming the stalled thread, key,
// and CAS step. The scenario runs under the fault-injection scheduler
// (src/inject/) for a deterministic freeze, with causal tracing layered on
// top of InjectTraits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "obs/causal.hpp"
#include "obs/flightrec.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "reclaim/epoch.hpp"

namespace efrb {
namespace {

using inject::FaultAction;
using inject::FaultKind;
using inject::FaultPlan;
using inject::FaultScheduler;

// ------------------------------------------------------------ owner stamp

TEST(OwnerStampTest, PackRoundTripsTidAndSeq) {
  const std::uint64_t w = pack_owner(3, 41);
  EXPECT_EQ(owner_tid(w), 3u);
  EXPECT_EQ(owner_seq(w), 41u);
  // Full-width fields survive: tid uses 16 bits, seq the low 48.
  const std::uint64_t big = pack_owner(0xFFFF, (std::uint64_t{1} << 48) - 1);
  EXPECT_EQ(owner_tid(big), 0xFFFFu);
  EXPECT_EQ(owner_seq(big), (std::uint64_t{1} << 48) - 1);
  EXPECT_NE(pack_owner(0, 0), kNoOwner);
}

// ------------------------------------------------------- registry basics

TEST(CausalRegistryTest, RecordsMatrixCellAndTotals) {
  obs::CausalRegistry reg(8);
  reg.record_help(2, pack_owner(5, 100));
  reg.record_help(2, pack_owner(5, 101));
  reg.record_help(5, pack_owner(2, 7));
  EXPECT_EQ(reg.helped_by(2, 5), 2u);
  EXPECT_EQ(reg.helped_by(5, 2), 1u);
  EXPECT_EQ(reg.helped_by(2, 2), 0u);
  EXPECT_EQ(reg.helps_given(2), 2u);
  EXPECT_EQ(reg.helps_received(5), 2u);
  EXPECT_EQ(reg.helps_given(5), 1u);
  EXPECT_EQ(reg.helps_received(2), 1u);
  EXPECT_EQ(reg.total_helps(), 3u);
  EXPECT_EQ(reg.dropped_unattributed(), 0u);
}

TEST(CausalRegistryTest, DropsUnattributedAndOutOfRange) {
  obs::CausalRegistry reg(4);
  reg.record_help(1, kNoOwner);               // no stamp
  reg.record_help(kNoTid, pack_owner(0, 1));  // tree-level helper
  reg.record_help(99, pack_owner(0, 1));      // helper out of range
  reg.record_help(1, pack_owner(99, 1));      // owner out of range
  EXPECT_EQ(reg.total_helps(), 0u);
  EXPECT_EQ(reg.dropped_unattributed(), 4u);
  // Out-of-range queries answer zero rather than faulting.
  EXPECT_EQ(reg.helped_by(99, 0), 0u);
  EXPECT_EQ(reg.helps_given(99), 0u);
  EXPECT_EQ(reg.helps_received(99), 0u);
}

TEST(CausalRegistryTest, EdgeRingRetainsNewestEdges) {
  obs::CausalRegistry reg(4, nullptr, /*edge_ring_capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    reg.record_help(1, pack_owner(0, i));
  }
  const std::vector<obs::HelpEdge> edges = reg.edges(1);
  ASSERT_EQ(edges.size(), 4u);  // capacity bounds retention
  EXPECT_EQ(owner_seq(edges.back().owner), 9u);   // newest kept
  EXPECT_EQ(owner_seq(edges.front().owner), 6u);  // oldest retained
  EXPECT_TRUE(reg.edges(3).empty());
  EXPECT_TRUE(reg.edges(99).empty());
}

TEST(CausalRegistryTest, JsonCellElidesIdleRowsAndCountsActivity) {
  obs::CausalRegistry reg(16);
  reg.record_help(1, pack_owner(0, 5));
  obs::JsonWriter w;
  reg.append_json(w);
  const std::string json = w.take();
  EXPECT_NE(json.find("\"total_helps\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"helped_by\":{\"1\":{\"0\":1}}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"helps_received\":{\"0\":1}"), std::string::npos)
      << json;
  // 14 idle tids contribute nothing.
  EXPECT_EQ(json.find("\"2\""), std::string::npos) << json;
}

TEST(CausalRegistryTest, FlowEventsComeInMatchedStartFinishPairs) {
  obs::TraceRegistry trace(4);
  obs::CausalRegistry reg(4, &trace);
  reg.record_help(2, pack_owner(1, 9));
  const std::string json = reg.chrome_trace_with_flows(trace);
  // One edge: an "s" on the helper's timeline and an "f" (bp:"e") on the
  // owner's, sharing an id.
  EXPECT_NE(json.find("\"name\":\"help-flow\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos) << json;
}

// ------------------------------------------------- acceptance: stalled op
//
// Causal tracing stacked on the fault-injection traits: the scheduler keeps
// its stall gates and CAS vetoes, and every event additionally flows into
// the obs::Instruments attached to ObsTraits, help events with the owner
// stamp.

struct CausalInjectTraits : inject::InjectTraits {
  static constexpr bool kCausalTrace = true;
  static constexpr bool kTrackKeys = true;

  static void on_event(const Event& e) {
    obs::ObsTraits::on_event(e);
    inject::InjectTraits::on_event(e);  // stall gates / hit accounting
  }
};

using CausalTree =
    EfrbTreeSet<int, std::less<int>, EpochReclaimer, CausalInjectTraits>;

FaultAction stall_at(unsigned tid, HookPoint p, unsigned occurrence = 1) {
  FaultAction a;
  a.kind = FaultKind::kStall;
  a.tid = tid;
  a.point = static_cast<int>(p);
  a.occurrence = occurrence;
  return a;
}

TEST(CausalAcceptanceTest, StalledDeleterIsAttributedFlowedAndReported) {
  // Every sink attached through one Instruments: the forced help must reach
  // each of them exactly once.
  obs::TraceRegistry trace;
  obs::CausalRegistry causal(trace.max_tids(), &trace);
  obs::KeyHeatmap heatmap(128);
  const obs::FlightRecorder flight(trace);
  obs::PhaseProfiler profiler;
  const obs::Instruments instruments{.trace = &trace,
                                     .heatmap = &heatmap,
                                     .causal = &causal,
                                     .profiler = &profiler};
  obs::ObsTraits::attach(&instruments);

  CausalTree t;
  for (int k : {10, 30, 50, 70}) ASSERT_TRUE(t.insert(k));

  FaultPlan plan;
  plan.actions.push_back(stall_at(0, HookPoint::kAfterDFlag));
  FaultScheduler sched(plan);

  // Handle tids are assigned in creation order; create the victim's first
  // so the owner stamp carries tid 0 and the helper tid 1.
  bool victim_ret = false;
  unsigned victim_tid = kNoTid;
  unsigned helper_tid = kNoTid;
  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    victim_tid = h.tid();
    victim_ret = h.erase(30);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0));

  // (c) While the deleter is frozen after its successful dflag, the
  // watchdog must name its thread, key, and last CAS step.
  obs::LivenessWatchdog watchdog(t.progress_table(),
                                 obs::WatchdogBudget{.retries = 1'000'000,
                                                     .wall_ns = 1});
  const obs::StallReport rep = watchdog.poll_once();
  ASSERT_EQ(rep.stalled.size(), 1u);
  EXPECT_EQ(rep.stalled[0].tid, 0u);
  EXPECT_EQ(rep.stalled[0].op_key, 30u);
  EXPECT_EQ(static_cast<CasStep>(rep.stalled[0].last_step), CasStep::kDFlag);
  EXPECT_GE(rep.stall_events_total, 1u);

  // A second deleter of the same key finds the flagged grandparent and
  // helps the stalled operation to completion.
  {
    FaultScheduler::ThreadScope scope(sched, 1);
    auto h = t.handle();
    helper_tid = h.tid();
    EXPECT_FALSE(h.erase(30));
  }
  EXPECT_FALSE(t.contains(30));

  sched.release(0);
  victim.join();
  EXPECT_TRUE(victim_ret);
  EXPECT_TRUE(t.validate().ok);

  ASSERT_NE(victim_tid, kNoTid);
  ASSERT_NE(helper_tid, kNoTid);
  ASSERT_NE(victim_tid, helper_tid);

  // (a) The help matrix charges the helper with completing the victim's op.
  EXPECT_GE(causal.helped_by(helper_tid, victim_tid), 1u)
      << "helper " << helper_tid << " victim " << victim_tid;
  EXPECT_GE(causal.helps_given(helper_tid), 1u);
  EXPECT_GE(causal.helps_received(victim_tid), 1u);
  // The help edge carries the deleter's exact stamp (its handle's first op),
  // read from the DInfo the DFlag names.
  const std::vector<obs::HelpEdge> edges = causal.edges(helper_tid);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].owner, pack_owner(victim_tid, 1));

  // (b) The merged Chrome trace carries a flow arrow: "s" on the helper's
  // timeline, "f" bound into the victim's.
  const std::string json = causal.chrome_trace_with_flows(trace);
  const std::string s_event = "\"ph\":\"s\",\"id\":1,\"ts\":";
  EXPECT_NE(json.find(s_event), std::string::npos) << json.substr(0, 400);
  const std::size_t s_pos = json.find(s_event);
  ASSERT_NE(s_pos, std::string::npos);
  const std::string s_obj = json.substr(s_pos, json.find('}', s_pos) - s_pos);
  EXPECT_NE(s_obj.find("\"tid\":" + std::to_string(helper_tid)),
            std::string::npos)
      << s_obj;
  const std::size_t f_pos = json.find("\"ph\":\"f\"");
  ASSERT_NE(f_pos, std::string::npos);
  const std::string f_obj = json.substr(f_pos, json.find('}', f_pos) - f_pos);
  EXPECT_NE(f_obj.find("\"tid\":" + std::to_string(victim_tid)),
            std::string::npos)
      << f_obj;

  // The kHelpOwner companion slot reached the helper's trace ring too (the
  // postmortem decoder's help-graph source).
  bool saw_owner_slot = false;
  for (const obs::TraceEvent& e : trace.snapshot(helper_tid)) {
    if (e.kind == obs::TraceEventKind::kHelpOwner) {
      saw_owner_slot = true;
      EXPECT_EQ(e.code, victim_tid);
    }
  }
  EXPECT_TRUE(saw_owner_slot);

  obs::ObsTraits::detach();

  // Exactly once per sink: one help entry in the causal matrix, one help
  // point plus one owner slot in the trace ring (and so in its flight dump),
  // and one help charged to the heatmap.
  auto count = [](const std::vector<obs::TraceEvent>& events,
                  obs::TraceEventKind kind) {
    return std::count_if(events.begin(), events.end(),
                         [kind](const obs::TraceEvent& e) {
                           return e.kind == kind;
                         });
  };
  EXPECT_EQ(causal.total_helps(), 1u);
  const std::vector<obs::TraceEvent> traced = trace.snapshot(helper_tid);
  EXPECT_EQ(count(traced, obs::TraceEventKind::kHelpEnter), 1);
  EXPECT_EQ(count(traced, obs::TraceEventKind::kHelpOwner), 1);
  const std::string path = ::testing::TempDir() + "causal_flight.bin";
  ASSERT_TRUE(flight.dump_to_path(path.c_str()));
  obs::FlightDump dump;
  ASSERT_TRUE(obs::FlightDump::read_file(path, &dump));
  std::remove(path.c_str());
  EXPECT_EQ(count(dump.events(helper_tid), obs::TraceEventKind::kHelpEnter), 1);
  EXPECT_EQ(count(dump.events(helper_tid), obs::TraceEventKind::kHelpOwner), 1);
  std::uint64_t heat_helps = 0;
  for (const obs::HeatBucket& b : heatmap.snapshot()) heat_helps += b.helps;
  EXPECT_EQ(heat_helps, 1u);
  EXPECT_EQ(heatmap.snapshot()[heatmap.bucket_of(30)].helps, 1u);
}

// The inserter-side twin: help() reads the owner through the concrete
// record the state tag names, so the IFlag -> IInfo branch needs its own
// stalled victim.

TEST(CausalAcceptanceTest, StalledInserterIsAttributed) {
  obs::CausalRegistry causal;
  const obs::Instruments instruments{.causal = &causal};
  obs::ObsTraits::attach(&instruments);

  CausalTree t;
  for (int k : {10, 30, 50, 70}) ASSERT_TRUE(t.insert(k));

  FaultPlan plan;
  plan.actions.push_back(stall_at(0, HookPoint::kAfterIFlag));
  FaultScheduler sched(plan);

  bool victim_ret = false;
  unsigned victim_tid = kNoTid;
  unsigned helper_tid = kNoTid;
  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    victim_tid = h.tid();
    victim_ret = h.insert(40);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0));

  // A second inserter of the same key finds the parent IFlagged, completes
  // the stalled insert, and then sees the key as present.
  {
    FaultScheduler::ThreadScope scope(sched, 1);
    auto h = t.handle();
    helper_tid = h.tid();
    EXPECT_FALSE(h.insert(40));
  }
  EXPECT_TRUE(t.contains(40));

  sched.release(0);
  victim.join();
  EXPECT_TRUE(victim_ret);
  EXPECT_TRUE(t.validate().ok);

  ASSERT_NE(victim_tid, kNoTid);
  ASSERT_NE(helper_tid, kNoTid);
  ASSERT_NE(victim_tid, helper_tid);
  EXPECT_EQ(causal.total_helps(), 1u);
  EXPECT_EQ(causal.helped_by(helper_tid, victim_tid), 1u);
  // The edge carries the inserter's exact stamp: its handle's first op.
  const std::vector<obs::HelpEdge> edges = causal.edges(helper_tid);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].owner, pack_owner(victim_tid, 1));

  obs::ObsTraits::detach();
}

// The chromatic twin: LlxScx::help_other reads the owner word of the traced
// ScxRecord it finds frozen into a node's info word (untraced records have
// none). The victim runs at a nonzero tid, because a zeroed or misread stamp
// would still pass as pack_owner(0, ...).

using CausalChromatic =
    ChromaticTreeSet<int, std::less<int>, EpochReclaimer, CausalInjectTraits>;

TEST(CausalAcceptanceTest, StalledChromaticScxCreatorIsAttributed) {
  obs::CausalRegistry causal;
  const obs::Instruments instruments{.causal = &causal};
  obs::ObsTraits::attach(&instruments);

  CausalChromatic t;
  for (int k : {10, 30, 50, 70}) ASSERT_TRUE(t.insert(k));

  // An erase freezes V = {gp, p, l, s} in order; the victim stalls before
  // its second freeze, so only gp is frozen for its in-progress record.
  FaultPlan plan;
  plan.actions.push_back(stall_at(0, HookPoint::kBeforeFreeze, 2));
  FaultScheduler sched(plan);

  // Handle tids are assigned in creation order: this idle handle takes
  // tid 0, so the victim's stamp carries a nonzero tid.
  auto idle = t.handle();
  bool victim_ret = false;
  unsigned victim_tid = kNoTid;
  unsigned helper_tid = kNoTid;
  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    victim_tid = h.tid();
    victim_ret = h.erase(30);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0));

  // A second eraser of the same key LLXes the frozen gp, completes the
  // victim's transaction, and then finds the key gone.
  {
    FaultScheduler::ThreadScope scope(sched, 1);
    auto h = t.handle();
    helper_tid = h.tid();
    EXPECT_FALSE(h.erase(30));
  }
  EXPECT_FALSE(t.contains(30));

  sched.release(0);
  victim.join();
  EXPECT_TRUE(victim_ret);
  EXPECT_TRUE(t.validate().ok);

  ASSERT_NE(victim_tid, kNoTid);
  ASSERT_NE(victim_tid, 0u);
  ASSERT_NE(helper_tid, kNoTid);
  ASSERT_NE(victim_tid, helper_tid);
  EXPECT_EQ(causal.total_helps(), 1u);
  EXPECT_EQ(causal.helped_by(helper_tid, victim_tid), 1u);
  // The edge carries the creator's exact stamp: its handle's first op.
  const std::vector<obs::HelpEdge> edges = causal.edges(helper_tid);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].owner, pack_owner(victim_tid, 1));

  obs::ObsTraits::detach();
}

// With causal tracing active, helpers of a *tree-level* operation (no
// handle, no progress slot) see kNoOwner and the event lands in the dropped
// counter, never a bogus matrix cell.

TEST(CausalAcceptanceTest, TreeLevelOpsStayUnattributed) {
  obs::CausalRegistry causal;
  const obs::Instruments instruments{.causal = &causal};
  obs::ObsTraits::attach(&instruments);

  CausalTree t;
  ASSERT_TRUE(t.insert(10));
  ASSERT_TRUE(t.insert(30));

  FaultPlan plan;
  plan.actions.push_back(stall_at(0, HookPoint::kAfterDFlag));
  FaultScheduler sched(plan);

  bool victim_ret = false;
  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    victim_ret = t.erase(30);  // tree-level: no handle, kNoOwner stamp
  });
  ASSERT_TRUE(sched.wait_until_stalled(0));
  {
    FaultScheduler::ThreadScope scope(sched, 1);
    auto h = t.handle();
    EXPECT_FALSE(h.erase(30));
  }
  sched.release(0);
  victim.join();
  EXPECT_TRUE(victim_ret);

  EXPECT_EQ(causal.total_helps(), 0u);
  EXPECT_GE(causal.dropped_unattributed(), 1u);

  obs::ObsTraits::detach();
}

}  // namespace
}  // namespace efrb
