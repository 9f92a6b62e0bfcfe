// The liveness watchdog's false-positive contract (obs/watchdog.hpp):
// an attached-but-idle handle is NEVER flagged no matter how tight the
// budget, a deliberately frozen thread IS flagged with its key and CAS step,
// completed ops racing the sampler are discarded by the seqlock re-read, the
// metrics cell exports the stall counters, and the ProgressTable heals stale
// odd sequence words on slot recycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "core/op_context.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "obs/instruments.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "reclaim/epoch.hpp"

namespace efrb {
namespace {

using inject::FaultAction;
using inject::FaultKind;
using inject::FaultPlan;
using inject::FaultScheduler;

/// Injection traits with owner stamps and progress slots on; events reach
/// the fault scheduler and whatever obs::Instruments is attached.
struct CausalInjectTraits : inject::InjectTraits {
  static constexpr bool kCausalTrace = true;

  static void on_event(const Event& e) {
    obs::ObsTraits::on_event(e);
    inject::InjectTraits::on_event(e);
  }
};

using WatchedTree =
    EfrbTreeSet<int, std::less<int>, EpochReclaimer, CausalInjectTraits>;

FaultAction stall_at(unsigned tid, HookPoint p, unsigned occurrence = 1) {
  FaultAction a;
  a.kind = FaultKind::kStall;
  a.tid = tid;
  a.point = static_cast<int>(p);
  a.occurrence = occurrence;
  return a;
}

// --------------------------------------------------- false-positive side

TEST(WatchdogTest, IdleAttachedHandleIsNeverFlagged) {
  WatchedTree t;
  auto h = t.handle();
  ASSERT_TRUE(h.insert(1));  // the handle has a history, but is idle now

  // Zero budgets: ANY in-flight op would be flagged instantly. An idle
  // handle (even op_seq) must still never appear.
  obs::LivenessWatchdog wd(t.progress_table(),
                           obs::WatchdogBudget{.retries = 0, .wall_ns = 0});
  for (int i = 0; i < 10; ++i) {
    const obs::StallReport rep = wd.poll_once();
    EXPECT_EQ(rep.sampled_in_flight, 0u);
    EXPECT_TRUE(rep.stalled.empty());
  }
  EXPECT_EQ(wd.stall_events_total(), 0u);
  EXPECT_EQ(wd.stalled_now(), 0u);
}

TEST(WatchdogTest, BackgroundSamplerStaysQuietUnderNormalTraffic) {
  WatchedTree t;
  // Generous budgets; uncontended single-thread ops finish far inside them.
  obs::LivenessWatchdog wd(t.progress_table(), obs::WatchdogBudget{},
                           std::chrono::milliseconds(1));
  std::atomic<std::uint64_t> callbacks{0};
  wd.set_on_stall([&](const obs::StallReport&) {
    callbacks.fetch_add(1, std::memory_order_relaxed);
  });
  wd.start();
  {
    auto h = t.handle();
    for (int i = 0; i < 20000; ++i) {
      h.insert(i & 255);
      h.erase(i & 255);
    }
  }
  wd.stop();
  const obs::StallReport rep = wd.report();
  EXPECT_GE(rep.polls, 1u);
  EXPECT_TRUE(rep.stalled.empty());
  EXPECT_EQ(wd.stall_events_total(), 0u);
  EXPECT_EQ(callbacks.load(), 0u);
}

// ------------------------------------------------------ true-positive side

TEST(WatchdogTest, FrozenThreadIsFlaggedWithKeyAndStep) {
  WatchedTree t;
  for (int k : {10, 30, 50}) ASSERT_TRUE(t.insert(k));

  FaultPlan plan;
  plan.actions.push_back(stall_at(0, HookPoint::kAfterDFlag));
  FaultScheduler sched(plan);

  bool victim_ret = false;
  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    victim_ret = h.erase(30);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0));

  // The op is frozen right after its successful dflag CAS. Wall budget of
  // 1 ns has long expired; the retry budget stays out of the way so this
  // asserts the wall path specifically.
  obs::LivenessWatchdog wd(
      t.progress_table(),
      obs::WatchdogBudget{.retries = 1'000'000'000, .wall_ns = 1});
  std::atomic<std::uint64_t> callbacks{0};
  wd.set_on_stall([&](const obs::StallReport& r) {
    callbacks.fetch_add(1, std::memory_order_relaxed);
    EXPECT_FALSE(r.stalled.empty());
  });
  const obs::StallReport rep = wd.poll_once();
  ASSERT_EQ(rep.stalled.size(), 1u);
  const obs::StallEntry& e = rep.stalled[0];
  EXPECT_EQ(e.tid, 0u);
  EXPECT_EQ(e.op_key, 30u);
  EXPECT_EQ(static_cast<CasStep>(e.last_step), CasStep::kDFlag);
  EXPECT_EQ(e.op_seq & 1, 1u);  // window still open
  EXPECT_GT(e.age_ns, 0u);
  EXPECT_EQ(rep.sampled_in_flight, 1u);
  EXPECT_EQ(wd.stall_events_total(), 1u);
  EXPECT_EQ(callbacks.load(), 1u);

  // Consecutive polls keep flagging while frozen; the counter is monotone.
  wd.poll_once();
  EXPECT_EQ(wd.stall_events_total(), 2u);
  EXPECT_EQ(wd.stalled_now(), 1u);

  sched.release(0);
  victim.join();
  EXPECT_TRUE(victim_ret);

  // Released and completed: the very next poll is clean again.
  const obs::StallReport after = wd.poll_once();
  EXPECT_EQ(after.sampled_in_flight, 0u);
  EXPECT_TRUE(after.stalled.empty());
}

// ------------------------------------------------------ sampler mechanics

TEST(WatchdogTest, SeqlockDiscardsOpsThatCompleteMidSample) {
  // Simulate the race directly on a raw table: an odd window whose seq moves
  // between the sampler's two reads must be dropped, not reported.
  ProgressTable table;
  ProgressSlot* s = table.acquire(7);
  s->op_key.store(42, std::memory_order_relaxed);
  s->start_ns.store(0, std::memory_order_relaxed);  // infinitely old
  s->op_seq.store(1, std::memory_order_release);    // open window

  obs::LivenessWatchdog wd(table,
                           obs::WatchdogBudget{.retries = 0, .wall_ns = 0});
  // Open-and-unchanged: flagged.
  EXPECT_EQ(wd.poll_once().stalled.size(), 1u);

  // Close the window: the same slot is now idle and must vanish.
  s->op_seq.store(2, std::memory_order_release);
  const obs::StallReport rep = wd.poll_once();
  EXPECT_EQ(rep.sampled_in_flight, 0u);
  EXPECT_TRUE(rep.stalled.empty());
  ProgressTable::release(s);
}

// ------------------------------------------------------- metrics export

TEST(WatchdogTest, MetricsCellCarriesStallCounters) {
  // The metrics cell's optional "watchdog" section is the one export of
  // stalled_now() and stall_events_total().
  ProgressTable table;
  ProgressSlot* s = table.acquire(7);
  s->start_ns.store(0, std::memory_order_relaxed);  // infinitely old
  s->op_seq.store(1, std::memory_order_release);    // open window
  obs::LivenessWatchdog wd(table,
                           obs::WatchdogBudget{.retries = 0, .wall_ns = 0});
  wd.poll_once();
  wd.poll_once();  // still open: one more observation, still one op

  auto cell_of = [](const std::string& json) {
    std::string err;
    const std::optional<obs::JsonValue> doc = obs::parse_json(json, &err);
    EXPECT_TRUE(doc.has_value()) << err;
    if (!doc) return obs::JsonValue{};
    EXPECT_EQ(doc->number_at("schema_version", 0), 5.0);
    const obs::JsonValue* cells = doc->find("cells");
    return cells != nullptr && cells->array.size() == 1 ? cells->array[0]
                                                         : obs::JsonValue{};
  };
  obs::MetricsDocument with("watchdog_test");
  with.add_cell("cell", WorkloadConfig{}, WorkloadResult{}, nullptr, nullptr,
                nullptr, nullptr, nullptr, nullptr, nullptr, &wd);
  const obs::JsonValue cell = cell_of(with.finish());
  const obs::JsonValue* section = cell.find("watchdog");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->number_at("stalled_ops", -1), 1.0);
  EXPECT_EQ(section->number_at("stall_events_total", -1), 2.0);

  // Optional: a cell without a watchdog has no section at all.
  obs::MetricsDocument without("watchdog_test");
  without.add_cell("cell", WorkloadConfig{}, WorkloadResult{});
  const obs::JsonValue bare = cell_of(without.finish());
  EXPECT_NE(bare.find("result"), nullptr);
  EXPECT_EQ(bare.find("watchdog"), nullptr);
  ProgressTable::release(s);
}

TEST(ProgressTableTest, AcquireHealsStaleOddSequence) {
  ProgressTable table;
  ProgressSlot* s = table.acquire(3);
  EXPECT_EQ(s->tid.load(), 3u);

  // A handle destroyed mid-operation leaves an odd seq behind; release
  // closes it so samplers never see a ghost in-flight op on a free slot.
  s->op_seq.store(5, std::memory_order_relaxed);
  ProgressTable::release(s);
  EXPECT_EQ(s->op_seq.load() & 1, 0u);
  EXPECT_EQ(s->tid.load(), kNoTid);

  // Re-poison the freed slot directly, then recycle it: acquire must hand
  // out a closed (even) window.
  s->op_seq.store(9, std::memory_order_relaxed);
  ProgressSlot* r = table.acquire(4);
  EXPECT_EQ(r, s);  // first free slot recycles
  EXPECT_EQ(r->op_seq.load() & 1, 0u);
  EXPECT_EQ(r->tid.load(), 4u);
  ProgressTable::release(r);
}

TEST(ProgressTableTest, ExhaustionThrowsAndReleaseRecycles) {
  ProgressTable table;
  std::vector<ProgressSlot*> held;
  held.reserve(ProgressTable::kMaxHandles);
  for (std::size_t i = 0; i < ProgressTable::kMaxHandles; ++i) {
    held.push_back(table.acquire(static_cast<unsigned>(i)));
  }
  EXPECT_THROW(table.acquire(999), CapacityExhausted);
  ProgressTable::release(held.back());
  held.pop_back();
  ProgressSlot* again = table.acquire(999);
  EXPECT_NE(again, nullptr);
  ProgressTable::release(again);
  for (ProgressSlot* s : held) ProgressTable::release(s);
}

}  // namespace
}  // namespace efrb
