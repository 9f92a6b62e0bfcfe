// Instrumented-build matrix: the debug-hook emission points driven with LIVE
// (non-Noop) traits across reclaimer policies. NoopTraits compiles every hook
// away, so only an instantiation like these proves the emission points still
// exist, fire in order, and agree with the per-step stats counters that
// op_context.hpp records at the same sites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "leak_check_opt_out.hpp"  // LeakyReclaimer cells leak by design
#include "reclaim/hazard.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

// Default and stats-only trees build no Event: neither NoopTraits nor a
// NoopTraits-plus-kCountStats Traits (the shape of perfbench's traced
// Counting<...>::Traits) has an event sink.
struct CountingShape : NoopTraits {
  static constexpr bool kCountStats = true;
};
static_assert(!hooks::event_sink_v<NoopTraits>);
static_assert(!hooks::event_sink_v<CountingShape>);
static_assert(!hooks::event_sink_v<StatsTraits>);
static_assert(hooks::event_sink_v<CallbackTraits>);

/// Lock-free counting hooks; one instantiation (and thus one set of counters)
/// per reclaimer under test.
template <typename Reclaimer>
struct CountingTraits : NoopTraits {
  static constexpr bool kCountStats = true;

  static inline std::atomic<std::uint64_t> cas_events{0};
  static inline std::atomic<std::uint32_t> points_seen{0};  // HookPoint bitmask

  static void on_event(const Event& e) noexcept {
    if (e.kind == EventKind::kCas) {
      cas_events.fetch_add(1, std::memory_order_relaxed);
    } else if (e.at_point()) {
      points_seen.fetch_or(1u << static_cast<unsigned>(e.point()),
                           std::memory_order_relaxed);
    }
  }
  static void reset() {
    cas_events.store(0);
    points_seen.store(0);
  }
};

/// §6 search variant with stats on, to cover the kSearchHelpsMarked branch
/// of search_path under a non-Noop instantiation too.
struct HelpingSearchStatsTraits : HelpingSearchTraits {
  static constexpr bool kCountStats = true;
};

template <typename Reclaimer>
class InstrumentedHooksTest : public ::testing::Test {};
using Reclaimers =
    ::testing::Types<EpochReclaimer, HazardReclaimer, LeakyReclaimer>;
TYPED_TEST_SUITE(InstrumentedHooksTest, Reclaimers);

TYPED_TEST(InstrumentedHooksTest, CasEventsAgreeWithPerStepCounters) {
  using Traits = CountingTraits<TypeParam>;
  Traits::reset();
  using Tree = EfrbTreeSet<int, std::less<int>, TypeParam, Traits>;
  Tree t;
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid + 1);
    for (int i = 0; i < 3000; ++i) {
      const int k = static_cast<int>(rng.next_below(16));  // hot: force helping
      if (rng.next_below(2) == 0) {
        h.insert(k);
      } else {
        h.erase(k);
      }
    }
  });
  const auto s = t.stats();
  std::uint64_t per_step_total = 0;
  for (std::size_t i = 0; i < kNumCasSteps; ++i) {
    per_step_total += s.cas_attempts[i];
  }
  // ctx.count_cas() sits immediately after every CAS event emission point
  // in protocol.hpp, so the two totals must agree exactly.
  EXPECT_EQ(Traits::cas_events.load(), per_step_total);
  EXPECT_GT(per_step_total, 0u);
  EXPECT_TRUE(t.validate().ok);
}

TYPED_TEST(InstrumentedHooksTest, ProtocolHookPointsFire) {
  using Traits = CountingTraits<TypeParam>;
  Traits::reset();
  using Tree = EfrbTreeSet<int, std::less<int>, TypeParam, Traits>;
  Tree t;
  // One successful insert and delete traverse all eight uncontended pause
  // points; the contended points (helping/retry/backtrack) are schedule-
  // dependent and asserted only as "may fire" by the churn above.
  ASSERT_TRUE(t.insert(1));
  ASSERT_TRUE(t.insert(2));
  ASSERT_TRUE(t.erase(1));
  const std::uint32_t seen = Traits::points_seen.load();
  for (HookPoint p : {HookPoint::kAfterSearch, HookPoint::kAfterIFlag,
                      HookPoint::kBeforeIChild, HookPoint::kBeforeIUnflag,
                      HookPoint::kAfterDFlag, HookPoint::kBeforeMark,
                      HookPoint::kBeforeDChild, HookPoint::kBeforeDUnflag}) {
    EXPECT_NE(seen & (1u << static_cast<unsigned>(p)), 0u)
        << "hook point " << static_cast<unsigned>(p) << " never fired";
  }
}

TEST(InstrumentedHelpingSearchTest, MarkSplicingSearchUnderChurn) {
  using Tree =
      EfrbTreeSet<int, std::less<int>, EpochReclaimer, HelpingSearchStatsTraits>;
  Tree t;
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid * 7 + 5);
    for (int i = 0; i < 3000; ++i) {
      const int k = static_cast<int>(rng.next_below(16));
      if (rng.next_below(2) == 0) {
        h.insert(k);
      } else {
        h.erase(k);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
  const auto s = t.stats();
  // Every successful delete still performs exactly one dchild splice,
  // whether by the deleter, a helper, or a §6 helping search.
  EXPECT_GE(s.cas_attempts[static_cast<std::size_t>(CasStep::kDChild)],
            s.cas_attempts[static_cast<std::size_t>(CasStep::kMark)] -
                s.cas_failures[static_cast<std::size_t>(CasStep::kMark)]);
}

/// Hooks that nest a pin on the structure's own reclaimer every time the
/// executing operation is about to help. Tree-level operations pin the
/// thread_local lease slot, and so does the hook's pin() — true same-slot
/// nesting (depth 2) at the exact moment the thread traverses another
/// operation's Info record. If the inner unpin ended the pinned region
/// early, nodes retired by concurrent deletes could be freed mid-help —
/// which the ASan stage of scripts/check.sh turns into a hard failure here.
struct NestedPinOnHelpTraits : inject::InjectTraits {
  static inline EpochReclaimer* reclaimer = nullptr;
  static inline std::atomic<std::uint64_t> nested_pins{0};

  static void on_event(const Event& e) {
    if (e.help_entry() && reclaimer != nullptr) {
      auto g = reclaimer->pin();
      nested_pins.fetch_add(1, std::memory_order_relaxed);
    }
    inject::InjectTraits::on_event(e);
  }
};

TEST(InstrumentedHooksTest, NestedPinDuringHelpingKeepsProtection) {
  EpochReclaimer rec(64, /*retire_batch=*/1);
  NestedPinOnHelpTraits::reclaimer = &rec;
  NestedPinOnHelpTraits::nested_pins.store(0);
  {
    using Tree =
        EfrbTreeSet<int, std::less<int>, EpochReclaimer, NestedPinOnHelpTraits>;
    Tree t(std::less<int>{}, rec);  // shares rec's registry
    ASSERT_TRUE(t.insert(10));
    ASSERT_TRUE(t.insert(20));

    // Deterministic helping: freeze a deleter right after its dflag; the
    // second erase shares the flagged grandparent and must help first.
    inject::FaultPlan plan;
    inject::FaultAction stall;
    stall.kind = inject::FaultKind::kStall;
    stall.tid = 0;
    stall.point = static_cast<int>(HookPoint::kAfterDFlag);
    plan.actions.push_back(stall);
    inject::FaultScheduler sched(plan);

    std::thread frozen([&] {
      inject::FaultScheduler::ThreadScope scope(sched, 0);
      EXPECT_TRUE(t.erase(10));
    });
    ASSERT_TRUE(sched.wait_until_stalled(0));

    EXPECT_TRUE(t.erase(20));  // helps the frozen delete while pinned
    EXPECT_GE(NestedPinOnHelpTraits::nested_pins.load(), 1u);
    EXPECT_FALSE(t.contains(10));

    sched.release(0);
    frozen.join();
    EXPECT_TRUE(t.validate().ok);
    EXPECT_GE(t.stats().helps, NestedPinOnHelpTraits::nested_pins.load());
  }
  NestedPinOnHelpTraits::reclaimer = nullptr;
  rec.flush();
  EXPECT_GT(rec.freed_count(), 0u);  // the nested pins did not wedge EBR
}

}  // namespace
}  // namespace efrb
