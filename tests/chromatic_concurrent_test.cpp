// Concurrent and adversarial validation of the chromatic tree: mixed-op
// storms over every reclaimer, determinism under disjoint key ownership,
// bounded depth under concurrent sorted insertion, and the fault-injection
// matrix — a victim thread stalled at every SCX pause point (freeze, child
// swing, commit, retry, rebalance) while a full op mix runs around it. The
// helping obligation is what keeps the mix from wedging: any thread that
// LLXes a frozen node must complete the stalled transaction itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "leak_check_opt_out.hpp"  // LeakyReclaimer cells leak by design
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

// scripts/check.sh rebuilds this suite with non-default traits (same knobs
// as core_concurrent_test.cpp): -DEFRB_TEST_FORCE_STATS races the chromatic
// tree's stat shards (including the new depth/rotation counters) under TSan.
#if defined(EFRB_TEST_FORCE_STATS)
using TestTraits = StatsTraits;
#else
using TestTraits = NoopTraits;
#endif

template <typename Reclaimer>
using TestChromaticSet =
    ChromaticTreeSet<int, std::less<int>, Reclaimer, TestTraits>;

using inject::FaultAction;
using inject::FaultKind;
using inject::FaultPlan;
using inject::FaultScheduler;
using inject::InjectTraits;

template <typename Reclaimer>
using InjectChromatic =
    ChromaticTreeSet<int, std::less<int>, Reclaimer, InjectTraits>;

// The cleanup thresholds, which do not depend on the core's instantiation.
using ThresholdCore =
    ChromaticCore<int, detail::Unit, std::less<int>, NoopTraits,
                  OpContext<EpochReclaimer, false>>;
constexpr std::size_t kLazy = ThresholdCore::kLazyViolations;
constexpr std::size_t kHatch = ThresholdCore::kHatchViolations;

FaultAction stall_at(unsigned tid, HookPoint p, unsigned occurrence = 1) {
  FaultAction a;
  a.kind = FaultKind::kStall;
  a.tid = tid;
  a.point = static_cast<int>(p);
  a.occurrence = occurrence;
  return a;
}

FaultAction fail_cas(unsigned tid, CasStep s, unsigned occurrence = 1,
                     unsigned count = 1) {
  FaultAction a;
  a.kind = FaultKind::kFailCas;
  a.tid = tid;
  a.step = static_cast<int>(s);
  a.occurrence = occurrence;
  a.count = count;
  return a;
}

// ---------------------------------------------------------------------------
// Concurrent mixed operations over every reclaimer.
// ---------------------------------------------------------------------------

template <typename Reclaimer>
class ChromaticReclaimerTest : public ::testing::Test {};
using Reclaimers =
    ::testing::Types<EpochReclaimer, HazardReclaimer, LeakyReclaimer>;
TYPED_TEST_SUITE(ChromaticReclaimerTest, Reclaimers);

TYPED_TEST(ChromaticReclaimerTest, MixedOpStormKeepsInvariants) {
  TestChromaticSet<TypeParam> t;
  run_threads(8, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid * 977 + 11);
    for (int i = 0; i < 10'000; ++i) {
      const int k = static_cast<int>(rng.next_below(512));
      switch (rng.next_below(3)) {
        case 0: h.insert(k); break;
        case 1: h.erase(k); break;
        default: h.contains(k); break;
      }
    }
  });
  const auto v = t.validate();
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_LE(v.real_leaves, 512u);
}

TYPED_TEST(ChromaticReclaimerTest, DisjointRangesAreDeterministic) {
  // Each thread owns a private key range: its results are sequential facts,
  // while the tree-wide rebalancing below them is fully concurrent.
  TestChromaticSet<TypeParam> t;
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    const int base = static_cast<int>(tid) * 1000;
    for (int k = base; k < base + 1000; ++k) ASSERT_TRUE(h.insert(k));
    for (int k = base; k < base + 1000; k += 2) ASSERT_TRUE(h.erase(k));
    for (int k = base + 1; k < base + 1000; k += 2)
      ASSERT_TRUE(h.contains(k));
  });
  const auto v = t.validate();
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.real_leaves, 2000u);
  EXPECT_EQ(t.size(), 2000u);
}

TYPED_TEST(ChromaticReclaimerTest, ContendedHotspotStaysConsistent) {
  // Everyone fights over 16 keys: maximum SCX abort/help pressure.
  TestChromaticSet<TypeParam> t;
  run_threads(8, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid + 1);
    for (int i = 0; i < 5'000; ++i) {
      const int k = static_cast<int>(rng.next_below(16));
      if (rng.next_below(2) == 0) {
        h.insert(k);
      } else {
        h.erase(k);
      }
    }
  });
  const auto v = t.validate();
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_LE(v.real_leaves, 16u);
}

TEST(ChromaticConcurrentShapeTest, ConcurrentSortedInsertStaysShallow) {
  // Four threads interleave one global ascending stream (thread t inserts
  // keys == t mod 4). Cleanup is best-effort under concurrency — a trigger
  // skips its repair while another thread holds the repairer flag, so a path
  // can carry up to about kHatchViolations — so the bound is looser than the
  // quiescent one, but must remain a far cry from the EFRB vine.
  TestChromaticSet<EpochReclaimer> t;
  constexpr int kN = 40'000;
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    for (int k = static_cast<int>(tid); k < kN; k += 4) ASSERT_TRUE(h.insert(k));
  });
  const auto v = t.validate();
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.real_leaves, static_cast<std::size_t>(kN));
  EXPECT_LE(v.height, 120u);  // log2(40k) ~ 15.3; EFRB would sit near 10'000
}

// ---------------------------------------------------------------------------
// Stall at every SCX pause point, full op mix running around the frozen
// thread (the chromatic mirror of fault_injection_test.cpp's matrix).
// ---------------------------------------------------------------------------

template <typename Reclaimer>
class ChromaticFaultMatrixTest : public ::testing::Test {};
TYPED_TEST_SUITE(ChromaticFaultMatrixTest, Reclaimers);

TYPED_TEST(ChromaticFaultMatrixTest, StallAtEveryScxPointUnderOpMix) {
  struct Case {
    HookPoint point;
    bool is_delete;     // victim op: erase(100) vs insert(105)
    int pre_fail_step;  // CasStep forced to fail once first, or -1
  };
  const Case cases[] = {
      {HookPoint::kAfterSearch, false, -1},
      // Insert's window: stalled before the freeze CAS the victim holds
      // nothing; once frozen it holds p, and any op whose window overlaps
      // must help the SCX to completion before its own can proceed.
      {HookPoint::kBeforeFreeze, false, -1},
      {HookPoint::kBeforeScxChild, false, -1},
      {HookPoint::kBeforeScxCommit, false, -1},
      // Erase's window {gp, p, l, s}, with p, l and s finalize-marked (the
      // replacement is always a fresh copy of s — see erase()'s ABA note).
      {HookPoint::kBeforeFreeze, true, -1},
      {HookPoint::kBeforeScxChild, true, -1},
      {HookPoint::kBeforeScxCommit, true, -1},
      // The retry loop, reached by scripting the contention: veto the first
      // freeze CAS so the transaction aborts, then stall in the loop.
      {HookPoint::kScxRetry, false, static_cast<int>(CasStep::kFreeze)},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("stall point = ") + to_string(c.point) +
                 (c.is_delete ? " (erase)" : " (insert)"));
    InjectChromatic<TypeParam> t;
    for (int k : {100, 110, 120, 130}) ASSERT_TRUE(t.insert(k));

    FaultPlan plan;
    if (c.pre_fail_step >= 0) {
      plan.actions.push_back(
          fail_cas(0, static_cast<CasStep>(c.pre_fail_step)));
    }
    plan.actions.push_back(stall_at(0, c.point));
    FaultScheduler sched(plan);

    bool victim_ret = false;
    std::thread victim([&] {
      FaultScheduler::ThreadScope scope(sched, 0);
      auto h = t.handle();
      victim_ret = c.is_delete ? h.erase(100) : h.insert(105);
    });

    ASSERT_TRUE(sched.wait_until_stalled(0)) << "victim never reached gate";

    // Full op mix on a mostly-disjoint key range while the victim holds its
    // window open at this exact point. The mix must neither wedge nor see a
    // structure with unequal weighted path sums; if a mix thread's window
    // touches a frozen node, helping — not blocking — is the way past.
    run_threads(4, [&](std::size_t tid) {
      auto h = t.handle();
      Xoshiro256 rng(tid * 31 + 7);
      for (int i = 0; i < 1500; ++i) {
        const int k = static_cast<int>(rng.next_below(64));
        switch (rng.next_below(3)) {
          case 0: h.insert(k); break;
          case 1: h.erase(k); break;
          default: h.contains(k); break;
        }
      }
    });
    EXPECT_TRUE(t.validate().ok);
    EXPECT_TRUE(sched.is_stalled(0));

    sched.release(0);
    victim.join();
    EXPECT_TRUE(victim_ret);
    EXPECT_EQ(t.contains(c.is_delete ? 100 : 105), !c.is_delete);
    EXPECT_TRUE(t.validate().ok);

    // The stall must have been scripted, not incidental.
    bool saw_stall = false;
    for (const auto& e : sched.fired()) {
      saw_stall |= e.kind == FaultKind::kStall &&
                   e.point == static_cast<int>(c.point);
    }
    EXPECT_TRUE(saw_stall);
  }
}

// ---------------------------------------------------------------------------
// Stall inside a rebalancing transaction.
// ---------------------------------------------------------------------------

TEST(ChromaticFaultTest, StallBeforeRebalanceUnderOpMix) {
  // A sorted run of inserts is guaranteed to create a red-red violation and
  // enter cleanup; the victim freezes at kBeforeRebalance — violation found,
  // fixing SCX not yet started. Nothing is held at that point, so the mix
  // runs completely undisturbed; the released victim then repairs a window
  // the mix may have rewritten under it, which must abort-and-rescan, never
  // damage the structure.
  InjectChromatic<EpochReclaimer> t;
  FaultScheduler sched(
      FaultPlan{{stall_at(0, HookPoint::kBeforeRebalance)}});

  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    for (int k = 200; k < 240; ++k) h.insert(k);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0)) << "sorted inserts never rebalanced";

  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid * 17 + 3);
    for (int i = 0; i < 1500; ++i) {
      const int k = static_cast<int>(rng.next_below(64));
      switch (rng.next_below(3)) {
        case 0: h.insert(k); break;
        case 1: h.erase(k); break;
        default: h.contains(k); break;
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);

  sched.release(0);
  victim.join();
  EXPECT_TRUE(t.validate().ok);
  for (int k = 200; k < 240; ++k) EXPECT_TRUE(t.contains(k));
}

TEST(ChromaticFaultTest, StalledRepairerMakesOthersDeferWithinHatch) {
  // The victim's ascending inserts trigger cleanup; it takes the repairer
  // role and freezes at kBeforeRebalance, holding it. Another thread's
  // ascending inserts then skip every repair whose path is within the hatch,
  // so the right edge collects more than kLazyViolations, but each trigger
  // past kHatchViolations repairs anyway, which caps every path near it.
  InjectChromatic<EpochReclaimer> t;
  FaultScheduler sched(
      FaultPlan{{stall_at(0, HookPoint::kBeforeRebalance)}});

  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    for (int k = 0; k < 40; ++k) ASSERT_TRUE(h.insert(k));
  });
  ASSERT_TRUE(sched.wait_until_stalled(0)) << "sorted inserts never rebalanced";

  // The victim is parked between two steps and holds no frozen node, so the
  // tree is quiescent between this thread's inserts.
  std::size_t peak = 0;
  for (int k = 1000; k < 3000; ++k) {
    ASSERT_TRUE(t.insert(k));
    const auto v = t.validate();
    ASSERT_TRUE(v.ok) << v.error;
    ASSERT_LE(v.max_path_violations, kHatch + 2) << "at key " << k;
    peak = std::max(peak, v.max_path_violations);
  }
  EXPECT_GT(peak, kLazy) << "the stalled repairer did not make others defer";
  EXPECT_TRUE(sched.is_stalled(0));

  sched.release(0);
  victim.join();
  const auto v = t.validate();
  EXPECT_TRUE(v.ok) << v.error;
  for (int k = 0; k < 40; ++k) EXPECT_TRUE(t.contains(k));
  for (int k = 1000; k < 3000; ++k) EXPECT_TRUE(t.contains(k));
}

// ---------------------------------------------------------------------------
// Helping completes a stalled erase.
// ---------------------------------------------------------------------------

TEST(ChromaticFaultTest, HelpingCompletesStalledErase) {
  InjectChromatic<EpochReclaimer> t;
  for (int k : {10, 30, 50, 70}) ASSERT_TRUE(t.insert(k));

  FaultScheduler sched(
      FaultPlan{{stall_at(0, HookPoint::kBeforeScxChild)}});

  bool victim_ret = false;
  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    victim_ret = h.erase(30);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0));

  // The victim froze its whole window {gp, p, l, s} and is parked before the
  // child swing. A second eraser of the same key LLXes into the frozen
  // window, must help the stalled transaction to completion, and then report
  // the key already absent.
  {
    FaultScheduler::ThreadScope scope(sched, 1);
    auto h = t.handle();
    EXPECT_FALSE(h.erase(30));
  }
  EXPECT_FALSE(t.contains(30));
  EXPECT_GE(sched.point_hits(1, HookPoint::kBeforeHelp), 1u);

  // The released victim finds its SCX already committed by the helper and
  // must still report success — the transaction was *its* record.
  sched.release(0);
  victim.join();
  EXPECT_TRUE(victim_ret);
  EXPECT_TRUE(t.validate().ok);
  EXPECT_TRUE(t.contains(10));
  EXPECT_TRUE(t.contains(50));
  EXPECT_TRUE(t.contains(70));
}

// ---------------------------------------------------------------------------
// SCX child-swing ABA regression: a stalled helper's child CAS must never
// fire after its record committed and the field moved on.
// ---------------------------------------------------------------------------

TEST(ChromaticFaultTest, StalledInsertHelperCannotResurrectErasedSubtree) {
  // The adversarial schedule from the ABA analysis: the victim's fast-path
  // insert (V = {p}, the displaced leaf stays alive below the new internal,
  // nothing finalized) stalls between freezing p and its child CAS; a
  // second thread helps the SCX to completion; an erase of the new key then
  // splices the new internal back out of the very same child field,
  // retiring it. When the victim finally executes CAS(field, leaf,
  // internal), the field must not have returned to `leaf` — erase linking a
  // fresh copy of the sibling (never the old leaf by pointer) is what
  // guarantees it. A sibling hoisted by pointer would hand the stalled CAS
  // its expected value back, re-linking the retired internal: the erased
  // key would resurrect and the retired nodes would become reachable again.
  InjectChromatic<EpochReclaimer> t;
  for (int k : {100, 110, 120, 130}) ASSERT_TRUE(t.insert(k));

  FaultScheduler sched(FaultPlan{{stall_at(0, HookPoint::kBeforeScxChild)}});

  bool victim_ret = false;
  std::thread victim([&] {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    victim_ret = h.insert(105);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0)) << "victim never reached gate";

  {
    FaultScheduler::ThreadScope scope(sched, 1);
    auto h = t.handle();
    // Same-key insert runs into the frozen window, must help the stalled
    // SCX to completion (105 is linked by the helper's child CAS), and then
    // reports the duplicate.
    EXPECT_FALSE(h.insert(105));
    EXPECT_GE(sched.point_hits(1, HookPoint::kBeforeHelp), 1u);
    EXPECT_TRUE(h.contains(105));
    // Splice 105 straight back out of the same field the victim's pending
    // CAS targets, retiring the new internal and both leaves below it.
    EXPECT_TRUE(h.erase(105));
    EXPECT_FALSE(h.contains(105));
  }

  // The released victim's child CAS must fail (the field holds the erase's
  // fresh sibling copy, never the old leaf again); its record was committed
  // by the helper, so the insert still reports success.
  sched.release(0);
  victim.join();
  EXPECT_TRUE(victim_ret);
  EXPECT_FALSE(t.contains(105));
  for (int k : {100, 110, 120, 130}) EXPECT_TRUE(t.contains(k));
  const auto v = t.validate();
  EXPECT_TRUE(v.ok) << v.error;
}

// ---------------------------------------------------------------------------
// Forced freeze failure exercises the abort/retry edge deterministically.
// ---------------------------------------------------------------------------

TEST(ChromaticFaultTest, ForcedFreezeFailureRetriesThenSucceeds) {
  InjectChromatic<EpochReclaimer> t;
  for (int k : {10, 30, 50}) ASSERT_TRUE(t.insert(k));

  FaultScheduler sched(FaultPlan{{fail_cas(0, CasStep::kFreeze)}});
  {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    EXPECT_TRUE(h.erase(30));
  }
  EXPECT_FALSE(t.contains(30));
  EXPECT_TRUE(t.validate().ok);

  // The vetoed freeze forces: SCX abort, delete retry, a fresh LLX window,
  // and a second (successful) freeze sequence.
  EXPECT_GE(sched.step_hits(0, CasStep::kFreeze), 2u);
  EXPECT_GE(t.stats().delete_retries, 1u);
  const auto fired = sched.fired();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, FaultKind::kFailCas);
  EXPECT_EQ(fired[0].step, static_cast<int>(CasStep::kFreeze));
}

// ---------------------------------------------------------------------------
// Cleanup-abandonment regression: when every fix SCX is vetoed, the bounded
// cleanup loop hits kMaxCleanupRounds and gives up with the violation still
// in the tree. The fix under test: the abandonment is counted
// (TreeStats::cleanup_abandoned) and the violation key is parked so the next
// mutating op — even one whose own path stays under the cleanup threshold —
// resumes the repair. On the old code the parked red-red pair survived
// indefinitely, off every later search path.
// ---------------------------------------------------------------------------

TEST(ChromaticFaultTest, AbandonedCleanupIsCountedAndResumedByNextMutation) {
  // Ascending inserts stack one red-red pair per key on the right edge until
  // that path carries more than kLazyViolations and an insert runs cleanup.
  // An unscheduled twin finds that insert by its first rotation, so the
  // setup does not depend on the threshold's value.
  int trigger = -1;
  {
    InjectChromatic<EpochReclaimer> twin;
    for (int k = 1; k < 1000 && trigger < 0; ++k) {
      ASSERT_TRUE(twin.insert(k));
      if (twin.stats().rotations > 0) trigger = k;
    }
  }
  ASSERT_GT(trigger, 1) << "ascending inserts never triggered cleanup";

  InjectChromatic<EpochReclaimer> t;
  for (int k = 1; k < trigger; ++k) ASSERT_TRUE(t.insert(k));
  ASSERT_EQ(t.stats().rotations, 0u);

  // The triggering insert commits with its single freeze (fast path V={p});
  // every freeze after it — each fix SCX's — is vetoed, so cleanup burns its
  // full round budget and abandons.
  FaultScheduler sched(
      FaultPlan{{fail_cas(0, CasStep::kFreeze, /*occurrence=*/2,
                          /*count=*/100000)}});
  {
    FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    ASSERT_TRUE(h.insert(trigger));
  }
  EXPECT_GE(sched.point_hits(0, HookPoint::kBeforeRebalance), 1u);
  EXPECT_EQ(t.stats().rotations, 0u);

  // The abandonment is visible: counted, and the red-red pairs are still in
  // the tree (hard invariants hold; balance does not).
  EXPECT_GE(t.stats().cleanup_abandoned, 1u);
  const auto before = t.validate();
  ASSERT_TRUE(before.ok) << before.error;
  ASSERT_GE(before.red_red, 1u);

  // A mutating op whose own commit is violation-free (insert(0) hangs a red
  // internal under the black internal(2) — no trigger) must still drain the
  // parked repair. No scheduler is bound, so the resumed fixes succeed.
  ASSERT_TRUE(t.insert(0));

  const auto after = t.validate();
  EXPECT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.red_red, 0u);
  EXPECT_EQ(after.overweight, 0u);
  EXPECT_EQ(after.max_path_violations, 0u);
  for (int k = 0; k <= trigger; ++k) EXPECT_TRUE(t.contains(k));
}

}  // namespace
}  // namespace efrb
