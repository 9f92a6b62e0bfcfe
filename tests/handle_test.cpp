// Lifecycle and accounting tests for the per-thread operation Handle API:
// slot/shard acquisition and release across thread churn, moved-from handle
// semantics (on both trees, which share one Handle), and exact stats
// aggregation across cacheline-padded shards — under both the epoch
// reclaimer and the grace-round hazard reclaimer.
#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "leak_check_opt_out.hpp"  // LeakyReclaimer cells leak by design
#include "reclaim/hazard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

// ---------------------------------------------------------------------------
// Basic operation coverage through a handle.
// ---------------------------------------------------------------------------

TEST(HandleTest, SetOperationsMatchTreeLevel) {
  EfrbTreeSet<int> t;
  auto h = t.handle();
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(h.insert(1));
  EXPECT_FALSE(h.insert(1));
  EXPECT_TRUE(h.contains(1));
  EXPECT_FALSE(h.contains(2));
  EXPECT_TRUE(h.erase(1));
  EXPECT_FALSE(h.erase(1));
  // Handle and tree-level calls interleave freely on the same tree.
  EXPECT_TRUE(t.insert(3));
  EXPECT_TRUE(h.contains(3));
  EXPECT_TRUE(h.erase(3));
  EXPECT_FALSE(t.contains(3));
}

TEST(HandleTest, MapOperationsThroughHandle) {
  EfrbTreeMap<int, int> m;
  auto h = m.handle();
  EXPECT_TRUE(h.insert(1, 10));
  EXPECT_EQ(h.get(1), std::optional<int>(10));
  EXPECT_FALSE(h.insert(1, 20));
  EXPECT_FALSE(h.insert_or_assign(1, 20));  // assigned, not newly inserted
  EXPECT_EQ(h.get(1), std::optional<int>(20));
  EXPECT_FALSE(h.replace(1, 99, 30));
  EXPECT_TRUE(h.replace(1, 20, 30));
  EXPECT_EQ(h.get_or_insert(1, 77), 30);
  EXPECT_EQ(h.get_or_insert(2, 77), 77);
  EXPECT_TRUE(h.erase(1));
  EXPECT_FALSE(h.get(1).has_value());
}

TEST(HandleTest, PerHandleRngStreamsAreDistinct) {
  EfrbTreeSet<int> t;
  auto h1 = t.handle();
  auto h2 = t.handle();
  // Splitmix-seeded per handle: two handles must not replay the same stream
  // (the failure mode of the thread-id-seeded skiplist level RNG).
  bool diverged = false;
  for (int i = 0; i < 8 && !diverged; ++i) {
    diverged = h1.rng().next() != h2.rng().next();
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Move semantics and detach.
// ---------------------------------------------------------------------------

TEST(HandleTest, MoveTransfersOwnership) {
  EfrbTreeSet<int> t;
  auto h = t.handle();
  ASSERT_TRUE(h.insert(1));

  auto h2 = std::move(h);
  EXPECT_FALSE(h.valid());  // NOLINT(bugprone-use-after-move): spec under test
  ASSERT_TRUE(h2.valid());
  EXPECT_TRUE(h2.contains(1));
  EXPECT_TRUE(h2.insert(2));

  EfrbTreeSet<int>::Handle h3;  // default-constructed: invalid move target
  EXPECT_FALSE(h3.valid());
  h3 = std::move(h2);
  EXPECT_FALSE(h2.valid());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(h3.valid());
  EXPECT_TRUE(h3.contains(2));
}

TEST(HandleTest, DoubleDetachAndMovedFromDetachAreSafe) {
  EfrbTreeSet<int> t;
  auto h = t.handle();
  auto h2 = std::move(h);
  h.detach();   // NOLINT(bugprone-use-after-move): no-op on moved-from
  h.detach();   // idempotent
  h2.detach();
  h2.detach();  // idempotent on a detached handle too
  EXPECT_FALSE(h2.valid());
  // The tree is still fully usable afterwards.
  EXPECT_TRUE(t.insert(9));
  EXPECT_TRUE(t.contains(9));
}

TEST(HandleTest, MoveAssignReleasesTargetResources) {
  // Move-assigning over a live handle must release the target's slot/shard:
  // with max_threads == 2 a leak would exhaust the registry immediately.
  EfrbTreeSet<int, std::less<int>, EpochReclaimer> t(
      std::less<int>{}, EpochReclaimer(/*max_threads=*/2));
  for (int i = 0; i < 16; ++i) {
    auto a = t.handle();
    ASSERT_TRUE(a.insert(i));
    auto b = t.handle();  // both slots now in use
    b = std::move(a);     // must free b's original slot, not leak it
    ASSERT_TRUE(b.contains(i));
  }
}

/// Vetoes the next `veto` protocol CASes, forcing a deterministic retry.
struct VetoTraits : NoopTraits {
  static inline int veto = 0;  // NOLINT: test-only global, tests run serially
  static bool allow_cas(CasStep, const void*, unsigned) {
    if (veto == 0) return true;
    --veto;
    return false;
  }
};

template <typename Tree>
class HandleMoveTest : public ::testing::Test {};

using VetoTrees =
    ::testing::Types<EfrbTreeMap<int, int, std::less<int>, EpochReclaimer,
                                 VetoTraits>,
                     ChromaticTreeMap<int, int, std::less<int>,
                                      EpochReclaimer, VetoTraits>>;
TYPED_TEST_SUITE(HandleMoveTest, VetoTrees);

TYPED_TEST(HandleMoveTest, MovesCarryLastOpRetried) {
  TypeParam t;
  auto a = t.handle();
  VetoTraits::veto = 1;
  ASSERT_TRUE(a.insert(1, 10));
  ASSERT_EQ(VetoTraits::veto, 0);
  ASSERT_TRUE(a.last_op_retried());

  auto b = t.handle();
  ASSERT_TRUE(b.insert(2, 20));
  ASSERT_FALSE(b.last_op_retried());
  b = std::move(a);  // move assignment
  EXPECT_TRUE(b.last_op_retried());

  typename TypeParam::Handle c(std::move(b));  // move construction
  EXPECT_TRUE(c.last_op_retried());
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.last_op_retried());  // a clean op resets it
}

// ---------------------------------------------------------------------------
// Thread churn: handles from short-lived threads must recycle reclaimer
// slots and stat shards under both reclaimers.
// ---------------------------------------------------------------------------

template <typename ReclaimerT>
class HandleChurnTest : public ::testing::Test {};

using Reclaimers = ::testing::Types<EpochReclaimer, HazardReclaimer>;
TYPED_TEST_SUITE(HandleChurnTest, Reclaimers);

TYPED_TEST(HandleChurnTest, ThreadChurnRecyclesSlots) {
  // 12 generations x 4 threads = 48 handles through a 4-slot registry; if
  // detach leaked slots the acquire assertion would fire in generation 2.
  using Tree = EfrbTreeSet<int, std::less<int>, TypeParam, StatsTraits>;
  Tree t(std::less<int>{}, TypeParam(/*max_threads=*/4, /*retire_batch=*/16));
  for (int gen = 0; gen < 12; ++gen) {
    run_threads(4, [&](std::size_t tid) {
      auto h = t.handle();
      const int base = (static_cast<int>(tid) + 1) * 1000;
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(h.insert(base + i));
        ASSERT_TRUE(h.contains(base + i));
        ASSERT_TRUE(h.erase(base + i));
      }
      h.flush();
    });
  }
  EXPECT_TRUE(t.validate().ok);
}

TYPED_TEST(HandleChurnTest, ReclaimerFreesThroughAttachments) {
  using Tree = EfrbTreeSet<int, std::less<int>, TypeParam>;
  Tree t(std::less<int>{}, TypeParam(/*max_threads=*/8, /*retire_batch=*/32));
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid + 21);
    for (int i = 0; i < 8000; ++i) {
      const int k = static_cast<int>(rng.next_below(64));
      if (i % 2 == 0) h.insert(k);
      else h.erase(k);
    }
    h.flush();  // drain this handle's retire backlog before detaching
  });
  EXPECT_GT(t.reclaimer().freed_count(), 100u)
      << "attachment-routed retires never reached the reclaimer";
}

TEST(HandleChurnSequentialTest, ShardPoolRecyclesBeyondCapacity) {
  // More sequential handle generations than kMaxHandles (128): every
  // acquire must be matched by a release or the shard pool asserts.
  using Tree = EfrbTreeSet<int, std::less<int>, EpochReclaimer, StatsTraits>;
  Tree t;
  std::uint64_t inserts = 0;
  for (int gen = 0; gen < 300; ++gen) {
    auto h = t.handle();
    ASSERT_TRUE(h.insert(gen));
    ++inserts;
  }
  // Released shards keep their counts (lifetime totals), so the aggregate
  // still reflects every insert ever made through any handle.
  EXPECT_EQ(t.stats().insert_attempts, inserts);
}

// ---------------------------------------------------------------------------
// Exact stats aggregation across shards.
// ---------------------------------------------------------------------------

template <typename ReclaimerT>
class HandleStatsTest : public ::testing::Test {};

TYPED_TEST_SUITE(HandleStatsTest, Reclaimers);

TYPED_TEST(HandleStatsTest, ShardAggregationIsExactUnderDisjointChurn) {
  // The stats_test disjoint-stripe schedule, driven through handles: zero
  // conflicts by construction, so stats() must equal the per-op counts
  // exactly — one iflag per insert, one dflag per erase, nothing else. This
  // is the strongest possible check that shard aggregation loses nothing.
  using Tree = EfrbTreeSet<int, std::less<int>, TypeParam, StatsTraits>;
  Tree t;
  constexpr int kThreads = 4;
  constexpr int kStripe = 100;
  constexpr int kRounds = 40;
  std::uint64_t prefill = 0;
  for (int k = 0; k < kThreads * kStripe; ++k, ++prefill) {
    ASSERT_TRUE(t.insert(k));
  }

  std::atomic<std::uint64_t> handle_inserts{0}, handle_erases{0};
  run_threads(kThreads, [&](std::size_t tid) {
    auto h = t.handle();
    std::uint64_t my_inserts = 0, my_erases = 0;
    const int base = static_cast<int>(tid) * kStripe;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 10; i < kStripe - 10; i += 2) {
        ASSERT_TRUE(h.erase(base + i));
        ++my_erases;
        ASSERT_TRUE(h.insert(base + i));
        ++my_inserts;
      }
    }
    // local_stats() sees exactly this handle's share.
    const auto mine = h.local_stats();
    EXPECT_EQ(mine.insert_attempts, my_inserts);
    EXPECT_EQ(mine.delete_attempts, my_erases);
    handle_inserts.fetch_add(my_inserts);
    handle_erases.fetch_add(my_erases);
    h.flush();
  });

  const auto s = t.stats();
  EXPECT_EQ(s.insert_attempts, prefill + handle_inserts.load());
  EXPECT_EQ(s.delete_attempts, handle_erases.load());
  EXPECT_EQ(s.helps, 0u);
  EXPECT_EQ(s.backtracks, 0u);
  EXPECT_EQ(s.insert_retries, 0u);
  EXPECT_EQ(s.delete_retries, 0u);
}

TYPED_TEST(HandleStatsTest, CountingLawsHoldAcrossShardsUnderContention) {
  // Hot-key contention through handles: attempts split across per-handle
  // shards, but the aggregate must still obey the tree's counting laws.
  using Tree = EfrbTreeSet<int, std::less<int>, TypeParam, StatsTraits>;
  Tree t;
  std::atomic<std::uint64_t> ok_inserts{0}, ok_erases{0};
  run_threads(6, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid * 5 + 3);
    for (int i = 0; i < 4000; ++i) {
      const int k = static_cast<int>(rng.next_below(8));
      if (rng.next_below(2) == 0) {
        ok_inserts += h.insert(k) ? 1 : 0;
      } else {
        ok_erases += h.erase(k) ? 1 : 0;
      }
    }
    h.flush();
  });
  const auto s = t.stats();
  EXPECT_GE(s.insert_attempts, ok_inserts.load());
  EXPECT_LE(s.insert_attempts - ok_inserts.load(), s.insert_retries);
  EXPECT_GE(s.delete_attempts, ok_erases.load() + s.backtracks);
  EXPECT_LE(s.delete_attempts - (ok_erases.load() + s.backtracks),
            s.delete_retries);
}

// ---------------------------------------------------------------------------
// Leaky reclaimer: handle() must still work (no-op attachment).
// ---------------------------------------------------------------------------

TEST(HandleTest, LeakyReclaimerHandlesAreNoOpAttachments) {
  EfrbTreeSet<int, std::less<int>, LeakyReclaimer> t;
  auto h = t.handle();
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(h.insert(1));
  EXPECT_TRUE(h.erase(1));
  h.flush();
  h.detach();
  EXPECT_FALSE(h.valid());
}

}  // namespace
}  // namespace efrb
