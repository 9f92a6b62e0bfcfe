// Concurrent correctness of the EFRB tree under open scheduling: parity
// oracles, disjoint-access parallelism, reclamation under churn, map values
// under concurrent assignment, and post-run structural validation. These are
// the tests that would catch lost updates, double frees, stale reads through
// retired nodes, and broken tree shape.
#include <gtest/gtest.h>

#include "leak_check_opt_out.hpp"  // LeakyReclaimer / NaiveCasBst leak by design

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "core/efrb_tree.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

// scripts/check.sh rebuilds this suite with non-default traits:
//   -DEFRB_TEST_FORCE_STATS — StatsTraits, so every schedule also races the
//     per-handle stat shards and the shared counter block under TSan;
//   -DEFRB_TEST_FORCE_HOOKS — a live on_event sink, so every debug-hook
//     emission point executes real code under full concurrency (NoopTraits
//     would compile them away).
#if defined(EFRB_TEST_FORCE_HOOKS)
struct ForcedHookTraits : NoopTraits {
  static constexpr bool kCountStats = true;
  static inline std::atomic<std::uint64_t> cas_events{0};
  static inline std::atomic<std::uint64_t> point_events{0};
  static void on_event(const Event& e) noexcept {
    if (e.kind == EventKind::kCas) {
      cas_events.fetch_add(1, std::memory_order_relaxed);
    } else if (e.at_point()) {
      point_events.fetch_add(1, std::memory_order_relaxed);
    }
  }
};
using TestTraits = ForcedHookTraits;
#elif defined(EFRB_TEST_FORCE_STATS)
using TestTraits = StatsTraits;
#else
using TestTraits = NoopTraits;
#endif

template <typename Key, typename Reclaimer>
using TestTreeSet = EfrbTreeSet<Key, std::less<Key>, Reclaimer, TestTraits>;

/// Sets the stop flag when the scope exits — including early exits from a
/// failed ASSERT_*, which would otherwise leave the churn threads spinning
/// forever and turn the failure into a timeout.
struct StopOnExit {
  std::atomic<bool>& stop;
  ~StopOnExit() { stop.store(true); }
};

template <typename Reclaimer>
class ConcurrentTreeTest : public ::testing::Test {};

using Reclaimers =
    ::testing::Types<LeakyReclaimer, EpochReclaimer, HazardReclaimer>;
TYPED_TEST_SUITE(ConcurrentTreeTest, Reclaimers);

TYPED_TEST(ConcurrentTreeTest, ParityOracleUnderContention) {
  // Presence of key k after quiescence == (successful flips of k) mod 2.
  TestTreeSet<int, TypeParam> t;
  constexpr int kKeys = 48;
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 6000;
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);

  run_threads(kThreads, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 7 + 3);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      switch (rng.next_below(3)) {
        case 0:
          if (t.insert(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
          break;
        case 1:
          if (t.erase(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
          break;
        default:
          t.contains(k);
      }
    }
  });

  for (int k = 0; k < kKeys; ++k) {
    const bool expected = (flips[static_cast<std::size_t>(k)].load() % 2) == 1;
    EXPECT_EQ(t.contains(k), expected) << "key " << k;
  }
  const auto v = t.validate();
  EXPECT_TRUE(v.ok) << v.error;
}

TYPED_TEST(ConcurrentTreeTest, DisjointRangesNeverInterfere) {
  // §1: "Updates to different parts of the tree do not interfere" — each
  // thread owns a private key stripe; every one of its operations must
  // succeed exactly as in a single-threaded run.
  TestTreeSet<int, TypeParam> t;
  constexpr int kThreads = 8;
  constexpr int kStripe = 512;

  run_threads(kThreads, [&](std::size_t tid) {
    const int base = static_cast<int>(tid) * kStripe;
    for (int i = 0; i < kStripe; ++i) ASSERT_TRUE(t.insert(base + i));
    for (int i = 0; i < kStripe; ++i) ASSERT_TRUE(t.contains(base + i));
    for (int i = 0; i < kStripe; i += 2) ASSERT_TRUE(t.erase(base + i));
    for (int i = 1; i < kStripe; i += 2) ASSERT_TRUE(t.contains(base + i));
    for (int i = 0; i < kStripe; i += 2) ASSERT_FALSE(t.contains(base + i));
  });

  const auto v = t.validate();
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.real_leaves, kThreads * kStripe / 2u);
}

TYPED_TEST(ConcurrentTreeTest, ReadersSeeOnlyCommittedStates) {
  // Writers insert k then k+delta as a pair and remove them as a pair; since
  // the pair is not atomic the readers may see any prefix, but never a key
  // that was *never* inserted, and membership of an untouched pivot key is
  // stable throughout.
  TestTreeSet<int, TypeParam> t;
  t.insert(500000);  // pivot, never touched again
  std::atomic<bool> stop{false};

  run_threads(4, [&](std::size_t tid) {
    if (tid == 0) {  // reader
      StopOnExit guard{stop};
      Xoshiro256 rng(1);
      for (int i = 0; i < 40000; ++i) {
        ASSERT_TRUE(t.contains(500000));
        const int probe = static_cast<int>(rng.next_below(1000));
        t.contains(probe);  // must terminate; value is schedule-dependent
      }
      stop.store(true);
    } else {  // writers on disjoint pair families
      Xoshiro256 rng(tid);
      const int base = static_cast<int>(tid) * 1000;
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = base + static_cast<int>(rng.next_below(400));
        t.insert(k);
        t.insert(k + 400);
        t.erase(k);
        t.erase(k + 400);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

TEST(ConcurrentReclamationTest, NodesAreActuallyFreedUnderChurn) {
  EfrbTreeSet<int> t;  // EpochReclaimer by default
  run_threads(4, [&](std::size_t tid) {
    Xoshiro256 rng(tid + 11);
    for (int i = 0; i < 20000; ++i) {
      const int k = static_cast<int>(rng.next_below(256));
      if (i % 2 == 0) t.insert(k);
      else t.erase(k);
    }
    // Drain this worker's own retire list before exiting: retired entries
    // live in per-thread slots, so without this the observable freed count
    // at join time is schedule-dependent.
    t.reclaimer().flush();
  });
  // 80k updates on 256 keys: without reclamation this would strand tens of
  // thousands of nodes. The exact count is schedule-dependent; require a
  // substantial fraction to have been freed already (the rest drain on
  // destruction — ASan verifies nothing leaks or double-frees).
  EXPECT_GT(t.reclaimer().freed_count(), 10000u);
  EXPECT_TRUE(t.validate().ok);
}

TEST(ConcurrentMapTest, ConcurrentAssignLastWriterWins) {
  // insert_or_assign from many threads on one key: the final value must be
  // one of the written values (no torn/garbage value), and get() during the
  // run always returns a complete written value.
  EfrbTreeMap<int, std::uint64_t> m;
  constexpr std::uint64_t kMagic = 0xabcd000000000000ULL;
  run_threads(6, [&](std::size_t tid) {
    Xoshiro256 rng(tid);
    for (int i = 0; i < 4000; ++i) {
      m.insert_or_assign(7, kMagic | (tid << 16) | static_cast<unsigned>(i % 1000));
      const auto v = m.get(7);
      if (v.has_value()) {
        ASSERT_EQ(*v & 0xffff000000000000ULL, kMagic) << "torn value";
      }
    }
  });
  const auto final_v = m.get(7);
  ASSERT_TRUE(final_v.has_value());
  EXPECT_EQ(*final_v & 0xffff000000000000ULL, kMagic);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.validate().ok);
}

TEST(ConcurrentMapTest, MixedMapOperationsParityOracle) {
  EfrbTreeMap<int, int> m;
  constexpr int kKeys = 32;
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);
  run_threads(4, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 13 + 5);
    for (int i = 0; i < 5000; ++i) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      switch (rng.next_below(4)) {
        case 0:
          if (m.insert(k, k * 100)) flips[static_cast<std::size_t>(k)].fetch_add(1);
          break;
        case 1:
          if (m.erase(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
          break;
        case 2: {
          const auto v = m.get(k);
          if (v.has_value()) { ASSERT_EQ(*v, k * 100); }
          break;
        }
        default:
          m.contains(k);
      }
    }
  });
  for (int k = 0; k < kKeys; ++k) {
    const bool expected = (flips[static_cast<std::size_t>(k)].load() % 2) == 1;
    EXPECT_EQ(m.contains(k), expected) << "key " << k;
  }
}

TEST(ConcurrentMinMaxTest, OrderedQueriesUnderChurn) {
  // min/max must always return either nullopt or a key that was a plausible
  // extreme: we keep fixed fences (0 and 1000) and churn strictly inside, so
  // min()==0 and max()==1000 at all times.
  EfrbTreeSet<int> t;
  t.insert(0);
  t.insert(1000);
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    if (tid == 0) {
      StopOnExit guard{stop};
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(t.min_key(), std::optional<int>(0));
        ASSERT_EQ(t.max_key(), std::optional<int>(1000));
      }
      stop.store(true);
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = 1 + static_cast<int>(rng.next_below(998));
        t.insert(k);
        t.erase(k);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

TEST(ConcurrentStressTest, HighContentionTinyKeyRange) {
  // Worst case for the protocol: every operation collides near the root.
  EfrbTreeSet<int> t;
  std::vector<std::atomic<std::uint64_t>> flips(4);
  run_threads(8, [&](std::size_t tid) {
    Xoshiro256 rng(tid);
    for (int i = 0; i < 5000; ++i) {
      const int k = static_cast<int>(rng.next_below(4));
      if (rng.next_below(2) == 0) {
        if (t.insert(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
      } else {
        if (t.erase(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
      }
    }
  });
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(t.contains(k),
              (flips[static_cast<std::size_t>(k)].load() % 2) == 1);
  }
  EXPECT_TRUE(t.validate().ok);
}

TEST(ConcurrentStressTest, RepeatedTreesDoNotInterfere) {
  // Many short-lived trees sharing threads exercises the reclaimer's
  // slot/lease reuse across instances.
  for (int round = 0; round < 8; ++round) {
    EfrbTreeSet<int> t;
    run_threads(4, [&](std::size_t tid) {
      for (int i = 0; i < 500; ++i) {
        const int k = static_cast<int>(tid) * 500 + i;
        ASSERT_TRUE(t.insert(k));
      }
    });
    EXPECT_EQ(t.size(), 2000u);
  }
}

}  // namespace
}  // namespace efrb
