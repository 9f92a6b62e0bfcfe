// Tests for the §6 Search variant (Traits::kSearchHelpsMarked): "a Search
// helps Delete operations to perform their dchild CAS steps to remove from
// the tree marked nodes that the Search encounters" — the modification the
// paper proposes to make hazard-pointer reclamation applicable.
//
// Key behavioural difference from the default tree (where Find never helps,
// see HelpingTest.FindNeverHelps): with this variant, a lookup that walks
// into a marked node completes the splice before proceeding.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

/// Sets the stop flag when the scope exits — including early exits from a
/// failed ASSERT_*, which would otherwise leave the churn threads spinning
/// forever and turn the failure into a timeout.
struct StopOnExit {
  std::atomic<bool>& stop;
  ~StopOnExit() { stop.store(true); }
};

using HelpingTree =
    EfrbTreeSet<int, std::less<int>, EpochReclaimer, HelpingSearchTraits>;

// A hybrid traits type: hooks like CallbackTraits plus the §6 search, so we
// can freeze a deleter mid-operation while the tree under test has the
// helping search enabled.
struct HookedHelpingTraits : CallbackTraits {
  static constexpr bool kSearchHelpsMarked = true;
};

using HookedHelpingTree =
    EfrbTreeSet<int, std::less<int>, EpochReclaimer, HookedHelpingTraits>;

thread_local int g_role = 0;

TEST(HelpingSearchTest, SequentialSemanticsUnchanged) {
  HelpingTree t;
  std::set<int> oracle;
  Xoshiro256 rng(42);
  for (int i = 0; i < 6000; ++i) {
    const int k = static_cast<int>(rng.next_below(256));
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(t.insert(k), oracle.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(t.erase(k), oracle.erase(k) != 0);
        break;
      default:
        ASSERT_EQ(t.contains(k), oracle.count(k) != 0);
    }
  }
  EXPECT_EQ(t.size(), oracle.size());
  EXPECT_TRUE(t.validate().ok);
}

TEST(HelpingSearchTest, LookupSplicesOutMarkedNode) {
  // Freeze a delete between its mark CAS and its dchild CAS; with the §6
  // search, a subsequent contains() on ANY key routed through the marked
  // node must complete the splice: the deleted key becomes unreachable
  // before the frozen deleter resumes.
  HookedHelpingTree t;
  t.insert(10);
  t.insert(20);

  YieldingBarrier reached(2), resume(2);
  std::atomic<bool> armed{true};
  CallbackTraits::at_fn = [&](HookPoint p) {
    if (g_role == 1 && p == HookPoint::kBeforeDChild && armed.exchange(false)) {
      reached.arrive_and_wait();
      resume.arrive_and_wait();
    }
  };

  std::thread frozen([&] {
    g_role = 1;
    EXPECT_TRUE(t.erase(10));
    g_role = 0;
  });
  reached.arrive_and_wait();

  // The parent of leaf 10 is marked and still linked. A default-traits tree
  // would keep routing through it; this lookup must splice it.
  EXPECT_FALSE(t.contains(10));
  // After one search through the region the marked node must be gone:
  // deleting 20 now requires gp/p to be clean, which only holds post-splice.
  EXPECT_TRUE(t.erase(20));
  EXPECT_TRUE(t.empty());

  resume.arrive_and_wait();
  frozen.join();
  CallbackTraits::reset();
  EXPECT_TRUE(t.validate().ok);
}

TEST(HelpingSearchTest, ConcurrentParityOracle) {
  HelpingTree t;
  constexpr int kKeys = 32;
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);
  run_threads(6, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 17 + 3);
    for (int i = 0; i < 5000; ++i) {
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
    EXPECT_EQ(t.contains(k),
              (flips[static_cast<std::size_t>(k)].load() % 2) == 1)
        << "key " << k;
  }
  EXPECT_TRUE(t.validate().ok);
}

TEST(HelpingSearchTest, ReadersDriveCleanupUnderChurn) {
  // Heavy read traffic + update churn: the helping search must never break
  // reads (they see exactly the committed states) and the tree stays valid.
  HelpingTree t;
  t.insert(5000);  // stable pivot
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    if (tid < 2) {  // readers
      StopOnExit guard{stop};
      Xoshiro256 rng(tid + 1);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(t.contains(5000));
        t.contains(static_cast<int>(rng.next_below(1000)));
      }
      stop.store(true);
    } else {  // updaters
      Xoshiro256 rng(tid + 100);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(1000));
        t.insert(k);
        t.erase(k);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
  EXPECT_TRUE(t.contains(5000));
}

TEST(HelpingSearchTest, OrderedQueriesWorkWithHelpingSearch) {
  HelpingTree t;
  for (int k = 0; k < 100; k += 2) t.insert(k);
  EXPECT_EQ(t.find_ge(51), std::optional<int>(52));
  EXPECT_EQ(t.find_le(51), std::optional<int>(50));
  EXPECT_EQ(t.count_range(10, 20), 6u);
  EXPECT_EQ(t.min_key(), std::optional<int>(0));
  EXPECT_EQ(t.max_key(), std::optional<int>(98));
}

}  // namespace
}  // namespace efrb
