// Chaos scheduling: random yields injected at every protocol hook point
// drastically widen the set of interleavings a single-core host explores
// (every yield is a potential context switch exactly between two CAS steps).
// Also: stress with non-trivial key types (std::string) whose copies and
// destructions run inside nodes managed by the reclaimer.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
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

/// Yields with probability 1/4 at every hook point — between every pair of
/// protocol steps — so flags and marks are routinely left exposed across
/// context switches.
struct ChaosTraits : NoopTraits {
  static constexpr bool kCountStats = true;
  static void on_event(const Event& e) {
    if (!e.at_point()) return;
    thread_local Xoshiro256 rng(
        0x517cc1b727220a95ULL ^
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    if (rng.next_below(4) == 0) std::this_thread::yield();
  }
};

using ChaosTree = EfrbTreeSet<int, std::less<int>, EpochReclaimer, ChaosTraits>;

TEST(ChaosTest, ParityOracleUnderInjectedPreemption) {
  ChaosTree t;
  constexpr int kKeys = 24;
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);
  run_threads(6, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 101 + 7);
    for (int i = 0; i < 3000; ++i) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      if (rng.next_below(2) == 0) {
        if (t.insert(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
      } else {
        if (t.erase(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
      }
    }
  });
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.contains(k),
              (flips[static_cast<std::size_t>(k)].load() % 2) == 1)
        << "key " << k;
  }
  EXPECT_TRUE(t.validate().ok);
  // Chaos scheduling must actually have provoked coordination traffic —
  // otherwise this test is not testing what it claims.
  EXPECT_GT(t.stats().helps + t.stats().insert_retries +
                t.stats().delete_retries,
            0u)
      << "no conflicts provoked; increase yield probability";
}

struct ChaosHelpingTraits : ChaosTraits {
  static constexpr bool kSearchHelpsMarked = true;
};

TEST(ChaosTest, HelpingSearchVariantUnderInjectedPreemption) {
  EfrbTreeSet<int, std::less<int>, EpochReclaimer, ChaosHelpingTraits> t;
  std::vector<std::atomic<std::uint64_t>> flips(16);
  run_threads(4, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 13 + 1);
    for (int i = 0; i < 3000; ++i) {
      const int k = static_cast<int>(rng.next_below(16));
      switch (rng.next_below(3)) {
        case 0:
          if (t.insert(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
          break;
        case 1:
          if (t.erase(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
          break;
        default:
          t.contains(k);  // may splice marked nodes mid-walk
      }
    }
  });
  for (int k = 0; k < 16; ++k) {
    EXPECT_EQ(t.contains(k),
              (flips[static_cast<std::size_t>(k)].load() % 2) == 1);
  }
  EXPECT_TRUE(t.validate().ok);
}

// ---------------------------------------------------------------------------
// Non-trivial key/value types under concurrency + reclamation.
// ---------------------------------------------------------------------------

TEST(NonPodKeyTest, ConcurrentStringKeys) {
  // Long strings (heap-allocated) make every node construction/destruction a
  // real allocator event; a node freed too early turns the key read into a
  // use-after-free that ASan catches.
  EfrbTreeSet<std::string> t;
  constexpr int kKeys = 32;
  auto key_of = [](int i) {
    return "key-" + std::string(64, static_cast<char>('a' + (i % 26))) + "-" +
           std::to_string(i);
  };
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);
  run_threads(4, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 7 + 5);
    for (int i = 0; i < 2500; ++i) {
      const int idx = static_cast<int>(rng.next_below(kKeys));
      const std::string k = key_of(idx);
      switch (rng.next_below(3)) {
        case 0:
          if (t.insert(k)) flips[static_cast<std::size_t>(idx)].fetch_add(1);
          break;
        case 1:
          if (t.erase(k)) flips[static_cast<std::size_t>(idx)].fetch_add(1);
          break;
        default:
          t.contains(k);
      }
    }
  });
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(t.contains(key_of(i)),
              (flips[static_cast<std::size_t>(i)].load() % 2) == 1);
  }
  EXPECT_TRUE(t.validate().ok);
}

TEST(NonPodKeyTest, ConcurrentStringValuesWithAssign) {
  EfrbTreeMap<int, std::string> m;
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    if (tid == 0) {
      StopOnExit guard{stop};
      for (int i = 0; i < 8000; ++i) {
        const auto v = m.get(1);
        if (v.has_value()) {
          // A torn/freed value would fail this shape check (or ASan).
          ASSERT_EQ(v->substr(0, 6), "value-");
          ASSERT_GE(v->size(), 70u);
        }
      }
      stop.store(true);
    } else {
      Xoshiro256 rng(tid);
      const std::string mine =
          "value-" + std::string(64, static_cast<char>('A' + tid)) + "-t" +
          std::to_string(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        m.insert_or_assign(1, mine);
        if (rng.next_below(8) == 0) m.erase(1);
      }
    }
  });
  SUCCEED();
}

TEST(NonPodKeyTest, ReverseComparatorConcurrent) {
  EfrbTreeSet<int, std::greater<int>> t;
  run_threads(4, [&](std::size_t tid) {
    const int base = static_cast<int>(tid) * 500;
    for (int i = 0; i < 500; ++i) ASSERT_TRUE(t.insert(base + i));
    for (int i = 0; i < 500; i += 2) ASSERT_TRUE(t.erase(base + i));
  });
  const auto v = t.validate();
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.real_leaves, 1000u);
  // greater<> order: min_key is the largest surviving int.
  EXPECT_EQ(t.min_key(), std::optional<int>(1999));
  EXPECT_EQ(t.max_key(), std::optional<int>(1));
}

}  // namespace
}  // namespace efrb
