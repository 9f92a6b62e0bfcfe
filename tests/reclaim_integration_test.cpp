// Integration of the tree with its reclamation policy: object-lifecycle
// accounting across the retirement protocol (nodes at unflag, Info records at
// the next overwriting CAS), destructor behaviour with un-overwritten Clean
// words, reclaimer sharing across many trees and thread generations, thread
// leases that do not outlive destroyed trees, and — since every node and
// record is a plain new/delete — the reclaimer as the only path by which
// erased nodes go back to the heap: on both trees under both safe policies,
// under steady churn, under concurrent handles, with each thread holding
// handles on several trees at once, and around a deleter stalled
// mid-protocol.
// ASan runs of this binary are the authoritative double-free/leak check.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// Exported by the ASan and TSan runtimes; declared here because not every
// toolchain installs <sanitizer/allocator_interface.h>.
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "reclaim/hazard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

TEST(ReclaimIntegrationTest, SequentialChurnFreesNodesAndRecords) {
  EfrbTreeSet<int> t;
  // Alternate insert/erase on one key: each round retires 1 leaf + 1 internal
  // + 1 leaf (insert replaces ∞-leaf sibling copies around) + info records.
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(t.insert(7));
    ASSERT_TRUE(t.erase(7));
  }
  t.reclaimer().flush();
  // 20k insert+delete rounds generate ~5 retired objects each; the precise
  // number depends on the retirement protocol, but the order of magnitude
  // must be there (i.e. the tree is not leaking its history).
  EXPECT_GT(t.reclaimer().freed_count(), 50000u);
}

TEST(ReclaimIntegrationTest, InfoRecordsAreRetiredByOverwritingCas) {
  // A single insert leaves its IInfo referenced by the parent's Clean word —
  // not yet retired. A subsequent delete flags/marks through that word and
  // must retire the record. We can't observe individual records, but we can
  // observe the count delta with a tiny retire batch.
  EfrbTreeSet<int> t(std::less<int>{}, EpochReclaimer(8, /*retire_batch=*/1));
  t.insert(1);              // IInfo_1 parked in a Clean word
  t.insert(2);              // IInfo_2 parked (different parent word)
  t.reclaimer().flush();
  const auto before = t.reclaimer().freed_count();
  // Deleting 2 dflags the grandparent and marks the parent: both CASes
  // overwrite Clean words holding the parked IInfos, retiring them, and the
  // dunflag retires the spliced parent + deleted leaf.
  ASSERT_TRUE(t.erase(2));
  for (int i = 0; i < 4; ++i) {
    [[maybe_unused]] auto g = t.reclaimer().pin();
    t.reclaimer().flush();
  }
  EXPECT_GE(t.reclaimer().freed_count(), before + 3)
      << "parked Info records / spliced nodes were not reclaimed";
}

TEST(ReclaimIntegrationTest, DestructorFreesParkedInfoRecords) {
  // Insert-only workload: every parent's Clean word holds a parked IInfo at
  // destruction (never overwritten). The destructor must free them — under
  // ASan this test fails with a leak report if it does not.
  auto* t = new EfrbTreeSet<int>();
  for (int k = 0; k < 2000; ++k) ASSERT_TRUE(t->insert(k));
  delete t;
  SUCCEED();
}

TEST(ReclaimIntegrationTest, DestructorAfterMixedWorkload) {
  auto* t = new EfrbTreeSet<int>();
  Xoshiro256 rng(3);
  for (int i = 0; i < 30000; ++i) {
    const int k = static_cast<int>(rng.next_below(128));
    if (rng.next_below(2) == 0) t->insert(k);
    else t->erase(k);
  }
  delete t;  // ASan: no leaks, no double frees of records shared by words
  SUCCEED();
}

TEST(ReclaimIntegrationTest, ConcurrentChurnThenDestruction) {
  for (int round = 0; round < 5; ++round) {
    auto* t = new EfrbTreeSet<int>();
    run_threads(4, [&](std::size_t tid) {
      Xoshiro256 rng(tid * 11 + static_cast<std::uint64_t>(round));
      for (int i = 0; i < 4000; ++i) {
        const int k = static_cast<int>(rng.next_below(64));
        if (rng.next_below(2) == 0) t->insert(k);
        else t->erase(k);
      }
    });
    delete t;
  }
  SUCCEED();
}

TEST(ReclaimIntegrationTest, SmallRetireBatchUnderConcurrency) {
  // retire_batch=1 maximizes epoch-advance and sweep frequency — the most
  // aggressive reclamation schedule must still never free a reachable node.
  EfrbTreeSet<int> t(std::less<int>{}, EpochReclaimer(16, 1));
  std::vector<std::atomic<std::uint64_t>> flips(32);
  run_threads(4, [&](std::size_t tid) {
    Xoshiro256 rng(tid);
    for (int i = 0; i < 6000; ++i) {
      const int k = static_cast<int>(rng.next_below(32));
      if (rng.next_below(2) == 0) {
        if (t.insert(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
      } else {
        if (t.erase(k)) flips[static_cast<std::size_t>(k)].fetch_add(1);
      }
    }
  });
  for (int k = 0; k < 32; ++k) {
    EXPECT_EQ(t.contains(k),
              (flips[static_cast<std::size_t>(k)].load() % 2) == 1);
  }
  EXPECT_TRUE(t.validate().ok);
  EXPECT_GT(t.reclaimer().freed_count(), 0u);
}

TEST(ReclaimIntegrationTest, ManyTreesShareThreadSlots) {
  // Sequentially created trees on the same thread exercise the thread-local
  // lease cache (instance -> slot) and slot recycling.
  for (int i = 0; i < 50; ++i) {
    EfrbTreeSet<int> t;
    for (int k = 0; k < 100; ++k) t.insert(k);
    for (int k = 0; k < 100; ++k) t.erase(k);
    EXPECT_TRUE(t.empty());
  }
  SUCCEED();
}

TEST(ReclaimIntegrationTest, TreesOutliveWorkerThreads) {
  // Worker threads die between operation bursts; their epoch slots must be
  // recycled and their unfreed retire lists inherited safely.
  EfrbTreeSet<int> t(std::less<int>{}, EpochReclaimer(/*max_threads=*/4, 8));
  for (int gen = 0; gen < 12; ++gen) {
    std::thread w([&, gen] {
      for (int i = 0; i < 300; ++i) {
        const int k = gen * 1000 + i;
        t.insert(k);
        t.erase(k);
      }
    });
    w.join();
  }
  EXPECT_TRUE(t.validate().ok);
  EXPECT_TRUE(t.empty());
}

TEST(ReclaimIntegrationTest, HelpingDoesNotDoubleRetire) {
  // High-contention single-key fight: many helpers race to complete the same
  // operations. Every retirement site is guarded by a unique CAS winner; a
  // double retire becomes a double free that ASan catches here.
  EfrbTreeSet<int> t(std::less<int>{}, EpochReclaimer(16, 4));
  run_threads(8, [&](std::size_t tid) {
    for (int i = 0; i < 4000; ++i) {
      if ((i + static_cast<int>(tid)) % 2 == 0) t.insert(1);
      else t.erase(1);
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

// Bytes allocated and not yet freed. A sanitizer runtime replaces malloc
// (its mallinfo2 reports zeros), so ask its allocator; otherwise glibc's
// in-use total: arena chunks plus mmapped ones.
std::size_t heap_in_use() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return __sanitizer_get_current_allocated_bytes();
#else
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#endif
}

template <typename Reclaimer>
class LeaseLifetimeTest : public ::testing::Test {};

using LeaseReclaimers = ::testing::Types<EpochReclaimer, HazardReclaimer>;
TYPED_TEST_SUITE(LeaseLifetimeTest, LeaseReclaimers);

TYPED_TEST(LeaseLifetimeTest, DestroyedTreesAreNotPinnedByThreadLeases) {
  // Tree-level calls go through the calling thread's reclaimer lease. The
  // lease holds the registry weakly, so it must not keep a destroyed tree's
  // registry, and the retire backlog in its slot, alive until the thread
  // exits: after five build/destroy cycles on one thread, at most one live
  // tree's worth may still be in use. The retire batch exceeds the number of
  // erases, so no sweep runs and every retired object stays in the lease
  // slot's backlog until the registry dies. Runs on a fresh thread so the
  // measurement ends before its leases are torn down.
  constexpr std::size_t kNoSweepBatch = std::size_t{1} << 20;
  std::vector<int> keys(20000);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), std::mt19937(7));  // keep it shallow
  std::size_t one_tree = 0;
  std::size_t after = 0;
  std::size_t before = 0;
  std::thread([&] {
    before = heap_in_use();
    for (int round = 0; round < 5; ++round) {
      EfrbTreeMap<int, int, std::less<int>, TypeParam> t(
          std::less<int>{}, TypeParam(/*max_threads=*/8, kNoSweepBatch));
      for (int k : keys) t.insert(k, k);
      // Retire half through the lease slot, so its backlog holds nodes.
      for (std::size_t i = 0; i < keys.size(); i += 2) t.erase(keys[i]);
      if (round == 0) one_tree = heap_in_use() - before;
    }
    after = heap_in_use();
  }).join();
  const std::size_t pinned = after > before ? after - before : 0;
  EXPECT_LE(pinned, one_tree)
      << "one live tree: " << one_tree << " B; still in use after five "
      << "destroyed trees: " << pinned << " B";
}

// ---------------------------------------------------------------------------
// Erased nodes go back to the heap through the reclaimer alone
// ---------------------------------------------------------------------------

template <typename Set>
class HeapReclaimTest : public ::testing::Test {};

using HeapSets =
    ::testing::Types<EfrbTreeSet<int, std::less<int>, EpochReclaimer>,
                     EfrbTreeSet<int, std::less<int>, HazardReclaimer>,
                     ChromaticTreeSet<int, std::less<int>, EpochReclaimer>,
                     ChromaticTreeSet<int, std::less<int>, HazardReclaimer>>;

struct HeapSetNames {
  template <typename T>
  static std::string GetName(int i) {
    static const char* const kNames[] = {"EfrbEpoch", "EfrbHazard",
                                         "ChromaticEpoch", "ChromaticHazard"};
    return kNames[i];
  }
};

TYPED_TEST_SUITE(HeapReclaimTest, HeapSets, HeapSetNames);

TYPED_TEST(HeapReclaimTest, ErasedNodesAreFreedThroughTheReclaimer) {
  constexpr std::uint64_t kKeys = 512;
  TypeParam t;
  {
    auto h = t.handle();
    for (std::uint64_t i = 0; i < kKeys; ++i) h.insert(static_cast<int>(i));
    for (std::uint64_t i = 0; i < kKeys; ++i) h.erase(static_cast<int>(i));
    h.flush();
  }  // detaching releases the handle's slot and drains what it still held
  t.reclaimer().flush();
  EXPECT_TRUE(t.empty());
  // Every erase unlinks at least the deleted leaf and the internal node
  // above it; once no thread is inside an operation, all of them are freed.
  EXPECT_GE(t.reclaimer().freed_count(), 2 * kKeys);
}

TYPED_TEST(HeapReclaimTest, SteadyChurnDoesNotGrowTheHeap) {
  // Churn over a small key set, flushing each round: after warmup every
  // round frees what it allocates, so the bytes in use stay put. A leak of
  // one erased leaf per erase would add 64 × 50 × ≥32 B = 100 KiB.
  constexpr std::size_t kNoise = 16 * 1024;
  TypeParam t;
  auto h = t.handle();
  const auto churn = [&] {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 64; ++i) h.insert(i);
      for (int i = 0; i < 64; ++i) h.erase(i);
      h.flush();
    }
  };
  churn();
  const std::size_t warm = heap_in_use();
  churn();
  const std::size_t now = heap_in_use();
  const std::size_t grown = now > warm ? now - warm : 0;
  EXPECT_LE(grown, kNoise) << "warm: " << warm << " B; after: " << now << " B";
  EXPECT_TRUE(t.empty());
}

TYPED_TEST(HeapReclaimTest, HandlesKeepParityWhileTheReclaimerFrees) {
  // The parity oracle on the handle path: presence of key k after
  // quiescence == successful flips of k mod 2. A node freed while another
  // thread can still reach it breaks this (and trips the sanitizer reruns).
  TypeParam t;
  constexpr int kKeys = 128;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid * 77 + 1);
    for (int i = 0; i < kOpsPerThread; ++i) {
      const int k = static_cast<int>(rng.next() % kKeys);
      if (rng.next() % 2 == 0) {
        if (h.insert(k)) flips[k].fetch_add(1, std::memory_order_relaxed);
      } else {
        if (h.erase(k)) flips[k].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.contains(k), flips[k].load() % 2 == 1) << "key " << k;
  }
  EXPECT_TRUE(t.validate().ok) << t.validate().error;
  t.reclaimer().flush();
  EXPECT_GT(t.reclaimer().freed_count(), 0u);
}

TYPED_TEST(HeapReclaimTest, GaugesBalanceOnceThreadsGoQuiet) {
  // Every retired object is freed exactly once: once the threads have
  // detached and flushed, the backlog is empty and the two totals meet.
  TypeParam t;
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid + 31);
    for (int i = 0; i < 5000; ++i) {
      const int k = static_cast<int>(rng.next() % 256);
      if (rng.next() % 2 == 0) h.insert(k);
      else h.erase(k);
    }
    h.flush();
  });
  t.reclaimer().flush();
  const ReclaimGauges g = t.reclaimer().gauges();
  EXPECT_GT(g.retired_total, 0u);
  EXPECT_EQ(g.freed_total, g.retired_total)
      << "backlog " << g.backlog() << ", orphans " << g.orphan_depth;
}

// ---------------------------------------------------------------------------
// Several live trees per thread, each with its own reclaimer domain
// ---------------------------------------------------------------------------

template <typename Set>
class MultiTreeReclaimTest : public ::testing::Test {};
TYPED_TEST_SUITE(MultiTreeReclaimTest, HeapSets, HeapSetNames);

TYPED_TEST(MultiTreeReclaimTest, HandlesOnEveryTreeKeepEachTreeSound) {
  // Each thread holds one live handle on every tree at once, so one thread
  // is attached to four reclaimer domains and interleaves retirements across
  // them. A node retired into the wrong domain, or freed while another
  // domain's pin still covers it, shows up here (and under ASan/TSan).
  constexpr std::size_t kTrees = 4;
  constexpr int kThreads = 6;
  constexpr int kOps = 3000;
  constexpr std::uint64_t kRange = 1024;
  std::vector<TypeParam> trees(kTrees);
  std::vector<std::atomic<std::uint64_t>> inserted(kTrees), erased(kTrees);
  run_threads(kThreads, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 977 + 11);
    std::vector<decltype(trees[0].handle())> handles;
    handles.reserve(kTrees);
    for (TypeParam& t : trees) handles.push_back(t.handle());
    for (int i = 0; i < kOps; ++i) {
      const std::size_t which = rng.next_below(kTrees);
      auto& h = handles[which];
      const int k = static_cast<int>(rng.next_below(kRange));
      switch (rng.next_below(3)) {
        case 0:
          if (h.insert(k)) inserted[which].fetch_add(1);
          break;
        case 1:
          if (h.erase(k)) erased[which].fetch_add(1);
          break;
        default:
          h.contains(k);
      }
    }
    for (auto& h : handles) h.flush();
  });
  for (std::size_t i = 0; i < kTrees; ++i) {
    TypeParam& t = trees[i];
    const auto v = t.validate();
    EXPECT_TRUE(v.ok) << "tree " << i << ": " << v.error;
    EXPECT_EQ(t.size(), inserted[i].load() - erased[i].load()) << "tree " << i;
    t.reclaimer().flush();
    const ReclaimGauges g = t.reclaimer().gauges();
    EXPECT_GT(g.retired_total, 0u) << "tree " << i;
    EXPECT_EQ(g.freed_total, g.retired_total)
        << "tree " << i << ": backlog " << g.backlog() << ", orphans "
        << g.orphan_depth;
  }
}

TYPED_TEST(MultiTreeReclaimTest, APinInOneTreeHoldsBackOnlyThatTree) {
  // Each tree owns its reclaimer domain. A reader pinned in `held` must
  // keep every node `held` retires after the pin, and must not delay a
  // single free in `other`, which one thread churns right alongside.
  TypeParam held, other;
  std::atomic<bool> pinned{false}, release{false};
  std::thread reader([&] {
    auto guard = held.reclaimer().pin();
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  {
    auto ho = other.handle();
    auto hh = held.handle();
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 200; ++k) {
        ho.insert(k);
        hh.insert(k);
      }
      for (int k = 0; k < 200; ++k) {
        ho.erase(k);
        hh.erase(k);
      }
    }
    ho.flush();
    hh.flush();
  }
  other.reclaimer().flush();
  held.reclaimer().flush();
  const ReclaimGauges go = other.reclaimer().gauges();
  EXPECT_GT(go.retired_total, 0u);
  EXPECT_EQ(go.freed_total, go.retired_total)
      << "the pin in the other tree held back this one: backlog "
      << go.backlog() << ", orphans " << go.orphan_depth;
  const ReclaimGauges gh = held.reclaimer().gauges();
  EXPECT_GT(gh.retired_total, 0u);
  EXPECT_EQ(gh.freed_total, 0u) << "freed under a reader pinned before the "
                                   "retirement";

  release.store(true);
  reader.join();
  held.reclaimer().flush();
  const ReclaimGauges after = held.reclaimer().gauges();
  EXPECT_EQ(after.freed_total, after.retired_total)
      << "backlog " << after.backlog() << ", orphans " << after.orphan_depth;
  EXPECT_TRUE(held.validate().ok);
  EXPECT_TRUE(other.validate().ok);
}

template <typename Reclaimer>
class StalledDeleterTest : public ::testing::Test {};
TYPED_TEST_SUITE(StalledDeleterTest, LeaseReclaimers);

TYPED_TEST(StalledDeleterTest, ChurnAroundItFreesNothingReachable) {
  // Thread 0 deletes key 10 and is parked right before its dunflag CAS:
  // the leaf and its parent are spliced out and retired, and the parked
  // thread still holds them. Thread 1 churns and flushes the whole time, so
  // the heap hands its freed blocks straight back out; nothing the parked
  // thread can still reach may be among them (ASan reruns make a
  // use-after-free fatal). Released at the end; the oracle and a structural
  // validation close the case.
  inject::FaultPlan plan;
  inject::FaultAction stall;
  stall.kind = inject::FaultKind::kStall;
  stall.tid = 0;
  stall.point = static_cast<int>(HookPoint::kBeforeDUnflag);
  stall.occurrence = 1;
  plan.actions.push_back(stall);

  EfrbTreeSet<int, std::less<int>, TypeParam, inject::InjectTraits> t;
  for (int i = 0; i < 64; ++i) t.insert(i);

  inject::FaultScheduler sched(plan);
  std::atomic<bool> deleter_done{false};
  run_threads(2, [&](std::size_t tid) {
    typename inject::FaultScheduler::ThreadScope scope(
        sched, static_cast<unsigned>(tid));
    auto h = t.handle();
    if (tid == 0) {
      EXPECT_TRUE(h.erase(10));  // parks at kBeforeDUnflag
      deleter_done.store(true);
    } else {
      EXPECT_TRUE(sched.wait_until_stalled(0));
      for (int round = 0; round < 100; ++round) {
        for (int i = 100; i < 164; ++i) h.insert(i);
        for (int i = 100; i < 164; ++i) h.erase(i);
        h.flush();
      }
      EXPECT_FALSE(deleter_done.load());
      sched.release_all();
    }
  });
  EXPECT_FALSE(t.contains(10));
  for (int i = 0; i < 64; ++i) {
    if (i != 10) {
      EXPECT_TRUE(t.contains(i)) << "key " << i;
    }
  }
  EXPECT_TRUE(t.validate().ok) << t.validate().error;
}

}  // namespace
}  // namespace efrb
