// The allocator layer (core/alloc.hpp) and its integration with the tree,
// the reclaimers, and the fault-injection harness:
//
//   * BlockPool unit behaviour — block recycling through a Cache, cache
//     release flushing to the global free list, constructor-throw rollback,
//     and the double-return stamp (a death test);
//   * retire-to-pool — a pooled tree's erased nodes come back through the
//     reclaimer's PoolHook and are reused instead of hitting the heap;
//   * differential oracles — pooled vs heap trees driven by the same op
//     stream, and the lean find_path descent vs a std::map on random and
//     adversarial key streams;
//   * concurrency witnesses — raw pool alloc/free across threads and a
//     pooled tree under churn (the cells check.sh reruns under TSan/ASan);
//   * fault injection — a deleter stalled mid-protocol while other threads
//     churn pooled allocations (stall between retire and pool-return);
//   * lease lifetime — a thread's reclaimer and pool leases do not keep
//     destroyed trees' memory alive.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// Exported by the ASan and TSan runtimes; declared here because not every
// toolchain installs <sanitizer/allocator_interface.h>.
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

#include "core/alloc.hpp"
#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"
#include "baselines/harris_list.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

using Pool64 = BlockPool<64>;

// ---------------------------------------------------------------------------
// BlockPool unit behaviour
// ---------------------------------------------------------------------------

TEST(BlockPool, DestroyThenCreateReusesTheBlock) {
  Pool64 pool;
  auto cache = pool.make_cache();
  int* a = pool.create<int>(cache, 41);
  EXPECT_EQ(*a, 41);
  pool.destroy(cache, a);
  // The private chain is LIFO: the very next create gets the same block.
  int* b = pool.create<int>(cache, 42);
  EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  EXPECT_EQ(*b, 42);
  pool.destroy(cache, b);
}

TEST(BlockPool, CacheReleaseFlushesToGlobalList) {
  Pool64 pool;
  std::set<void*> freed;
  {
    auto cache = pool.make_cache();
    std::vector<int*> blocks;
    for (int i = 0; i < 8; ++i) blocks.push_back(pool.create<int>(cache, i));
    for (int* p : blocks) {
      freed.insert(p);
      pool.destroy(cache, p);
    }
  }  // ~Cache: private chain pushed onto the global free list
  auto cache2 = pool.make_cache();
  // The fresh cache adopts the flushed chain before carving a new slab.
  int* p = pool.create<int>(cache2, 0);
  EXPECT_TRUE(freed.count(p) == 1);
  pool.destroy(cache2, p);
  EXPECT_GE(pool.stats().cache_refills, 1u);
}

TEST(BlockPool, StatsTrackSlabsAndRecycling) {
  Pool64 pool;
  EXPECT_EQ(pool.stats().slabs, 0u);
  auto cache = pool.make_cache();
  int* p = pool.create<int>(cache, 1);
  const auto s = pool.stats();
  EXPECT_GE(s.slabs, 1u);
  EXPECT_EQ(s.slab_bytes, s.slabs * 256 * 64);
  // PoolHook return path pushes onto the global list and counts as recycled.
  std::destroy_at(p);
  const PoolHook hook = pool.pool_hook();
  hook.fn(hook.pool, p);
  EXPECT_GE(pool.stats().recycled, 1u);
}

TEST(BlockPool, ConstructorThrowReturnsBlockToCache) {
  struct Thrower {
    explicit Thrower(bool fire) {
      if (fire) throw std::runtime_error("ctor");
    }
  };
  Pool64 pool;
  auto cache = pool.make_cache();
  // Prime the chain so the throwing create draws a known block.
  int* probe = pool.create<int>(cache, 0);
  void* expected = probe;
  pool.destroy(cache, probe);
  EXPECT_THROW(pool.create<Thrower>(cache, true), std::runtime_error);
  // The block went back to the cache, not leaked: the next create reuses it.
  Thrower* t = pool.create<Thrower>(cache, false);
  EXPECT_EQ(static_cast<void*>(t), expected);
  pool.destroy(cache, t);
}

TEST(BlockPool, HookKeepsStateAliveAfterPoolDies) {
  // A PoolHook outliving its BlockPool (the reclaimer-registry scenario):
  // returning a block through the hook after ~BlockPool must not crash —
  // the keepalive share owns the state.
  PoolHook hook;
  void* block = nullptr;
  {
    Pool64 pool;
    auto cache = pool.make_cache();
    int* p = pool.create<int>(cache, 7);
    std::destroy_at(p);
    block = p;
    hook = pool.pool_hook();
  }
  ASSERT_TRUE(hook);
  hook.fn(hook.pool, block);
  hook = PoolHook{};  // drop the last keepalive; slabs are freed here
}

TEST(BlockPool, TreePoolsKeepWholeLineBlocks) {
  // The node types are naturally aligned (smaller than a line on the heap);
  // the tree pools still round every block up to whole cache lines.
  using K = std::uint64_t;
  EXPECT_EQ((EfrbSpec<K, K, std::less<K>>::Pool::kBlockSize), 64u);
  EXPECT_EQ((ChromaticSpec<K, K, std::less<K>>::Pool::kBlockSize), 128u);
  EXPECT_LT(sizeof(TreeLayout<K, K>::Internal), kCacheLineSize);
  EXPECT_LT(sizeof(ChromaticLayout<K, K>::Node), kCacheLineSize);
}

using BlockPoolDeathTest = ::testing::Test;

TEST(BlockPoolDeathTest, DoubleReturnIsCaught) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Pool64 pool;
  auto cache = pool.make_cache();
  int* p = pool.create<int>(cache, 0);
  std::destroy_at(p);
  const PoolHook hook = pool.pool_hook();
  hook.fn(hook.pool, p);
  EXPECT_DEATH(hook.fn(hook.pool, p), "returned twice");
}

// ---------------------------------------------------------------------------
// Retire-to-pool through the reclaimers
// ---------------------------------------------------------------------------

template <typename Reclaimer>
using PooledTree =
    EfrbTreeMap<int, int, std::less<int>, Reclaimer, PooledTraits>;

template <typename Reclaimer>
class PooledTreeTest : public ::testing::Test {};

using PooledReclaimers = ::testing::Types<EpochReclaimer, HazardReclaimer>;
TYPED_TEST_SUITE(PooledTreeTest, PooledReclaimers);

TYPED_TEST(PooledTreeTest, ErasedNodesRecycleIntoThePool) {
  PooledTree<TypeParam> t;
  {
    auto h = t.handle();
    for (int i = 0; i < 512; ++i) h.insert(i, i);
    for (int i = 0; i < 512; ++i) h.erase(i);
  }
  t.reclaimer().flush();
  // Every erase retired an internal + a leaf + Info records; after the flush
  // they went back through the PoolHook onto the global free list.
  EXPECT_GT(t.allocator().stats().recycled, 0u);
  EXPECT_GT(t.allocator().stats().slabs, 0u);
}

TYPED_TEST(PooledTreeTest, ChurnReusesBlocksInsteadOfGrowing) {
  PooledTree<TypeParam> t;
  auto h = t.handle();
  // Steady-state churn over a small key set: after warmup the pool should
  // stop carving slabs — blocks cycle retire -> hook -> cache -> node.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) h.insert(i, i);
    for (int i = 0; i < 64; ++i) h.erase(i);
    t.reclaimer().flush();
  }
  const auto warm = t.allocator().stats().slabs;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) h.insert(i, i);
    for (int i = 0; i < 64; ++i) h.erase(i);
    t.reclaimer().flush();
  }
  EXPECT_LE(t.allocator().stats().slabs, warm + 1);
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

TYPED_TEST(PooledTreeTest, DestroyedTreesAreNotPinnedByThreadLeases) {
  // Tree-level calls go through the calling thread's reclaimer lease and
  // pool lease. Those leases must not hold a destroyed tree's registry or
  // slabs until the thread exits: after five build/destroy cycles on one
  // thread, at most one tree's worth may still be in use (the newest pool's
  // slabs stay with the pool lease until the thread's next new pool). Runs
  // on a fresh thread so the measurement ends before its leases are torn
  // down.
  std::vector<int> keys(20000);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), std::mt19937(7));  // keep it shallow
  std::size_t one_tree = 0;
  std::size_t after = 0;
  std::size_t before = 0;
  std::thread([&] {
    before = heap_in_use();
    for (int round = 0; round < 5; ++round) {
      PooledTree<TypeParam> t;
      for (int k : keys) t.insert(k, k);
      // Retire half through the lease slot, so its backlog holds blocks.
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

TEST(PooledHandle, DetachFlushesThePrivateCache) {
  PooledTree<EpochReclaimer> t;
  auto h = t.handle();
  for (int i = 0; i < 100; ++i) h.insert(i, i);
  for (int i = 0; i < 100; ++i) h.erase(i);
  // Moving a handle hands the cache off intact; the moved-to handle keeps
  // operating on the same private chain.
  auto h2 = std::move(h);
  h2.insert(1, 1);
  EXPECT_TRUE(h2.contains(1));
  h2.detach();
  EXPECT_FALSE(h2.valid());
}

TEST(PooledHarrisListTest, RecyclesThroughTheDomain) {
  PooledHarrisList<int> l;
  {
    auto h = l.handle();
    for (int i = 0; i < 256; ++i) h.insert(i);
    for (int i = 0; i < 256; ++i) h.erase(i);
    h.flush();
  }
  for (int i = 0; i < 256; ++i) EXPECT_FALSE(l.contains(i));
}

// ---------------------------------------------------------------------------
// Differential oracles
// ---------------------------------------------------------------------------

TEST(AllocDifferential, PooledMatchesHeapOnTheSameOpStream) {
  EfrbTreeMap<int, int> heap_tree;
  PooledTree<EpochReclaimer> pooled_tree;
  std::map<int, int> oracle;
  Xoshiro256 rng(0xa110cu);
  auto hh = heap_tree.handle();
  auto ph = pooled_tree.handle();
  for (int op = 0; op < 20000; ++op) {
    const int k = static_cast<int>(rng.next() % 512);
    switch (rng.next() % 4) {
      case 0: {
        const int v = static_cast<int>(rng.next() % 100);
        const bool inserted = oracle.emplace(k, v).second;
        EXPECT_EQ(hh.insert(k, v), inserted);
        EXPECT_EQ(ph.insert(k, v), inserted);
        break;
      }
      case 1: {
        const bool erased = oracle.erase(k) != 0;
        EXPECT_EQ(hh.erase(k), erased);
        EXPECT_EQ(ph.erase(k), erased);
        break;
      }
      default: {
        const auto it = oracle.find(k);
        const std::optional<int> want =
            it == oracle.end() ? std::nullopt : std::optional<int>(it->second);
        EXPECT_EQ(hh.get(k), want);
        EXPECT_EQ(ph.get(k), want);
        break;
      }
    }
  }
  EXPECT_TRUE(heap_tree.validate().ok) << heap_tree.validate().error;
  EXPECT_TRUE(pooled_tree.validate().ok) << pooled_tree.validate().error;
}

/// Drives the lean find_path read descent through a random op stream and
/// checks every get/contains against a std::map oracle.
void lean_vs_oracle(const std::vector<int>& keys) {
  EfrbTreeMap<int, int> tree;
  std::map<int, int> oracle;
  Xoshiro256 rng(0x1ea2f1adu);
  auto h = tree.handle();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int k = keys[i];
    switch (rng.next() % 5) {
      case 0:
        EXPECT_EQ(h.erase(k), oracle.erase(k) != 0);
        break;
      case 1:
      case 2: {
        const int v = static_cast<int>(i);
        EXPECT_EQ(h.insert(k, v), oracle.emplace(k, v).second);
        break;
      }
      default: {
        const auto it = oracle.find(k);
        const std::optional<int> want =
            it == oracle.end() ? std::nullopt : std::optional<int>(it->second);
        EXPECT_EQ(h.get(k), want) << "get(" << k << ")";
        EXPECT_EQ(h.contains(k), want.has_value());
        break;
      }
    }
  }
}

TEST(LeanFindDifferential, RandomKeyStream) {
  std::vector<int> keys;
  Xoshiro256 rng(0xbeefu);
  keys.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<int>(rng.next() % 1024));
  }
  lean_vs_oracle(keys);
}

TEST(LeanFindDifferential, AdversarialKeyStreams) {
  // Ascending then descending runs (degenerate linear tree shapes), repeated
  // boundary keys, and the extremes next to the sentinel ordering.
  std::vector<int> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(i);
  for (int i = 999; i >= 0; --i) keys.push_back(i);
  for (int i = 0; i < 500; ++i) keys.push_back(0);
  for (int i = 0; i < 500; ++i) keys.push_back(999);
  for (int i = 0; i < 200; ++i) {
    keys.push_back(std::numeric_limits<int>::max());
    keys.push_back(std::numeric_limits<int>::min());
  }
  lean_vs_oracle(keys);
}

TEST(LeanFindDifferential, LeanReadsUnderConcurrentChurn) {
  // The lean descent never writes; run it against live updaters and check it
  // only ever reports keys from the permanently-present set or the churn set.
  EfrbTreeMap<int, int> t;
  constexpr int kStable = 128;   // keys 0..127 always present
  constexpr int kChurnLo = 256;  // keys 256..383 flicker
  for (int i = 0; i < kStable; ++i) t.insert(i, i);
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    if (tid == 0) {
      for (int round = 0; round < 200; ++round) {
        for (int i = kChurnLo; i < kChurnLo + 128; ++i) h.insert(i, i);
        for (int i = kChurnLo; i < kChurnLo + 128; ++i) h.erase(i);
      }
      stop.store(true);
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next() % 512);
        const bool hit = h.contains(k);
        if (k < kStable) {
          EXPECT_TRUE(hit) << "stable key " << k << " vanished";
        } else if (k < kChurnLo || k >= kChurnLo + 128) {
          EXPECT_FALSE(hit) << "phantom key " << k;
        }
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

// ---------------------------------------------------------------------------
// Concurrency witnesses (rerun under TSan and ASan by scripts/check.sh)
// ---------------------------------------------------------------------------

TEST(PoolConcurrency, RawAllocFreeAcrossThreads) {
  Pool64 pool;
  const PoolHook hook = pool.pool_hook();
  run_threads(6, [&](std::size_t tid) {
    auto cache = pool.make_cache();
    Xoshiro256 rng(tid + 1);
    std::vector<std::uint64_t*> live;
    for (int i = 0; i < 20000; ++i) {
      if (live.empty() || rng.next() % 2 == 0) {
        live.push_back(pool.create<std::uint64_t>(cache, tid));
      } else {
        std::uint64_t* p = live.back();
        live.pop_back();
        EXPECT_EQ(*p, tid);
        if (rng.next() % 4 == 0) {
          // Type-erased hook return (the reclaimer sweep path): destroy,
          // then push onto the global list — racing other threads' take_all.
          p->~uint64_t();
          hook.fn(hook.pool, p);
        } else {
          pool.destroy(cache, p);
        }
      }
    }
    for (std::uint64_t* p : live) pool.destroy(cache, p);
  });
}

template <typename Reclaimer>
using PooledSet = EfrbTreeSet<int, std::less<int>, Reclaimer, PooledTraits>;

TYPED_TEST(PooledTreeTest, ParityOracleUnderConcurrentChurn) {
  // The core parity oracle, on the pooled configuration: presence of key k
  // after quiescence == successful flips of k mod 2. Any use-after-recycle
  // or cross-thread block corruption breaks this (and trips TSan/ASan in the
  // sanitizer reruns).
  PooledSet<TypeParam> t;
  constexpr int kKeys = 128;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::atomic<std::uint64_t>> flips(kKeys);
  run_threads(6, [&](std::size_t tid) {
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
    const bool present = t.contains(k);
    EXPECT_EQ(present, flips[k].load() % 2 == 1) << "key " << k;
  }
  EXPECT_TRUE(t.validate().ok) << t.validate().error;
  t.reclaimer().flush();
  EXPECT_GT(t.allocator().stats().recycled, 0u);
}

// ---------------------------------------------------------------------------
// Fault injection: recycling with a thread parked mid-protocol
// ---------------------------------------------------------------------------

/// InjectTraits with pooled allocation: the fault harness drives the CAS/stall
/// gates while every node comes from (and returns to) the structure's pool.
struct PooledInjectTraits : inject::InjectTraits {
  static constexpr bool kPooledAlloc = true;
};

template <typename Reclaimer>
using PooledInjectTree =
    EfrbTreeSet<int, std::less<int>, Reclaimer, PooledInjectTraits>;

TYPED_TEST(PooledTreeTest, StalledDeleterDoesNotCorruptRecycling) {
  // Thread 0 deletes key 10 and is parked immediately after its dchild CAS
  // (nodes retired, dunflag not yet done) — the window where its retired
  // blocks sit between retire() and pool-return. Thread 1 churns allocations
  // the whole time; the pool must never hand out a block that is still
  // reachable. Released at the end; the oracle and a structural validation
  // close the case.
  inject::FaultPlan plan;
  inject::FaultAction stall;
  stall.kind = inject::FaultKind::kStall;
  stall.tid = 0;
  stall.point = static_cast<int>(HookPoint::kBeforeDUnflag);
  stall.occurrence = 1;
  plan.actions.push_back(stall);

  PooledInjectTree<TypeParam> t;
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
      // Churn while the deleter is frozen holding retired-but-unswept nodes.
      for (int round = 0; round < 100; ++round) {
        for (int i = 100; i < 164; ++i) h.insert(i);
        for (int i = 100; i < 164; ++i) h.erase(i);
        t.reclaimer().flush();
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
