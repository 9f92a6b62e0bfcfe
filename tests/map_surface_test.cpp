// The whole map surface of both trees, run on every tree x configuration
// pair a caller can pick: epoch or hazard reclamation, with and without the
// stats traits. Each case drives the dictionary, the value extensions
// (insert_or_assign, replace, get_or_insert), the ordered tier and the
// per-thread Handle, through the tree-level API and the handle both, and
// checks them against their contracts or a std::map oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "reclaim/hazard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

template <typename Map>
class MapSurfaceTest : public ::testing::Test {};

using SurfaceMaps = ::testing::Types<
    EfrbTreeMap<int, int>,
    EfrbTreeMap<int, int, std::less<int>, HazardReclaimer>,
    EfrbTreeMap<int, int, std::less<int>, EpochReclaimer, StatsTraits>,
    ChromaticTreeMap<int, int>,
    ChromaticTreeMap<int, int, std::less<int>, HazardReclaimer>,
    ChromaticTreeMap<int, int, std::less<int>, EpochReclaimer, StatsTraits>>;

struct SurfaceMapNames {
  template <typename T>
  static std::string GetName(int i) {
    static const char* const kNames[] = {"EfrbEpoch",      "EfrbHazard",
                                         "EfrbStats",      "ChromaticEpoch",
                                         "ChromaticHazard", "ChromaticStats"};
    return kNames[i];
  }
};

TYPED_TEST_SUITE(MapSurfaceTest, SurfaceMaps, SurfaceMapNames);

TYPED_TEST(MapSurfaceTest, BasicMapOpsFollowTheirContracts) {
  TypeParam m;
  EXPECT_TRUE(m.empty());
  for (int k = 0; k < 200; ++k) EXPECT_TRUE(m.insert(k, k * 10));
  EXPECT_FALSE(m.insert(7, 1)) << "duplicate insert must fail";
  EXPECT_EQ(m.size(), 200u);
  for (int k = 0; k < 200; ++k) {
    ASSERT_TRUE(m.contains(k));
    ASSERT_EQ(m.get(k).value_or(-1), k * 10);
  }
  EXPECT_FALSE(m.contains(200));
  EXPECT_FALSE(m.insert_or_assign(7, 77));  // assigned, not inserted
  EXPECT_EQ(m.get(7).value_or(-1), 77);
  EXPECT_TRUE(m.replace(7, 77, 78));
  EXPECT_FALSE(m.replace(7, 77, 79)) << "stale expected value must fail";
  EXPECT_EQ(m.get_or_insert(7, 0), 78);
  EXPECT_EQ(m.get_or_insert(500, 55), 55);
  EXPECT_TRUE(m.erase(500));
  for (int k = 0; k < 200; k += 2) EXPECT_TRUE(m.erase(k));
  EXPECT_EQ(m.size(), 100u);
  const auto v = m.validate();
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.real_leaves, 100u);
}

TYPED_TEST(MapSurfaceTest, FailedOpsLeaveTheMapUntouched) {
  TypeParam m;
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(m.insert(k, k + 100));
  // Every call below must fail and change nothing: no value, no key, no
  // structural trace a later validate() could see.
  EXPECT_FALSE(m.insert(10, -1));
  EXPECT_FALSE(m.erase(50));
  EXPECT_FALSE(m.erase(-1));
  EXPECT_FALSE(m.replace(60, 0, 1)) << "replace on an absent key";
  EXPECT_FALSE(m.replace(10, 0, 1)) << "replace with a wrong expected value";
  EXPECT_EQ(m.get_or_insert(20, -1), 120) << "the present value wins";
  EXPECT_EQ(m.size(), 50u);
  for (int k = 0; k < 50; ++k) ASSERT_EQ(m.get(k).value_or(-1), k + 100);
  EXPECT_FALSE(m.get(50).has_value());
  // An erased key is absent to every probe and free to come back.
  EXPECT_TRUE(m.erase(10));
  EXPECT_FALSE(m.erase(10));
  EXPECT_FALSE(m.get(10).has_value());
  EXPECT_FALSE(m.replace(10, 110, 0));
  EXPECT_TRUE(m.insert_or_assign(10, 7)) << "assign onto an erased key inserts";
  EXPECT_EQ(m.get(10).value_or(-1), 7);
  const auto v = m.validate();
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.real_leaves, 50u);
}

TYPED_TEST(MapSurfaceTest, HandleSurfaceMatchesTreeSurface) {
  TypeParam m;
  auto h = m.handle();
  for (int k = 0; k < 100; ++k) EXPECT_TRUE(h.insert(k, k));
  EXPECT_FALSE(h.insert(3, 9));
  EXPECT_TRUE(h.contains(50));
  EXPECT_EQ(h.get(50).value_or(-1), 50);
  EXPECT_FALSE(h.insert_or_assign(50, 5));
  EXPECT_TRUE(h.replace(50, 5, 6));
  EXPECT_EQ(h.get_or_insert(50, 0), 6);
  EXPECT_TRUE(h.erase(50));
  EXPECT_FALSE(h.erase(50));
  // The tree-level view sees the handle's writes and vice versa.
  EXPECT_EQ(m.size(), 99u);
  EXPECT_FALSE(m.contains(50));
  EXPECT_TRUE(m.insert(50, 500));
  EXPECT_EQ(h.get(50).value_or(-1), 500);
  h.flush();
  h.detach();
  EXPECT_FALSE(h.valid());
  EXPECT_TRUE(m.validate().ok);
}

TYPED_TEST(MapSurfaceTest, HandleIsMovable) {
  TypeParam m;
  auto a = m.handle();
  EXPECT_TRUE(a.insert(1, 1));
  auto b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(b.contains(1));
  a = std::move(b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(a.erase(1));
  EXPECT_TRUE(m.empty());
}

TYPED_TEST(MapSurfaceTest, OrderedTierMatchesStdMapOracle) {
  TypeParam m;
  std::map<int, int> oracle;
  Xoshiro256 rng(42);
  for (int i = 0; i < 600; ++i) {
    const int k = static_cast<int>(rng.next_below(1024));
    if (rng.next_below(4) == 0) {
      EXPECT_EQ(m.erase(k), oracle.erase(k) == 1u);
    } else {
      const int v = static_cast<int>(rng.next_below(100));
      EXPECT_EQ(m.insert(k, v), oracle.emplace(k, v).second);
    }
  }
  ASSERT_EQ(m.size(), oracle.size());

  // min/max and the four directional probes.
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(m.min_key().value(), oracle.begin()->first);
  EXPECT_EQ(m.max_key().value(), oracle.rbegin()->first);
  for (int probe : {-1, 0, 100, 511, 512, 1023, 1024}) {
    auto ge = oracle.lower_bound(probe);
    EXPECT_EQ(m.find_ge(probe),
              ge == oracle.end() ? std::nullopt : std::optional<int>(ge->first))
        << "find_ge(" << probe << ")";
    auto gt = oracle.upper_bound(probe);
    EXPECT_EQ(m.find_gt(probe),
              gt == oracle.end() ? std::nullopt : std::optional<int>(gt->first))
        << "find_gt(" << probe << ")";
    auto le = oracle.upper_bound(probe);
    EXPECT_EQ(m.find_le(probe), le == oracle.begin()
                                    ? std::nullopt
                                    : std::optional<int>(std::prev(le)->first))
        << "find_le(" << probe << ")";
    auto lt = oracle.lower_bound(probe);
    EXPECT_EQ(m.find_lt(probe), lt == oracle.begin()
                                    ? std::nullopt
                                    : std::optional<int>(std::prev(lt)->first))
        << "find_lt(" << probe << ")";
  }

  // for_each emits the whole map in ascending key order with its values.
  std::vector<std::pair<int, int>> emitted;
  m.for_each([&](int k, int v) { emitted.emplace_back(k, v); });
  ASSERT_EQ(emitted.size(), oracle.size());
  auto it = oracle.begin();
  for (std::size_t i = 0; i < emitted.size(); ++i, ++it) {
    ASSERT_EQ(emitted[i].first, it->first) << "order diverges at " << i;
    ASSERT_EQ(emitted[i].second, it->second);
  }

  // range / count_range over a few windows, via tree and handle both.
  auto h = m.handle();
  const std::pair<int, int> windows[] = {{0, 1023}, {100, 400}, {512, 512},
                                         {700, 699}, {-5, 2000}};
  for (const auto& [lo, hi] : windows) {
    std::vector<int> want;
    for (auto j = oracle.lower_bound(lo);
         j != oracle.end() && j->first <= hi; ++j) {
      want.push_back(j->first);
    }
    std::vector<int> tree_got, handle_got;
    m.range(lo, hi, [&](int k, int) { tree_got.push_back(k); });
    h.range(lo, hi, [&](int k, int) { handle_got.push_back(k); });
    EXPECT_EQ(tree_got, want) << "range [" << lo << ", " << hi << "]";
    EXPECT_EQ(handle_got, want);
    EXPECT_EQ(m.count_range(lo, hi), want.size());
    EXPECT_EQ(h.count_range(lo, hi), want.size());
  }
}

TYPED_TEST(MapSurfaceTest, ConcurrentMixedOpsKeepTheTreeValid) {
  // Six handles race every dictionary operation over a small key range.
  // The net count of successful inserts and erases must be what the tree
  // holds, and every key a walk reports must be found by a point lookup.
  TypeParam m;
  constexpr int kThreads = 6;
  constexpr int kOps = 3000;
  constexpr std::uint64_t kRange = 1024;
  std::atomic<std::uint64_t> inserted{0}, erased{0};
  run_threads(kThreads, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 977 + 11);
    auto h = m.handle();
    for (int i = 0; i < kOps; ++i) {
      const int k = static_cast<int>(rng.next_below(kRange));
      switch (rng.next_below(4)) {
        case 0:
          if (h.insert(k, k)) inserted.fetch_add(1);
          break;
        case 1:
          if (h.erase(k)) erased.fetch_add(1);
          break;
        case 2:
          h.contains(k);
          break;
        default:
          if (const auto v = h.get(k)) {
            ASSERT_EQ(*v, k) << "foreign value";
          }
      }
    }
    h.flush();
  });
  const auto v = m.validate();
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(m.size(), inserted.load() - erased.load());
  std::size_t walked = 0;
  m.for_each([&](int k, int) {
    ASSERT_TRUE(m.contains(k));
    ++walked;
  });
  EXPECT_EQ(walked, m.size());
}

TYPED_TEST(MapSurfaceTest, ConcurrentGetOrInsertHasOneWinnerPerKey) {
  // Threads race get_or_insert with distinct values on keys nobody erases;
  // every caller for a key must observe the same value, and it must be the
  // value the tree ends up holding.
  TypeParam m;
  constexpr int kKeys = 16;
  std::atomic<int> observed[kKeys] = {};
  run_threads(6, [&](std::size_t tid) {
    Xoshiro256 rng(tid + 9);
    auto h = m.handle();
    for (int i = 0; i < 2000; ++i) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      const int mine = static_cast<int>(tid + 1) * 1000 + k;
      const int got = h.get_or_insert(k, mine);
      int expected = 0;
      if (!observed[k].compare_exchange_strong(expected, got)) {
        ASSERT_EQ(got, expected) << "two different winners for key " << k;
      }
    }
  });
  for (int k = 0; k < kKeys; ++k) {
    const int seen = observed[k].load();
    if (seen != 0) {
      EXPECT_EQ(m.get(k).value_or(-1), seen) << "key " << k;
    }
  }
  EXPECT_TRUE(m.validate().ok);
}

}  // namespace
}  // namespace efrb
