// Ordered navigation on both trees — min_key / max_key, find_ge / find_gt /
// find_le / find_lt, range(), count_range() and for_each() — checked against
// a std::map oracle through the tree and through a Handle, on EfrbTreeMap
// and ChromaticTreeMap, each under epoch and hazard-pointer reclamation.
// Both trees share one facade (core/tree_map.hpp) and one set of walks
// (core/ordered.hpp), so every test here runs on all four instantiations.
// Deep EFRB vines check the scan stack at depth n; weak consistency under
// concurrency, window scans under rotations and a scan past a parked
// chromatic rebalance close the file.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

using Oracle = std::map<int, int>;
using Pairs = std::vector<std::pair<int, int>>;

std::optional<int> key_of(Oracle::const_iterator it, const Oracle& o) {
  if (it == o.end()) return std::nullopt;
  return it->first;
}
std::optional<int> oracle_ge(const Oracle& o, int k) {
  return key_of(o.lower_bound(k), o);
}
std::optional<int> oracle_gt(const Oracle& o, int k) {
  return key_of(o.upper_bound(k), o);
}
std::optional<int> oracle_le(const Oracle& o, int k) {
  auto it = o.upper_bound(k);
  if (it == o.begin()) return std::nullopt;
  return std::prev(it)->first;
}
std::optional<int> oracle_lt(const Oracle& o, int k) {
  auto it = o.lower_bound(k);
  if (it == o.begin()) return std::nullopt;
  return std::prev(it)->first;
}
Pairs oracle_range(const Oracle& o, int lo, int hi) {
  if (hi < lo) return {};
  return Pairs(o.lower_bound(lo), o.upper_bound(hi));
}

template <typename Q>
Pairs ranged(const Q& q, int lo, int hi) {
  Pairs out;
  q.range(lo, hi, [&](const int& k, const int& v) { out.emplace_back(k, v); });
  return out;
}

template <typename Q>
Pairs all_of(const Q& q) {
  Pairs out;
  q.for_each([&](const int& k, const int& v) { out.emplace_back(k, v); });
  return out;
}

/// Every ordered query of `q` (a tree or a handle) against the oracle: the
/// four bounds at `probe`, range and count_range over [lo, hi], min/max and
/// a full for_each.
template <typename Q>
void expect_matches(const Q& q, const Oracle& o, int probe, int lo, int hi) {
  const std::optional<int> lo_key =
      o.empty() ? std::nullopt : std::optional<int>(o.begin()->first);
  const std::optional<int> hi_key =
      o.empty() ? std::nullopt : std::optional<int>(o.rbegin()->first);
  EXPECT_EQ(q.min_key(), lo_key);
  EXPECT_EQ(q.max_key(), hi_key);
  EXPECT_EQ(q.find_ge(probe), oracle_ge(o, probe)) << "probe " << probe;
  EXPECT_EQ(q.find_gt(probe), oracle_gt(o, probe)) << "probe " << probe;
  EXPECT_EQ(q.find_le(probe), oracle_le(o, probe)) << "probe " << probe;
  EXPECT_EQ(q.find_lt(probe), oracle_lt(o, probe)) << "probe " << probe;
  const Pairs want = oracle_range(o, lo, hi);
  EXPECT_EQ(ranged(q, lo, hi), want) << "[" << lo << "," << hi << "]";
  EXPECT_EQ(q.count_range(lo, hi), want.size()) << "[" << lo << "," << hi
                                                << "]";
  EXPECT_EQ(all_of(q), Pairs(o.begin(), o.end()));
}

/// Both paths: the tree-level queries and a handle's.
template <typename Tree>
void expect_both(Tree& t, const Oracle& o, int probe, int lo, int hi) {
  expect_matches(t, o, probe, lo, hi);
  const auto h = t.handle();
  expect_matches(h, o, probe, lo, hi);
}

template <typename Tree>
class OrderedQueryTest : public ::testing::Test {};

using Trees = ::testing::Types<
    EfrbTreeMap<int, int>,
    EfrbTreeMap<int, int, std::less<int>, HazardReclaimer>,
    ChromaticTreeMap<int, int>,
    ChromaticTreeMap<int, int, std::less<int>, HazardReclaimer>>;

struct TreeNames {
  template <typename T>
  static std::string GetName(int i) {
    // "Heap" is the epoch-reclaimed default configuration.
    static const char* const kNames[] = {"EfrbHeap", "EfrbHazard",
                                         "ChromaticHeap", "ChromaticHazard"};
    return kNames[i];
  }
};

TYPED_TEST_SUITE(OrderedQueryTest, Trees, TreeNames);

constexpr int kProbes[] = {INT_MIN, INT_MIN + 1, -1, 0, 1, INT_MAX - 1,
                           INT_MAX};

TYPED_TEST(OrderedQueryTest, EmptyTreeReturnsNothing) {
  TypeParam t;
  const Oracle empty;
  for (int p : kProbes) expect_both(t, empty, p, INT_MIN, INT_MAX);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TYPED_TEST(OrderedQueryTest, SingleKeyBoundaries) {
  TypeParam t;
  t.insert(10, 100);
  EXPECT_EQ(t.find_ge(10), std::optional<int>(10));
  EXPECT_EQ(t.find_gt(10), std::nullopt);
  EXPECT_EQ(t.find_le(10), std::optional<int>(10));
  EXPECT_EQ(t.find_lt(10), std::nullopt);
  EXPECT_EQ(t.find_ge(9), std::optional<int>(10));
  EXPECT_EQ(t.find_le(11), std::optional<int>(10));
  EXPECT_EQ(t.find_ge(11), std::nullopt);
  EXPECT_EQ(t.find_le(9), std::nullopt);
  const Oracle o{{10, 100}};
  for (int p : {9, 10, 11}) expect_both(t, o, p, p, 10);
}

TYPED_TEST(OrderedQueryTest, BoundsAndRanges) {
  TypeParam t;
  Oracle o;
  for (int k = 0; k <= 60; k += 3) {
    ASSERT_TRUE(t.insert(k, k * 10));
    o.emplace(k, k * 10);
  }
  EXPECT_EQ(t.find_ge(14), std::optional<int>(15));
  EXPECT_EQ(t.find_gt(15), std::optional<int>(18));
  EXPECT_EQ(t.find_le(14), std::optional<int>(12));
  EXPECT_EQ(t.find_lt(15), std::optional<int>(12));
  EXPECT_EQ(t.find_gt(60), std::nullopt);
  EXPECT_EQ(t.find_lt(0), std::nullopt);
  EXPECT_EQ(t.count_range(10, 20), 3u);  // 12, 15, 18 — both ends closed
  EXPECT_EQ(t.count_range(20, 20), 0u);
  EXPECT_EQ(t.count_range(21, 21), 1u);  // single point
  EXPECT_EQ(t.count_range(25, 15), 0u);  // inverted: empty by definition
  EXPECT_EQ(t.size(), 21u);
  for (int p = -2; p <= 62; ++p) expect_both(t, o, p, p - 7, p + 7);
  for (int p : kProbes) expect_both(t, o, p, INT_MIN, p);
}

TYPED_TEST(OrderedQueryTest, ExtremeKeysAreOrdinary) {
  // INT_MIN/INT_MAX sit next to the sentinel ordering (∞₁ < ∞₂ above every
  // real key): neither may be confused with a sentinel, and a range touching
  // the top of the key space must not report the sentinel spine.
  TypeParam t;
  Oracle o;
  for (int k : {INT_MAX, INT_MIN, 0, INT_MAX - 1, INT_MIN + 1}) {
    ASSERT_TRUE(t.insert(k, k / 2));
    o.emplace(k, k / 2);
    for (int p : kProbes) expect_both(t, o, p, p, INT_MAX);
  }
  EXPECT_EQ(ranged(t, INT_MAX - 2, INT_MAX),
            (Pairs{{INT_MAX - 1, (INT_MAX - 1) / 2}, {INT_MAX, INT_MAX / 2}}));
  for (int k : {INT_MIN, INT_MAX, 0, INT_MIN + 1, INT_MAX - 1}) {
    ASSERT_TRUE(t.erase(k));
    o.erase(k);
    for (int p : kProbes) expect_both(t, o, p, INT_MIN, p);
  }
  EXPECT_TRUE(t.empty());
}

TYPED_TEST(OrderedQueryTest, RandomChurnMatchesStdMap) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    TypeParam t;
    auto h = t.handle();
    Oracle o;
    Xoshiro256 rng(seed);
    // Random population with churn, alternating the tree-level and handle
    // update paths, probing every query through both after each step.
    for (int i = 0; i < 4000; ++i) {
      const int k = static_cast<int>(rng.next_below(512)) - 256;
      if (rng.next_below(3) == 0) {
        const bool erased = i % 2 == 0 ? h.erase(k) : t.erase(k);
        ASSERT_EQ(erased, o.erase(k) != 0);
      } else {
        const bool inserted = i % 2 == 0 ? h.insert(k, i) : t.insert(k, i);
        ASSERT_EQ(inserted, o.emplace(k, i).second);
      }
      const int probe = static_cast<int>(rng.next_below(600)) - 300;
      const int lo = static_cast<int>(rng.next_below(600)) - 300;
      const int hi = lo + static_cast<int>(rng.next_below(600));
      expect_matches(t, o, probe, lo, hi);
      expect_matches(h, o, probe, lo, hi);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << i;
      }
    }
    EXPECT_TRUE(t.validate().ok);
  }
}

TYPED_TEST(OrderedQueryTest, HandleCoversFullSurface) {
  TypeParam t;
  auto h = t.handle();
  EXPECT_TRUE(h.insert(1, 10));
  EXPECT_TRUE(h.insert_or_assign(2, 20));
  EXPECT_FALSE(h.insert_or_assign(2, 21));
  EXPECT_EQ(h.get(2), std::optional<int>(21));
  EXPECT_TRUE(h.replace(2, 21, 22));
  EXPECT_EQ(h.get_or_insert(3, 30), 30);
  EXPECT_EQ(h.get_or_insert(3, 31), 30);  // already present: existing wins
  EXPECT_TRUE(h.contains(1));
  expect_matches(h, Oracle{{1, 10}, {2, 22}, {3, 30}}, 2, 1, 3);
  EXPECT_TRUE(h.erase(1));
  EXPECT_FALSE(h.erase(1));

  // Handles are movable; the moved-to handle keeps working.
  auto h2 = std::move(h);
  EXPECT_FALSE(h.valid());  // NOLINT(bugprone-use-after-move): spec under test
  ASSERT_TRUE(h2.valid());
  EXPECT_TRUE(h2.contains(2));
  typename TypeParam::Handle h3;
  h3 = std::move(h2);
  expect_matches(h3, Oracle{{2, 22}, {3, 30}}, 0, 0, 10);
  EXPECT_TRUE(t.validate().ok);
}

// ---------------------------------------------------------------------------
// Deep vines: the unbalanced EFRB tree under sorted insertion.
// ---------------------------------------------------------------------------

/// Ascending insertion builds a right vine, where range/for_each stack one
/// node at a time; descending insertion builds a left vine, where every
/// internal's right leaf stays stacked and the stack grows to n.
///
/// Building a vine costs n²/2 node visits, since each insert walks the whole
/// vine: about 20 s at 2^16 keys in a -O2 build, but over 400 s under TSan.
/// The vine tests are single-threaded, so TSan builds use 2^13 keys, which
/// still stacks 128 times the walks' initial reserve.
#if defined(__SANITIZE_THREAD__)
constexpr int kVineKeys = 1 << 13;
#else
constexpr int kVineKeys = 1 << 16;
#endif

void expect_vine_scans(bool descending) {
  constexpr int n = kVineKeys;
  EfrbTreeMap<int, int> t;
  Oracle o;
  for (int i = 0; i < n; ++i) {
    const int k = descending ? n - 1 - i : i;
    ASSERT_TRUE(t.insert(k, ~k));
    o.emplace(k, ~k);
  }
  EXPECT_EQ(all_of(t), Pairs(o.begin(), o.end()));
  EXPECT_EQ(t.size(), o.size());
  const int windows[][2] = {
      {INT_MIN, INT_MAX},  // the whole key space
      {0, n - 1},          // exactly the keys
      {n / 4, 3 * n / 4},  // middle
      {INT_MIN, 9},        // low edge
      {0, 0},              // lowest key alone
      {n - 10, n - 1},     // high edge
      {n - 1, n - 1},      // highest key alone
      {n - 10, INT_MAX},   // up to the maximum key: the sentinels are next
      {n, INT_MAX},        // only the sentinel spine in the way
  };
  for (const auto& w : windows) {
    EXPECT_EQ(ranged(t, w[0], w[1]), oracle_range(o, w[0], w[1]))
        << "[" << w[0] << "," << w[1] << "]";
  }
  EXPECT_TRUE(t.validate().ok);
}

TEST(OrderedVineTest, AscendingRightVineScansMatchStdMap) {
  expect_vine_scans(false);
}

TEST(OrderedVineTest, DescendingLeftVineScansMatchStdMap) {
  expect_vine_scans(true);
}

// ---------------------------------------------------------------------------
// Weak consistency under concurrency.
// ---------------------------------------------------------------------------

/// Sets the stop flag when the reader scope exits — including early exits
/// from a failed ASSERT_*, which would otherwise leave the churn threads
/// spinning forever and turn a test failure into a timeout.
struct StopOnExit {
  std::atomic<bool>& stop;
  ~StopOnExit() { stop.store(true); }
};

/// The stable-region answers of StableRegionIsAlwaysReported, through a tree
/// or a handle.
template <typename Q>
void expect_stable_region(const Q& q) {
  ASSERT_EQ(q.count_range(1000, 1009), 10u);
  ASSERT_EQ(q.find_ge(950), std::optional<int>(1000));  // gap is quiet
  ASSERT_EQ(q.find_le(1500), std::optional<int>(1009));
  ASSERT_EQ(q.find_gt(1009), std::nullopt);  // no keys exist above 1009
  ASSERT_EQ(q.max_key(), std::optional<int>(1009));
}

TYPED_TEST(OrderedQueryTest, StableRegionIsAlwaysReported) {
  // Keys 1000..1009 are permanent; churn happens strictly below 900. Queries
  // probing from WITHIN the quiet gap (900, 1000) or above the stable region
  // must see exactly the stable keys, through the tree and through the
  // reader's own handle. (A probe from below the churn region, e.g.
  // find_ge(600), could legitimately return a transiently present churn key
  // — that is the documented weak consistency, not a bug.)
  TypeParam t;
  for (int k = 1000; k < 1010; ++k) t.insert(k, k);
  std::atomic<bool> stop{false};
  run_threads(4, [&](std::size_t tid) {
    auto h = t.handle();
    if (tid == 0) {
      StopOnExit guard{stop};
      for (int i = 0; i < 4000 && !::testing::Test::HasFatalFailure(); ++i) {
        expect_stable_region(t);
        expect_stable_region(h);
      }
    } else {
      Xoshiro256 rng(tid);
      // Thread 1 churns through the tree-level path, the others through
      // handles; both paths share the stable-region guarantee.
      const int base = tid == 1 ? 0 : 700;
      const int span = tid == 1 ? 500 : 200;
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = base + static_cast<int>(rng.next_below(span));
        if (tid == 1) {
          t.insert(k, k);
          t.erase(k);
        } else {
          h.insert(k, k);
          h.erase(k);
        }
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

/// Bounds and range through a tree or a handle under even-key churn: every
/// reported key is even (odd keys are never inserted) and on the queried
/// side of `probe`.
template <typename Q>
void expect_no_invented_keys(const Q& q, int probe) {
  if (const auto g = q.find_ge(probe)) {
    ASSERT_EQ(*g % 2, 0) << "invented key";
    ASSERT_GE(*g, probe);
  }
  if (const auto l = q.find_le(probe)) {
    ASSERT_EQ(*l % 2, 0) << "invented key";
    ASSERT_LE(*l, probe);
  }
  q.range(probe, probe + 16, [&](const int& k, const int& v) {
    ASSERT_EQ(k % 2, 0) << "invented key";
    ASSERT_EQ(v, k);
  });
}

TYPED_TEST(OrderedQueryTest, BoundsNeverInventKeys) {
  TypeParam t;
  std::atomic<bool> stop{false};
  run_threads(3, [&](std::size_t tid) {
    auto h = t.handle();
    if (tid == 0) {
      StopOnExit guard{stop};
      Xoshiro256 rng(7);
      for (int i = 0; i < 8000 && !::testing::Test::HasFatalFailure(); ++i) {
        const int probe = static_cast<int>(rng.next_below(512));
        expect_no_invented_keys(t, probe);
        expect_no_invented_keys(h, probe);
      }
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.next_below(256)) * 2;
        h.insert(k, k);
        h.erase(k);
      }
    }
  });
  EXPECT_TRUE(t.validate().ok);
}

/// One scan's output over [lo, hi] under odd-key churn: strictly ascending,
/// inside [lo, hi], each key carrying its own value, and every permanent
/// (even) key of the window reported.
void expect_window_scan(const Pairs& got, int lo, int hi) {
  std::vector<int> evens;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto [k, v] = got[i];
    ASSERT_GE(k, lo);
    ASSERT_LE(k, hi);
    ASSERT_EQ(v, k) << "wrong value";
    if (i > 0) {
      ASSERT_LT(got[i - 1].first, k) << "out of order";
    }
    if (k % 2 == 0) evens.push_back(k);
  }
  std::vector<int> want;
  for (int k = lo + (lo % 2 != 0); k <= hi; k += 2) want.push_back(k);
  ASSERT_EQ(evens, want) << "a permanent key was missed";
}

TYPED_TEST(OrderedQueryTest, WindowScansUnderRotations) {
  // Even keys in [0, kSpan) are permanent. Churners insert runs of 32
  // ascending odd keys inside the scanned window and erase them again, so
  // on the chromatic tree rotations reshape the subtree a scan is inside.
  constexpr int kSpan = 2048;
  constexpr int kLo = 512;
  constexpr int kHi = 1535;
  constexpr int kRun = 32;
  TypeParam t;
  for (int k = 0; k < kSpan; k += 2) ASSERT_TRUE(t.insert(k, k));
  std::atomic<bool> stop{false};
  run_threads(3, [&](std::size_t tid) {
    auto h = t.handle();
    if (tid == 0) {
      StopOnExit guard{stop};
      for (int i = 0; i < 600 && !::testing::Test::HasFatalFailure(); ++i) {
        expect_window_scan(ranged(t, kLo, kHi), kLo, kHi);
        expect_window_scan(ranged(h, kLo + 1, kHi - 1), kLo + 1, kHi - 1);
        expect_window_scan(all_of(h), 0, kSpan - 1);
      }
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        const int first =
            kLo + 1 + 2 * static_cast<int>(rng.next_below((kHi - kLo) / 2 -
                                                          kRun));
        for (int j = 0; j < kRun; ++j) h.insert(first + 2 * j, first + 2 * j);
        for (int j = 0; j < kRun; ++j) h.erase(first + 2 * j);
      }
    }
  });
  const auto v = t.validate();
  EXPECT_TRUE(v.ok) << v.error;
  Oracle o;
  for (int k = 0; k < kSpan; k += 2) o.emplace(k, k);
  expect_both(t, o, kLo, kLo, kHi);
}

// ---------------------------------------------------------------------------
// A scan across a parked chromatic rebalance.
// ---------------------------------------------------------------------------

using InjectChromaticMap =
    ChromaticTreeMap<int, int, std::less<int>, EpochReclaimer,
                     inject::InjectTraits>;

inject::FaultAction stall_at(unsigned tid, HookPoint p, unsigned occurrence) {
  inject::FaultAction a;
  a.kind = inject::FaultKind::kStall;
  a.tid = tid;
  a.point = static_cast<int>(p);
  a.occurrence = occurrence;
  return a;
}

/// Every scan of `t` over the ascending keys [0, last] in `o`.
template <typename Tree>
void expect_scans_exact(const Tree& t, const Oracle& o, int last) {
  for (const auto& w : {std::pair{INT_MIN, INT_MAX}, std::pair{0, last},
                        std::pair{last / 2, last}, std::pair{last - 8, last},
                        std::pair{1, last - 1}}) {
    EXPECT_EQ(ranged(t, w.first, w.second),
              oracle_range(o, w.first, w.second))
        << "[" << w.first << "," << w.second << "]";
  }
  EXPECT_EQ(all_of(t), Pairs(o.begin(), o.end()));
  EXPECT_EQ(t.size(), o.size());
}

TEST(OrderedScanFaultTest, ScansAreExactAcrossParkedRebalance) {
  // One thread's ascending inserts are deterministic. A dry run finds the
  // insert whose cleanup runs the first fix, and how many SCX child swings
  // precede that fix's own.
  int trigger = -1;
  unsigned swings_before = 0;
  {
    InjectChromaticMap dry;
    inject::FaultScheduler sched(
        inject::FaultPlan{{stall_at(0, HookPoint::kBeforeRebalance, 1)}});
    std::atomic<int> current{-1};
    std::thread victim([&] {
      inject::FaultScheduler::ThreadScope scope(sched, 0);
      auto h = dry.handle();
      for (int k = 0; k < 1000; ++k) {
        current.store(k);
        h.insert(k, 3 * k);
      }
    });
    const bool stalled = sched.wait_until_stalled(0);
    trigger = current.load();
    swings_before = sched.point_hits(0, HookPoint::kBeforeScxChild);
    sched.release_all();
    victim.join();
    ASSERT_TRUE(stalled) << "ascending inserts never rebalanced";
  }
  ASSERT_GT(trigger, 8);

  // The same inserts, parked at the fix's SCX: its nodes are frozen, the
  // child pointer above them is not yet swung.
  InjectChromaticMap t;
  inject::FaultScheduler sched(inject::FaultPlan{
      {stall_at(0, HookPoint::kBeforeScxChild, swings_before + 1)}});
  std::thread victim([&] {
    inject::FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    for (int k = 0; k <= trigger; ++k) h.insert(k, 3 * k);
  });
  const bool stalled = sched.wait_until_stalled(0);
  const unsigned fixes = sched.point_hits(0, HookPoint::kBeforeRebalance);
  Oracle o;
  for (int k = 0; k <= trigger; ++k) o.emplace(k, 3 * k);
  if (stalled) expect_scans_exact(t, o, trigger);  // before the swing
  sched.release_all();
  victim.join();
  ASSERT_TRUE(stalled) << "the fix's SCX never reached its child swing";
  EXPECT_EQ(fixes, 1u) << "the parked SCX was not the first fix";
  expect_scans_exact(t, o, trigger);  // after the swing
  const auto v = t.validate();
  EXPECT_TRUE(v.ok) << v.error;
}

}  // namespace
}  // namespace efrb
