// Linearizability checking of the MAP interface — including the
// insert_or_assign extension, whose correctness argument (it reuses the
// iflag/ichild/iunflag machinery with a replacement leaf) is validated here
// empirically: recorded concurrent histories of get/insert/assign/erase with
// values must admit a linearization under the sequential map spec.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/chromatic.hpp"
#include "core/efrb_tree.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/map_spec.hpp"
#include "reclaim/hazard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

using lincheck::MapHistory;
using lincheck::MapOperation;
using lincheck::MapOpType;
using lincheck::NibbleMapSpec;
using MapChecker = lincheck::BasicChecker<NibbleMapSpec>;

MapOperation get_op(std::uint64_t k, bool ok, std::uint64_t v,
                    std::uint64_t inv, std::uint64_t res) {
  return MapOperation{MapOpType::kGet, k, 0, ok, v, inv, res, 0};
}
MapOperation put_op(std::uint64_t k, std::uint64_t v, bool ok,
                    std::uint64_t inv, std::uint64_t res) {
  return MapOperation{MapOpType::kPut, k, v, ok, 0, inv, res, 0};
}
MapOperation assign_op(std::uint64_t k, std::uint64_t v, bool inserted,
                       std::uint64_t inv, std::uint64_t res) {
  return MapOperation{MapOpType::kAssign, k, v, inserted, 0, inv, res, 0};
}
MapOperation erase_op(std::uint64_t k, bool ok, std::uint64_t inv,
                      std::uint64_t res) {
  return MapOperation{MapOpType::kErase, k, 0, ok, 0, inv, res, 0};
}

TEST(MapSpecTest, NibblePacking) {
  auto s = NibbleMapSpec::empty_state();
  EXPECT_EQ(NibbleMapSpec::nibble(s, 3), NibbleMapSpec::kAbsent);
  s = NibbleMapSpec::with_nibble(s, 3, 9);
  EXPECT_EQ(NibbleMapSpec::nibble(s, 3), 9u);
  EXPECT_EQ(NibbleMapSpec::nibble(s, 2), NibbleMapSpec::kAbsent);
  EXPECT_EQ(NibbleMapSpec::nibble(s, 4), NibbleMapSpec::kAbsent);
}

TEST(MapCheckerTest, SequentialLegalHistory) {
  MapHistory h = {
      put_op(1, 5, true, 0, 1),
      get_op(1, true, 5, 2, 3),
      assign_op(1, 7, false, 4, 5),  // replaced existing -> "not inserted"
      get_op(1, true, 7, 6, 7),
      erase_op(1, true, 8, 9),
      get_op(1, false, 0, 10, 11),
  };
  EXPECT_TRUE(MapChecker::check(h));
}

TEST(MapCheckerTest, GetOfStaleValueIsRejected) {
  MapHistory h = {
      put_op(1, 5, true, 0, 1),
      assign_op(1, 7, false, 2, 3),
      get_op(1, true, 5, 4, 5),  // must see 7, not the overwritten 5
  };
  EXPECT_FALSE(MapChecker::check(h));
}

TEST(MapCheckerTest, PutOverExistingMustFail) {
  MapHistory h = {
      put_op(1, 5, true, 0, 1),
      put_op(1, 6, true, 2, 3),  // illegal: no-overwrite insert succeeded twice
  };
  EXPECT_FALSE(MapChecker::check(h));
}

TEST(MapCheckerTest, OverlappingAssignsAllowEitherFinalValue) {
  MapHistory sees_2 = {
      put_op(1, 9, true, 0, 1),
      assign_op(1, 2, false, 2, 10),
      assign_op(1, 3, false, 3, 9),
      get_op(1, true, 2, 11, 12),
  };
  MapHistory sees_3 = {
      put_op(1, 9, true, 0, 1),
      assign_op(1, 2, false, 2, 10),
      assign_op(1, 3, false, 3, 9),
      get_op(1, true, 3, 11, 12),
  };
  MapHistory sees_9 = {
      put_op(1, 9, true, 0, 1),
      assign_op(1, 2, false, 2, 10),
      assign_op(1, 3, false, 3, 9),
      get_op(1, true, 9, 11, 12),  // both assigns completed before the get
  };
  EXPECT_TRUE(MapChecker::check(sees_2));
  EXPECT_TRUE(MapChecker::check(sees_3));
  EXPECT_FALSE(MapChecker::check(sees_9));
}

TEST(MapCheckerTest, ConcurrentPutAndAssignOnEmptyKey) {
  // Both claim "inserted": only linearizable if... put first then assign
  // would report inserted=false for assign; assign first makes put fail.
  // So ok=true for both is NOT linearizable.
  MapHistory bad = {
      put_op(1, 2, true, 0, 5),
      assign_op(1, 3, true, 1, 4),
  };
  EXPECT_FALSE(MapChecker::check(bad));
  MapHistory good = {
      put_op(1, 2, false, 0, 5),
      assign_op(1, 3, true, 1, 4),
  };
  EXPECT_TRUE(MapChecker::check(good));
}

// ---------------------------------------------------------------------------
// Recorded histories from the real map.
// ---------------------------------------------------------------------------

template <typename MapT>
void run_recorded_bursts() {
  // Each burst runs on a fresh map (no windowed checking for maps — see
  // map_spec.hpp) with 3 threads x 5 ops = 15 ops <= kMaxWindow.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MapT map;
    std::atomic<std::uint64_t> clock{0};
    std::vector<MapHistory> logs(3);
    run_threads(3, [&](std::size_t tid) {
      Xoshiro256 rng(seed * 131 + tid);
      for (int i = 0; i < 5; ++i) {
        MapOperation op;
        op.thread = static_cast<unsigned>(tid);
        op.key = rng.next_below(4);
        op.invoke = clock.fetch_add(1);
        const int k = static_cast<int>(op.key);
        switch (rng.next_below(4)) {
          case 0: {
            op.type = MapOpType::kGet;
            const auto v = map.get(k);
            op.ok = v.has_value();
            op.value_out = v.has_value() ? static_cast<std::uint64_t>(*v) : 0;
            break;
          }
          case 1:
            op.type = MapOpType::kPut;
            op.value_arg = rng.next_below(14);
            op.ok = map.insert(k, static_cast<int>(op.value_arg));
            break;
          case 2:
            op.type = MapOpType::kAssign;
            op.value_arg = rng.next_below(14);
            op.ok = map.insert_or_assign(k, static_cast<int>(op.value_arg));
            break;
          default:
            op.type = MapOpType::kErase;
            op.ok = map.erase(k);
        }
        op.response = clock.fetch_add(1);
        logs[tid].push_back(op);
      }
    });
    MapHistory all;
    for (const auto& log : logs) all.insert(all.end(), log.begin(), log.end());
    EXPECT_TRUE(MapChecker::check(all)) << "seed " << seed;
  }
}

template <typename MapT>
void run_single_key_assign_fight() {
  // All threads assign distinct values to one key plus interleaved gets: the
  // strictest test of the insert_or_assign linearization argument.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    MapT map;
    std::atomic<std::uint64_t> clock{0};
    std::vector<MapHistory> logs(4);
    run_threads(4, [&](std::size_t tid) {
      Xoshiro256 rng(seed * 31 + tid);
      for (int i = 0; i < 5; ++i) {
        MapOperation op;
        op.thread = static_cast<unsigned>(tid);
        op.key = 0;
        op.invoke = clock.fetch_add(1);
        if (rng.next_below(2) == 0) {
          op.type = MapOpType::kAssign;
          op.value_arg = 1 + tid * 3 + static_cast<std::uint64_t>(i) % 3;
          op.ok = map.insert_or_assign(0, static_cast<int>(op.value_arg));
        } else {
          op.type = MapOpType::kGet;
          const auto v = map.get(0);
          op.ok = v.has_value();
          op.value_out = v.has_value() ? static_cast<std::uint64_t>(*v) : 0;
        }
        op.response = clock.fetch_add(1);
        logs[tid].push_back(op);
      }
    });
    MapHistory all;
    for (const auto& log : logs) all.insert(all.end(), log.begin(), log.end());
    EXPECT_TRUE(MapChecker::check(all)) << "seed " << seed;
  }
}

TEST(EfrbMapLinearizabilityTest, RecordedBurstsAreLinearizable) {
  run_recorded_bursts<EfrbTreeMap<int, int>>();
}

// The hazard-side reclaimer frees in grace rounds that wait only on the
// readers pinned when each round began, not on a global epoch. A round that
// ended too early would hand a reader a node that was freed and reused; the
// recorded histories would then show values no linearization explains.

TEST(EfrbMapLinearizabilityTest, RecordedBurstsUnderHazard) {
  run_recorded_bursts<EfrbTreeMap<int, int, std::less<int>, HazardReclaimer>>();
}

TEST(EfrbMapLinearizabilityTest, SingleKeyAssignFight) {
  run_single_key_assign_fight<EfrbTreeMap<int, int>>();
}

TEST(EfrbMapLinearizabilityTest, SingleKeyAssignFightUnderHazard) {
  run_single_key_assign_fight<
      EfrbTreeMap<int, int, std::less<int>, HazardReclaimer>>();
}

// The chromatic tree's value operations ride the same recorded-history
// checker: insert/assign/replace are all single-SCX leaf swaps, and the
// histories must admit linearizations under the identical sequential spec.

TEST(ChromaticMapLinearizabilityTest, RecordedBurstsAreLinearizable) {
  run_recorded_bursts<ChromaticTreeMap<int, int>>();
}

TEST(ChromaticMapLinearizabilityTest, RecordedBurstsUnderHazard) {
  run_recorded_bursts<
      ChromaticTreeMap<int, int, std::less<int>, HazardReclaimer>>();
}

TEST(ChromaticMapLinearizabilityTest, SingleKeyAssignFight) {
  run_single_key_assign_fight<ChromaticTreeMap<int, int>>();
}

TEST(ChromaticMapLinearizabilityTest, SingleKeyAssignFightUnderHazard) {
  run_single_key_assign_fight<
      ChromaticTreeMap<int, int, std::less<int>, HazardReclaimer>>();
}

}  // namespace
}  // namespace efrb
