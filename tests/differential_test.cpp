// Differential testing: every dictionary implementation in the repository is
// driven through the SAME pseudo-random operation sequence and must return
// bit-identical results at every step. A divergence pins the bug to a single
// implementation rather than to the harness or the oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "baselines/coarse_bst.hpp"
#include "baselines/cow_bst.hpp"
#include "baselines/finelock_bst.hpp"
#include "baselines/harris_list.hpp"
#include "baselines/locked_map.hpp"
#include "baselines/set_interface.hpp"
#include "baselines/skiplist.hpp"
#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "reclaim/hazard.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

struct Step {
  int op;  // 0 = insert, 1 = erase, 2 = contains
  int key;
};

std::vector<Step> make_script(std::uint64_t seed, int n,
                              std::uint64_t range) {
  std::vector<Step> script;
  script.reserve(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    script.push_back(Step{static_cast<int>(rng.next_below(3)),
                          static_cast<int>(rng.next_below(range))});
  }
  return script;
}

template <typename Set>
std::vector<bool> run_script(const std::vector<Step>& script) {
  Set s;
  std::vector<bool> results;
  results.reserve(script.size());
  for (const Step& step : script) {
    switch (step.op) {
      case 0: results.push_back(s.insert(step.key)); break;
      case 1: results.push_back(s.erase(step.key)); break;
      default: results.push_back(s.contains(step.key));
    }
  }
  return results;
}

class DifferentialSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(DifferentialSweep, AllImplementationsAgreeStepByStep) {
  const auto [seed, range] = GetParam();
  const auto script = make_script(seed, 4000, range);

  const auto reference = run_script<EfrbTreeSet<int>>(script);
  const struct {
    const char* name;
    std::vector<bool> results;
  } others[] = {
      {"efrb-helping-search",
       run_script<EfrbTreeSet<int, std::less<int>, EpochReclaimer,
                              HelpingSearchTraits>>(script)},
      {"chromatic", run_script<ChromaticTreeSet<int>>(script)},
      {"coarse", run_script<CoarseLockBst<int>>(script)},
      {"finelock", run_script<FineLockBst<int>>(script)},
      {"stdmap", run_script<LockedStdSet<int>>(script)},
      {"harris", run_script<HarrisList<int>>(script)},
      {"skiplist", run_script<LockFreeSkipList<int>>(script)},
      {"cow", run_script<CowBst<int>>(script)},
  };

  for (const auto& other : others) {
    ASSERT_EQ(other.results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(other.results[i], reference[i])
          << other.name << " diverges at step " << i << " (op "
          << script[i].op << " key " << script[i].key << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByRange, DifferentialSweep,
    ::testing::Values(std::make_tuple(1, 8), std::make_tuple(2, 8),
                      std::make_tuple(3, 128), std::make_tuple(4, 128),
                      std::make_tuple(5, 4096), std::make_tuple(6, 4096)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_range" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Map-level differential: the same idea over the full ConcurrentMap surface
// (get / insert(k,v) / insert_or_assign / replace / erase). The template is
// constrained by the concept itself, so only genuine ConcurrentMap models can
// even be instantiated.
// ---------------------------------------------------------------------------

struct MapStep {
  int op;  // 0 ins, 1 ioa, 2 replace, 3 erase, 4 get, 5 contains
  int key;
  int value;
  int expected;  // for replace
};

std::vector<MapStep> make_map_script(std::uint64_t seed, int n,
                                     std::uint64_t range) {
  std::vector<MapStep> script;
  script.reserve(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    script.push_back(MapStep{static_cast<int>(rng.next_below(6)),
                             static_cast<int>(rng.next_below(range)),
                             static_cast<int>(rng.next_below(8)),
                             static_cast<int>(rng.next_below(8))});
  }
  return script;
}

/// Step results encoded as ints so bool and optional<int> outcomes compare
/// uniformly (-1 = absent).
template <ConcurrentMap Map>
std::vector<int> run_map_script(const std::vector<MapStep>& script) {
  Map m;
  std::vector<int> results;
  results.reserve(script.size());
  for (const MapStep& s : script) {
    switch (s.op) {
      case 0: results.push_back(m.insert(s.key, s.value)); break;
      case 1: results.push_back(m.insert_or_assign(s.key, s.value)); break;
      case 2: results.push_back(m.replace(s.key, s.expected, s.value)); break;
      case 3: results.push_back(m.erase(s.key)); break;
      case 4: results.push_back(m.get(s.key).value_or(-1)); break;
      default: results.push_back(m.contains(s.key));
    }
  }
  return results;
}

class MapDifferentialSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(MapDifferentialSweep, AllMapsAgreeStepByStep) {
  const auto [seed, range] = GetParam();
  const auto script = make_map_script(seed, 4000, range);

  const auto reference = run_map_script<LockedStdMap<int, int>>(script);
  const struct {
    const char* name;
    std::vector<int> results;
  } others[] = {
      {"efrb-map", run_map_script<EfrbTreeMap<int, int>>(script)},
      {"efrb-map-hazard",
       run_map_script<EfrbTreeMap<int, int, std::less<int>, HazardReclaimer>>(
           script)},
      {"efrb-map-stats",
       run_map_script<EfrbTreeMap<int, int, std::less<int>, EpochReclaimer,
                                  StatsTraits>>(script)},
      {"chromatic-map", run_map_script<ChromaticTreeMap<int, int>>(script)},
      {"chromatic-map-hazard",
       run_map_script<
           ChromaticTreeMap<int, int, std::less<int>, HazardReclaimer>>(
           script)},
      {"chromatic-map-stats",
       run_map_script<ChromaticTreeMap<int, int, std::less<int>,
                                       EpochReclaimer, StatsTraits>>(script)},
  };

  for (const auto& other : others) {
    ASSERT_EQ(other.results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(other.results[i], reference[i])
          << other.name << " diverges at step " << i << " (op "
          << script[i].op << " key " << script[i].key << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByRange, MapDifferentialSweep,
    ::testing::Values(std::make_tuple(11, 8), std::make_tuple(12, 128),
                      std::make_tuple(13, 4096)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_range" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Read path vs a std::map oracle, on random and adversarial key streams and
// under concurrent churn.
// ---------------------------------------------------------------------------

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
// Handle path vs tree-level calls: one op stream drives a tree through a
// Handle (its own reclaimer Attachment) and a twin through tree-level calls
// (the calling thread's lease); both must answer like a std::map at every
// step and end structurally valid.
// ---------------------------------------------------------------------------

template <typename Map>
void handle_vs_tree_calls(std::uint64_t seed) {
  Map via_handle;
  Map via_tree;
  std::map<int, int> oracle;
  Xoshiro256 rng(seed);
  auto h = via_handle.handle();
  for (int op = 0; op < 20000; ++op) {
    const int k = static_cast<int>(rng.next() % 512);
    switch (rng.next() % 4) {
      case 0: {
        const int v = static_cast<int>(rng.next() % 100);
        const bool inserted = oracle.emplace(k, v).second;
        ASSERT_EQ(h.insert(k, v), inserted) << "step " << op;
        ASSERT_EQ(via_tree.insert(k, v), inserted) << "step " << op;
        break;
      }
      case 1: {
        const bool erased = oracle.erase(k) != 0;
        ASSERT_EQ(h.erase(k), erased) << "step " << op;
        ASSERT_EQ(via_tree.erase(k), erased) << "step " << op;
        break;
      }
      default: {
        const auto it = oracle.find(k);
        const std::optional<int> want =
            it == oracle.end() ? std::nullopt : std::optional<int>(it->second);
        ASSERT_EQ(h.get(k), want) << "step " << op;
        ASSERT_EQ(via_tree.get(k), want) << "step " << op;
        break;
      }
    }
  }
  EXPECT_TRUE(via_handle.validate().ok) << via_handle.validate().error;
  EXPECT_TRUE(via_tree.validate().ok) << via_tree.validate().error;
}

TEST(HandleDifferential, EfrbHandleMatchesTreeCalls) {
  handle_vs_tree_calls<EfrbTreeMap<int, int>>(0xa110cu);
}

TEST(HandleDifferential, ChromaticHandleMatchesTreeCalls) {
  handle_vs_tree_calls<ChromaticTreeMap<int, int>>(0xa110cu);
}

}  // namespace
}  // namespace efrb
