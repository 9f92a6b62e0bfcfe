// The contract every registry-backed reclaimer shares (reclaim/registry.hpp),
// run once per policy: a detached backlog that is still covered is orphaned
// and later freed by a thread that never owned it, the orphan gauge mirrors
// the books under churn, the last detach of a quiet structure drains the
// orphan store, attach() throws CapacityExhausted and recovers, and a
// thread's slot is reusable after it exits. Behaviour specific to one rule
// (pinned readers, protect/revalidate, grace-round waits) stays in the
// per-policy suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>* counter) : counter_(counter) {}
  ~Tracked() { counter_->fetch_add(1); }
  std::atomic<int>* counter_;
};

constexpr std::size_t kHazards = 4;

template <typename R>
R make_reclaimer(std::size_t max_threads, std::size_t retire_batch) {
  if constexpr (std::is_same_v<R, HazardPointerDomain>) {
    return R(max_threads, kHazards, retire_batch);
  } else {
    return R(max_threads, retire_batch);
  }
}

/// The policy's protected region on a reclaimer or an attachment: a pin, or
/// a hazard handle.
template <typename Owner>
auto enter(Owner& owner) {
  if constexpr (requires(Owner& o) { o.pin(); }) {
    return owner.pin();
  } else {
    return owner.make_handle();
  }
}

/// Keeps `objs` from being freed while `region` lives. A pin covers
/// everything retired after it began; a hazard handle publishes each object.
template <typename Region>
void cover(Region& region, const std::vector<Tracked*>& objs) {
  if constexpr (requires(Region& g, Tracked* p) { g.set(0, p); }) {
    for (std::size_t i = 0; i < objs.size(); ++i) region.set(i, objs[i]);
  }
}

/// Reads `src` inside `region`; a hazard handle publishes it first.
template <typename Region>
void read(Region& region, const std::atomic<Tracked*>& src) {
  if constexpr (requires(Region& g, const std::atomic<Tracked*>& s) {
                  g.protect(0, s);
                }) {
    region.protect(0, src);
  } else {
    src.load(std::memory_order_acquire);
  }
}

template <typename R>
class ReclaimContractTest : public ::testing::Test {};

struct PolicyName {
  template <typename R>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<R, EpochReclaimer>) return "Epoch";
    if constexpr (std::is_same_v<R, HazardReclaimer>) return "GraceRounds";
    return "HazardPointers";
  }
};

using Policies =
    ::testing::Types<EpochReclaimer, HazardReclaimer, HazardPointerDomain>;
TYPED_TEST_SUITE(ReclaimContractTest, Policies, PolicyName);

TYPED_TEST(ReclaimContractTest, DetachedThreadsRetireesAreOrphanedAndFreed) {
  std::atomic<int> freed{0};
  auto r = make_reclaimer<TypeParam>(/*max_threads=*/4, /*retire_batch=*/64);
  std::vector<Tracked*> objs;
  for (std::size_t i = 0; i < kHazards; ++i) objs.push_back(new Tracked(&freed));

  auto reader = r.attach();
  {
    auto region = enter(reader);
    cover(region, objs);
    auto att = r.attach();
    for (Tracked* p : objs) att.retire(p);
    att.detach();
    // Still covered: neither the detach's passes nor its drain may free them.
    EXPECT_EQ(freed.load(), 0);
    EXPECT_EQ(r.gauges().orphan_depth, objs.size());
  }
  // The registry is still live; a later flush from a thread that never owned
  // the retirees frees them.
  r.flush();
  EXPECT_EQ(freed.load(), static_cast<int>(objs.size()));
  EXPECT_EQ(r.gauges().orphan_depth, 0u);
}

TYPED_TEST(ReclaimContractTest, OrphanGaugeMirrorsDrainedTotalsUnderChurn) {
  std::atomic<int> freed{0};
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  constexpr int kPerRound = 8;
  constexpr int kTotal = kThreads * kRounds * kPerRound;
  auto r = make_reclaimer<TypeParam>(/*max_threads=*/16, /*retire_batch=*/64);

  // Churners repeatedly attach, retire a list short of the batch inside a
  // region, and detach: other churners' regions keep some of each list
  // unsafe, so hand-offs race a concurrent sweeper's drains the whole time.
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      r.flush();
      // The snapshot races the churn (fields are read one by one), so only
      // the absolute bound is safe mid-run; the exact books are checked at
      // quiescence below.
      const ReclaimGauges g = r.gauges();
      EXPECT_LE(g.orphan_depth, static_cast<std::uint64_t>(kTotal));
    }
  });
  run_threads(kThreads, [&](std::size_t) {
    for (int round = 0; round < kRounds; ++round) {
      auto att = r.attach();
      {
        auto region = enter(att);
        for (int i = 0; i < kPerRound; ++i) att.retire(new Tracked(&freed));
      }
      att.detach();
    }
  });
  stop.store(true, std::memory_order_release);
  sweeper.join();

  // Quiescent with no attachments: everything retired-but-not-freed sits in
  // the orphan store, so the lock-free mirror must equal the backlog exactly.
  ReclaimGauges g = r.gauges();
  EXPECT_EQ(g.retired_total, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(g.orphan_depth, g.backlog());
  EXPECT_EQ(static_cast<std::uint64_t>(freed.load()), g.freed_total);

  // Drain to empty: the mirror must reach zero with the books balanced.
  for (int i = 0; i < 64 && freed.load() < kTotal; ++i) r.flush();
  g = r.gauges();
  EXPECT_EQ(g.orphan_depth, 0u);
  EXPECT_EQ(g.freed_total, g.retired_total);
  ASSERT_EQ(freed.load(), kTotal);
}

TYPED_TEST(ReclaimContractTest, LastDetachDrainsTheOrphanStore) {
  // Churners share one hot object: each reads it inside its region, swaps in
  // a fresh one and retires the old. The other churners' regions (pins, or
  // hazards on the hot object) keep some retirees unsafe when an early
  // churner detaches, so they are orphaned. The last detach comes after
  // every region has ended and must leave nothing behind — with no flush
  // from anyone else.
  std::atomic<int> freed{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;  // not a multiple of the batch
  auto r = make_reclaimer<TypeParam>(/*max_threads=*/16, /*retire_batch=*/64);
  std::atomic<Tracked*> hot{new Tracked(&freed)};
  run_threads(kThreads, [&](std::size_t) {
    auto att = r.attach();
    for (int i = 0; i < kPerThread; ++i) {
      auto region = enter(att);
      read(region, hot);
      att.retire(hot.exchange(new Tracked(&freed)));
    }
    att.detach();
  });
  const ReclaimGauges g = r.gauges();
  EXPECT_EQ(g.retired_total, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(g.orphan_depth, 0u);
  EXPECT_EQ(g.freed_total, g.retired_total);
  delete hot.load();
  EXPECT_EQ(freed.load(), kThreads * kPerThread + 1);
}

TYPED_TEST(ReclaimContractTest, AttachThrowsCapacityExhaustedAndRecovers) {
  auto r = make_reclaimer<TypeParam>(/*max_threads=*/2, /*retire_batch=*/64);
  auto a = r.attach();
  auto b = r.attach();
  EXPECT_THROW(r.attach(), CapacityExhausted);
  // No side effects on failure: releasing one slot makes attach succeed.
  b.detach();
  EXPECT_NO_THROW({
    auto c = r.attach();
    c.retire(new int(1));
  });
  r.flush();
}

TYPED_TEST(ReclaimContractTest, SlotReleasedAtThreadExitIsReusable) {
  auto r = make_reclaimer<TypeParam>(/*max_threads=*/2, /*retire_batch=*/4);
  for (int round = 0; round < 8; ++round) {
    std::thread t([&] {
      auto region = enter(r);
      r.retire(new int(round));
    });
    t.join();  // the slot must be released, or round 3+ would throw
  }
  SUCCEED();
}

}  // namespace
}  // namespace efrb
