// The contract every registry-backed reclaimer shares (reclaim/registry.hpp),
// run once per policy: a detached backlog that is still covered is orphaned
// and later freed by a thread that never owned it, the orphan gauge mirrors
// the books under churn, the last detach of a quiet structure drains the
// orphan store, attach() throws CapacityExhausted and recovers, and a
// thread's slot is reusable after it exits. The paced-free books too:
// freed_count() counts deleters that ran, a slot holds at most two batches
// proven safe but not yet freed, even right after a stall, and flush() and
// detach() free all of it and return the ready list's buffer. Behaviour
// specific to one rule (pinned readers, protect/revalidate, grace-round
// waits) stays in the per-policy suites.
#include <gtest/gtest.h>

#include <algorithm>
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
  if constexpr (std::is_base_of_v<HazardPointerDomain, R>) {
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

/// A policy with read access to its slot table's ready lists, which the
/// public surface does not show. Single-threaded use only: the lists are
/// owner-thread state.
template <typename R>
struct Inspected : R {
  using R::R;

  /// Largest number of entries one slot holds proven safe but not freed.
  std::size_t max_ready() const {
    std::size_t n = 0;
    for (const auto& padded : this->reg_->slots) {
      n = std::max(n, padded->ready.size());
    }
    return n;
  }

  /// Largest ready-list buffer still allocated by any slot.
  std::size_t max_ready_capacity() const {
    std::size_t n = 0;
    for (const auto& padded : this->reg_->slots) {
      n = std::max(n, padded->ready.capacity());
    }
    return n;
  }
};

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

TYPED_TEST(ReclaimContractTest, FreedCountEqualsDeleterCallsAtEveryCheckpoint) {
  // freed_count() is the number of deleters that have run: not the number a
  // sweep proved safe, which may still wait on the ready list.
  std::atomic<int> freed{0};
  constexpr std::size_t kBatch = 16;
  auto r = make_reclaimer<TypeParam>(/*max_threads=*/4, kBatch);
  auto books_balance = [&] {
    return r.freed_count() == static_cast<std::uint64_t>(freed.load()) &&
           r.gauges().freed_total == r.freed_count();
  };
  int retired = 0;
  auto att = r.attach();
  for (std::size_t i = 0; i < 20 * kBatch; ++i, ++retired) {
    att.retire(new Tracked(&freed));
    ASSERT_TRUE(books_balance()) << "after retire " << i;
  }
  // Paced frees ran before any flush.
  EXPECT_GT(freed.load(), 0);
  {
    // Retires inside a region: sweeps hand over less, the books still hold.
    auto region = enter(att);
    for (std::size_t i = 0; i < 3 * kBatch; ++i, ++retired) {
      att.retire(new Tracked(&freed));
      ASSERT_TRUE(books_balance()) << "after pinned retire " << i;
    }
  }
  att.flush();
  ASSERT_TRUE(books_balance());
  // The thread-lease path counts on its own slot.
  for (std::size_t i = 0; i < 3 * kBatch; ++i, ++retired) {
    r.retire(new Tracked(&freed));
    ASSERT_TRUE(books_balance()) << "after lease retire " << i;
  }
  r.flush();
  ASSERT_TRUE(books_balance());
  att.detach();
  ASSERT_TRUE(books_balance());
  EXPECT_EQ(freed.load(), retired);
  EXPECT_EQ(r.gauges().backlog(), 0u);
}

TYPED_TEST(ReclaimContractTest, UnpinnedRetiresHoldAtMostTwoBatchesReady) {
  std::atomic<int> freed{0};
  constexpr std::size_t kBatch = 64;
  constexpr int kRetires = 100000;
  auto r = make_reclaimer<Inspected<TypeParam>>(/*max_threads=*/4, kBatch);
  auto att = r.attach();
  for (int i = 0; i < kRetires; ++i) {
    att.retire(new Tracked(&freed));
    ASSERT_LE(r.max_ready(), 2 * kBatch) << "after retire " << i;
    // Two batches awaiting their safety condition plus two ready: the pace
    // keeps up with the retire stream.
    ASSERT_LE(r.gauges().backlog(), 4 * kBatch) << "after retire " << i;
  }
  att.detach();
  EXPECT_EQ(freed.load(), kRetires);
}

TYPED_TEST(ReclaimContractTest, StalledRegionsExcessIsFreedAtTheNextSweep) {
  // A region held across ten batches of retires keeps a pinning rule from
  // proving anything safe. Once it ends, the sweeps that follow hand all of
  // it over at once; the slot frees everything past two batches then and
  // there rather than pacing it out over the retires to come. (A hazard
  // handle covers only what it publishes, so under hazard pointers the
  // stall holds back nothing and the bounds hold throughout.)
  std::atomic<int> freed{0};
  constexpr std::size_t kBatch = 64;
  auto r = make_reclaimer<Inspected<TypeParam>>(/*max_threads=*/4, kBatch);
  auto reader = r.attach();
  auto writer = r.attach();
  {
    auto region = enter(reader);
    for (std::size_t i = 0; i < 10 * kBatch; ++i) {
      writer.retire(new Tracked(&freed));
    }
    if constexpr (!std::is_base_of_v<HazardPointerDomain, TypeParam>) {
      EXPECT_EQ(freed.load(), 0) << "the region did not hold reclamation";
    }
  }
  // Two sweeps suffice for every rule: the epoch rule needs two advances
  // past the stalled stamp, the grace-round rule one sweep to end the held
  // round and one to end the round after it.
  for (std::size_t i = 0; i < 3 * kBatch; ++i) {
    writer.retire(new Tracked(&freed));
    ASSERT_LE(r.max_ready(), 2 * kBatch) << "after retire " << i;
  }
  EXPECT_LE(r.gauges().backlog(), 4 * kBatch);
  writer.detach();
  EXPECT_EQ(freed.load(), static_cast<int>(13 * kBatch));
}

TYPED_TEST(ReclaimContractTest, FlushAndDetachFreeAllAndReturnTheReadyBuffer) {
  std::atomic<int> freed{0};
  constexpr std::size_t kBatch = 32;
  int retired = 0;
  auto r = make_reclaimer<Inspected<TypeParam>>(/*max_threads=*/4, kBatch);
  auto retire_some = [&](auto& owner) {
    for (std::size_t i = 0; i < 5 * kBatch + 7; ++i, ++retired) {
      owner.retire(new Tracked(&freed));
    }
    // A sweep has handed entries over, so the ready buffer exists.
    ASSERT_GT(r.max_ready_capacity(), 0u);
  };
  auto expect_drained = [&](const char* after) {
    EXPECT_EQ(r.max_ready(), 0u) << after;
    EXPECT_EQ(r.max_ready_capacity(), 0u) << after;
    EXPECT_EQ(freed.load(), retired) << after;
    EXPECT_EQ(r.gauges().backlog(), 0u) << after;
  };

  auto att = r.attach();
  retire_some(att);
  att.flush();
  expect_drained("Attachment::flush");

  retire_some(att);
  att.detach();
  expect_drained("Attachment::detach");

  retire_some(r);
  r.flush();
  expect_drained("flush on the thread's lease");

  std::thread t([&] { retire_some(r); });
  t.join();
  expect_drained("thread exit");
}

}  // namespace
}  // namespace efrb
