// Tests for the epoch-based reclaimer: the guarantee the tree depends on is
// that an object handed to retire() is never freed while a thread that could
// have seen it remains pinned, and IS eventually freed once all such pins end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/barrier.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

/// Object whose destructor flips a flag, to observe exactly when frees happen.
struct Tracked {
  explicit Tracked(std::atomic<int>* counter) : counter_(counter) {}
  ~Tracked() { counter_->fetch_add(1); }
  std::atomic<int>* counter_;
};

TEST(LeakyReclaimerTest, SatisfiesPolicyAndNeverFrees) {
  static_assert(ReclaimerPolicy<LeakyReclaimer>);
  LeakyReclaimer r;
  [[maybe_unused]] auto g = r.pin();
  // Retire must not free: give it a static so the "leak" is not a real leak
  // under ASan.
  static int dummy = 0;
  r.retire(&dummy);
  EXPECT_EQ(r.gauges().freed_total, 0u);
}

TEST(EpochReclaimerTest, SatisfiesPolicy) {
  static_assert(ReclaimerPolicy<EpochReclaimer>);
  SUCCEED();
}

TEST(EpochReclaimerTest, RetiredObjectsEventuallyFreed) {
  std::atomic<int> freed{0};
  {
    EpochReclaimer r(8, /*retire_batch=*/4);
    for (int i = 0; i < 100; ++i) {
      auto g = r.pin();
      r.retire(new Tracked(&freed));
    }
    r.flush();
    EXPECT_GT(freed.load(), 0) << "nothing was freed despite quiescence";
  }
  // Reclaimer destruction frees the stragglers.
  EXPECT_EQ(freed.load(), 100);
}

TEST(EpochReclaimerTest, PinnedThreadBlocksReclamation) {
  std::atomic<int> freed{0};
  EpochReclaimer r(8, /*retire_batch=*/1);
  YieldingBarrier ready(2), release(2);

  std::thread pinner([&] {
    auto g = r.pin();  // hold a pin across the other thread's retire storm
    ready.arrive_and_wait();
    release.arrive_and_wait();
  });

  ready.arrive_and_wait();
  // This thread retires many objects; none retired *after* the pin began may
  // be freed while the pin is held. (Due to epoch granularity a bounded
  // prefix could be freed if retired with an older stamp; here the pinner
  // pinned first, so every retire has stamp >= pin epoch and must survive.)
  for (int i = 0; i < 50; ++i) {
    auto g = r.pin();
    r.retire(new Tracked(&freed));
  }
  r.flush();
  EXPECT_EQ(freed.load(), 0) << "freed an object while a pin from before its "
                                "retirement was still held";
  release.arrive_and_wait();
  pinner.join();

  for (int i = 0; i < 10; ++i) {
    auto g = r.pin();
    r.retire(new Tracked(&freed));
    r.flush();
  }
  EXPECT_GT(freed.load(), 0) << "unpinning did not enable reclamation";
  // Drain completely: entries retired under the momentary pins above need a
  // couple more epoch advances. Every Tracked references this frame's
  // counter, so none may outlive the test (the thread-local slot lease keeps
  // the registry — and any stranded retirees — alive until thread exit).
  for (int i = 0; i < 64 && freed.load() < 60; ++i) r.flush();
  ASSERT_EQ(freed.load(), 60);
}

TEST(EpochReclaimerTest, EpochAdvancesWhenAllQuiescent) {
  EpochReclaimer r(8, 1);
  const std::uint64_t e0 = r.current_epoch();
  for (int i = 0; i < 10; ++i) {
    auto g = r.pin();
    r.retire(new int(i));
  }
  r.flush();
  EXPECT_GT(r.current_epoch(), e0);
}

TEST(EpochReclaimerTest, NestedPinsKeepOuterAnnouncement) {
  std::atomic<int> freed{0};
  EpochReclaimer r(8, 1);
  {
    auto outer = r.pin();
    {
      auto inner = r.pin();  // must not overwrite the outer announcement
    }
    // Outer still pinned: nothing this thread retires now may be freed by
    // other threads... exercise by retiring from a second thread.
    std::thread t([&] {
      for (int i = 0; i < 20; ++i) {
        auto g = r.pin();
        r.retire(new Tracked(&freed));
      }
      r.flush();
    });
    t.join();
    EXPECT_EQ(freed.load(), 0);
  }
  // Outer pin released: drain the orphaned retirees (handed off when thread t
  // exited) so no deleter referencing this frame's counter survives the test.
  for (int i = 0; i < 64 && freed.load() < 20; ++i) r.flush();
  ASSERT_EQ(freed.load(), 20);
}

TEST(EpochReclaimerTest, GuardIsMovable) {
  EpochReclaimer r(8, 4);
  std::optional<EpochReclaimer::Guard> slot;
  {
    auto g = r.pin();
    slot = std::move(g);  // pin ownership transfers
  }
  // Pin still held via `slot`; a second pin on the same thread nests fine.
  auto g2 = r.pin();
  slot.reset();
  SUCCEED();
}

TEST(EpochReclaimerTest, FreedCountMatchesUnderChurn) {
  std::atomic<int> freed{0};
  constexpr int kPerThread = 2000;
  constexpr int kThreads = 4;
  {
    EpochReclaimer r(16, 16);
    run_threads(kThreads, [&](std::size_t) {
      for (int i = 0; i < kPerThread; ++i) {
        auto g = r.pin();
        r.retire(new Tracked(&freed));
      }
    });
    EXPECT_EQ(freed.load() + 0, freed.load());  // no torn counter
  }
  EXPECT_EQ(freed.load(), kPerThread * kThreads);
}

TEST(EpochReclaimerTest, ManyThreadsPinUnpinConcurrently) {
  EpochReclaimer r(32, 8);
  std::atomic<int> freed{0};
  run_threads(8, [&](std::size_t tid) {
    for (int i = 0; i < 500; ++i) {
      auto g = r.pin();
      if (i % 2 == static_cast<int>(tid % 2)) r.retire(new Tracked(&freed));
    }
  });
  // All pins released; a few flush rounds must free everything retired.
  for (int i = 0; i < 5; ++i) {
    auto g = r.pin();
    r.retire(new Tracked(&freed));
    r.flush();
  }
  EXPECT_GT(freed.load(), 0);
  // 8 threads x 250 retires each, plus the 5 above. Drain to the exact total:
  // stragglers would run their deleters against this dead frame at thread
  // exit (the TLS lease keeps the registry alive past the reclaimer).
  constexpr int kTotal = 8 * 250 + 5;
  for (int i = 0; i < 64 && freed.load() < kTotal; ++i) r.flush();
  ASSERT_EQ(freed.load(), kTotal);
}

TEST(EpochReclaimerTest, DistinctInstancesAreIndependent) {
  std::atomic<int> freed_a{0}, freed_b{0};
  EpochReclaimer a(8, 2), b(8, 2);
  auto ga = a.pin();  // a is pinned; b is not
  for (int i = 0; i < 20; ++i) {
    auto gb = b.pin();
    b.retire(new Tracked(&freed_b));
  }
  b.flush();
  EXPECT_GT(freed_b.load(), 0) << "pin on instance A must not stall B";
  EXPECT_EQ(freed_a.load(), 0);
  // Drain B fully (A's pin must not matter): leftover retirees would hold
  // dangling pointers to this frame's counter until thread exit.
  for (int i = 0; i < 64 && freed_b.load() < 20; ++i) b.flush();
  ASSERT_EQ(freed_b.load(), 20);
}

}  // namespace
}  // namespace efrb
