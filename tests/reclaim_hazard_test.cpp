// Tests for the hazard-pointer domain: a published hazard must prevent the
// pointed-to object from being freed; clearing it (or destroying the handle)
// must re-enable reclamation; unprotected retired objects must be freed by a
// scan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "reclaim/hazard.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace efrb {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>* counter) : counter_(counter) {}
  ~Tracked() { counter_->fetch_add(1); }
  std::atomic<int>* counter_;
};

TEST(HazardTest, UnprotectedRetireesAreFreedByScan) {
  std::atomic<int> freed{0};
  HazardPointerDomain hp(8, 4, /*retire_batch=*/4);
  for (int i = 0; i < 20; ++i) hp.retire(new Tracked(&freed));
  hp.flush();
  EXPECT_EQ(freed.load(), 20);
}

TEST(HazardTest, ProtectPreventsFree) {
  std::atomic<int> freed{0};
  HazardPointerDomain hp(8, 4, 2);
  auto* obj = new Tracked(&freed);
  std::atomic<Tracked*> src{obj};

  YieldingBarrier ready(2), done(2);
  std::thread protector([&] {
    auto h = hp.make_handle();
    Tracked* p = h.protect(0, src);
    EXPECT_EQ(p, obj);
    ready.arrive_and_wait();
    done.arrive_and_wait();  // hazard held this whole time
  });

  ready.arrive_and_wait();
  src.store(nullptr);  // unlink
  hp.retire(obj);
  for (int i = 0; i < 10; ++i) hp.flush();
  EXPECT_EQ(freed.load(), 0) << "freed a hazard-protected object";
  done.arrive_and_wait();
  protector.join();

  hp.flush();
  EXPECT_EQ(freed.load(), 1) << "object not freed after hazard cleared";
}

TEST(HazardTest, ClearReenablesReclamation) {
  std::atomic<int> freed{0};
  HazardPointerDomain hp(8, 4, 2);
  auto* obj = new Tracked(&freed);
  std::atomic<Tracked*> src{obj};

  auto h = hp.make_handle();
  h.protect(1, src);
  src.store(nullptr);
  hp.retire(obj);
  hp.flush();
  EXPECT_EQ(freed.load(), 0);
  h.clear(1);
  hp.flush();
  EXPECT_EQ(freed.load(), 1);
}

TEST(HazardTest, HandleDestructionClearsAllSlots) {
  std::atomic<int> freed{0};
  HazardPointerDomain hp(8, 4, 2);
  auto* a = new Tracked(&freed);
  auto* b = new Tracked(&freed);
  std::atomic<Tracked*> sa{a}, sb{b};
  {
    auto h = hp.make_handle();
    h.protect(0, sa);
    h.protect(1, sb);
    sa.store(nullptr);
    sb.store(nullptr);
    hp.retire(a);
    hp.retire(b);
    hp.flush();
    EXPECT_EQ(freed.load(), 0);
  }
  hp.flush();
  EXPECT_EQ(freed.load(), 2);
}

TEST(HazardTest, ProtectRevalidatesWhenSourceChanges) {
  // protect() must return a pointer that was in `src` *after* the hazard was
  // published. We change src concurrently and check the returned value is
  // always one of the published values.
  std::atomic<int> freed{0};
  HazardPointerDomain hp(8, 2, 64);
  auto* a = new Tracked(&freed);
  auto* b = new Tracked(&freed);
  std::atomic<Tracked*> src{a};

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop.load()) {
      src.store(a);
      src.store(b);
    }
  });
  {
    auto h = hp.make_handle();
    for (int i = 0; i < 5000; ++i) {
      Tracked* p = h.protect(0, src);
      EXPECT_TRUE(p == a || p == b);
    }
  }
  stop.store(true);
  flipper.join();
  delete a;
  delete b;
}

TEST(HazardTest, SetPublishesWithoutValidation) {
  std::atomic<int> freed{0};
  HazardPointerDomain hp(8, 2, 1);
  auto* obj = new Tracked(&freed);
  auto h = hp.make_handle();
  h.set(0, obj);
  hp.retire(obj);
  hp.flush();
  EXPECT_EQ(freed.load(), 0);
  h.clear(0);
  hp.flush();
  EXPECT_EQ(freed.load(), 1);
}

TEST(HazardTest, StressManyThreadsProtectAndRetire) {
  // Threads share a small pool of slots holding heap objects; each thread
  // repeatedly protects a slot, validates the object is readable (poison
  // check), then occasionally swaps the slot's object and retires the old
  // one. ASan turns any premature free into a hard failure.
  struct Obj {
    std::uint64_t canary = 0xfeedfacecafebeefULL;
  };
  constexpr int kSlots = 8;
  constexpr int kThreads = 6;
  constexpr int kIters = 4000;
  HazardPointerDomain hp(32, 2, 32);
  std::vector<std::atomic<Obj*>> slots(kSlots);
  for (auto& s : slots) s.store(new Obj);

  run_threads(kThreads, [&](std::size_t tid) {
    Xoshiro256 rng(tid * 7919 + 13);
    auto h = hp.make_handle();
    for (int i = 0; i < kIters; ++i) {
      auto& slot = slots[rng.next_below(kSlots)];
      Obj* p = h.protect(0, slot);
      if (p != nullptr) {
        ASSERT_EQ(p->canary, 0xfeedfacecafebeefULL) << "use after free";
      }
      if (rng.next_below(8) == 0) {
        auto* fresh = new Obj;
        Obj* old = slot.exchange(fresh);
        if (old != nullptr) hp.retire(old);
      }
      h.clear(0);
    }
  });

  for (auto& s : slots) delete s.exchange(nullptr);
  hp.flush();
  SUCCEED();
}

TEST(HazardTest, FreedCountAccounting) {
  HazardPointerDomain hp(8, 2, 4);
  for (int i = 0; i < 40; ++i) hp.retire(new int(i));
  hp.flush();
  EXPECT_GE(hp.freed_count(), 37u);  // all but possibly the last batch
}

TEST(HazardTest, DetachWithCoveredRetireeOrphansItUntilUncovered) {
  std::atomic<int> freed{0};
  HazardPointerDomain hp(8, 2, /*retire_batch=*/64);
  Tracked* covered = new Tracked(&freed);

  auto holder = hp.attach();  // publishes the hazard that blocks the free
  auto holder_hz = holder.make_handle();
  holder_hz.set(0, covered);

  {
    auto att = hp.attach();
    att.retire(covered);
    for (int i = 0; i < 5; ++i) att.retire(new Tracked(&freed));
    att.detach();  // detach scan frees the five, orphans the covered one
  }
  EXPECT_EQ(freed.load(), 5);

  holder_hz.clear_all();
  auto other = hp.attach();  // never owned the retiree
  other.flush();
  EXPECT_EQ(freed.load(), 6);
}

TEST(HazardReclaimerTest, OrphanedRoundStillWaitsForPinnedReaders) {
  std::atomic<int> freed{0};
  HazardReclaimer r(/*max_threads=*/4, /*retire_batch=*/64);
  auto reader = r.attach();
  auto g = reader.pin();
  {
    auto att = r.attach();
    for (int i = 0; i < 10; ++i) att.retire(new Tracked(&freed));
    att.detach();
  }
  r.flush();
  EXPECT_EQ(freed.load(), 0) << "orphans freed under a live pin";
  g = HazardReclaimer::Guard{};  // unpin
  r.flush();
  EXPECT_EQ(freed.load(), 10);
}

TEST(HazardReclaimerTest, NestedPinsBlockUntilOutermostReleases) {
  std::atomic<int> freed{0};
  HazardReclaimer r(/*max_threads=*/4, /*retire_batch=*/1);
  auto reader = r.attach();
  auto retirer = r.attach();
  auto outer = reader.pin();
  {
    auto inner = reader.pin();  // nested: depth 2, same announcement
    for (int i = 0; i < 8; ++i) retirer.retire(new Tracked(&freed));
    retirer.flush();
  }
  // Inner guard released; the outer pin must still hold every round open.
  retirer.flush();
  EXPECT_EQ(freed.load(), 0) << "inner unpin ended the outer pinned region";
  outer = HazardReclaimer::Guard{};
  retirer.flush();
  EXPECT_EQ(freed.load(), 8);
}

}  // namespace
}  // namespace efrb
