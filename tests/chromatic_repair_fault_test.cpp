// An allocation that throws inside a chromatic repair. Only one updater at a
// time runs a cleanup pass (ChromaticCore::cleanup holds the repairer flag
// for it); a node copy or ScxRecord allocation can throw mid-pass, and the
// flag must be released on that path too, or every later trigger below the
// hatch would skip its repair for the life of the tree.
//
// The fault is a replaced global operator new, so it lives in a binary of
// its own: while armed, the next allocation on the arming thread throws
// std::bad_alloc. Every other allocation goes to malloc.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>

#include "core/chromatic.hpp"
#include "core/debug_hooks.hpp"
#include "core/op_context.hpp"
#include "reclaim/epoch.hpp"

namespace {
thread_local bool tl_fail_next_alloc = false;

// Out of line, so that no delete expression sees the free() of a block its
// matching new expression allocated (-Wmismatched-new-delete).
[[gnu::noinline]] void* allocate(std::size_t n) {
  if (tl_fail_next_alloc) {
    tl_fail_next_alloc = false;
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void deallocate(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { deallocate(p); }
void operator delete[](void* p) noexcept { deallocate(p); }
void operator delete(void* p, std::size_t) noexcept { deallocate(p); }
void operator delete[](void* p, std::size_t) noexcept { deallocate(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  deallocate(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  deallocate(p);
}

namespace efrb {
namespace {

thread_local bool tl_fail_next_fix = false;

/// Turns an armed tl_fail_next_fix into a failing allocation at the next
/// kBeforeRebalance: the fix about to run allocates its first node copy
/// before anything else, so that copy throws and nothing is leaked.
struct FixAllocFaultTraits : NoopTraits {
  static void on_event(const Event& e) {
    if (e.kind == EventKind::kPoint &&
        e.point() == HookPoint::kBeforeRebalance && tl_fail_next_fix) {
      tl_fail_next_fix = false;
      tl_fail_next_alloc = true;
    }
  }
};

using FaultSet = ChromaticTreeSet<int, std::less<int>, EpochReclaimer,
                                  FixAllocFaultTraits>;
using ThresholdCore =
    ChromaticCore<int, detail::Unit, std::less<int>, NoopTraits,
                  OpContext<EpochReclaimer, false>>;
constexpr std::size_t kLazy = ThresholdCore::kLazyViolations;

TEST(ChromaticRepairFaultTest, ThrowingFixReleasesRepairerRole) {
  FaultSet t;
  tl_fail_next_fix = true;
  int k = 0;
  bool threw = false;
  for (; k < 1000 && !threw; ++k) {
    try {
      t.insert(k);
    } catch (const std::bad_alloc&) {
      threw = true;
    }
  }
  ASSERT_TRUE(threw) << "ascending inserts never reached a fix";
  EXPECT_FALSE(tl_fail_next_alloc);
  // The insert commits before its cleanup, so the key that threw is in.
  for (int i = 0; i < k; ++i) EXPECT_TRUE(t.contains(i));
  const auto hurt = t.validate();
  ASSERT_TRUE(hurt.ok) << hurt.error;
  ASSERT_GT(hurt.max_path_violations, kLazy) << "the failed fix left no work";

  // With the flag released, this single thread takes it at every trigger,
  // so from the first insert on every path is back within kLazyViolations.
  // A flag left held would make each trigger below the hatch skip its
  // repair, and the right edge would climb towards kHatchViolations.
  for (const int end = k + 200; k < end; ++k) {
    ASSERT_TRUE(t.insert(k));
    const auto v = t.validate();
    ASSERT_TRUE(v.ok) << v.error;
    ASSERT_LE(v.max_path_violations, kLazy) << "at key " << k;
  }
}

}  // namespace
}  // namespace efrb
