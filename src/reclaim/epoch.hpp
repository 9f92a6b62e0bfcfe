// Epoch-based reclamation (EBR).
//
// The default reclamation policy for the EFRB tree. Threads announce the
// global epoch while operating on the structure ("pinned"); retired objects
// are stamped with the epoch at retirement and freed once the global epoch has
// advanced twice past that stamp — by then no pinned region that began before
// the object was unlinked can still be running, so no thread can reach it by
// following a chain of pointers (the safety condition in §4.1 of the paper).
//
// This file holds only that rule. Slots, leases, attachments, the orphan
// store and gauges are the shared registry
// (reclaim/registry.hpp). Only the epoch announcement word is shared per
// slot, so pin/unpin cost one store + one fence.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "reclaim/reclaimer.hpp"
#include "reclaim/registry.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace efrb {
namespace detail {

struct EpochRule {
  static constexpr const char* kName = "EpochReclaimer";
  static constexpr bool kPinned = true;
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  struct SlotState {
    // Shared: read by try_advance() on other threads.
    std::atomic<std::uint64_t> epoch{kQuiescent};
    unsigned depth = 0;  // pin() nesting, owner-thread only
  };
  using Backlog = RetireList;

  alignas(kCacheLineSize) std::atomic<std::uint64_t> global{0};

  template <typename Reg>
  static std::uint64_t stamp(const Reg& reg) noexcept {
    return reg.global.load(std::memory_order_acquire);
  }

  /// Publish, then re-check: the announcement must equal the global epoch
  /// observed *after* publishing, otherwise an advance racing with us could
  /// treat this thread as caught-up when it is not.
  template <typename Reg>
  static void announce(const Reg& reg, SlotState& s) noexcept {
    std::uint64_t e = reg.global.load(std::memory_order_acquire);
    for (;;) {
      s.epoch.store(e, std::memory_order_seq_cst);
      const std::uint64_t g = reg.global.load(std::memory_order_seq_cst);
      if (g == e) break;
      e = g;
    }
  }

  static void retract(SlotState& s) noexcept {
    s.epoch.store(kQuiescent, std::memory_order_release);
  }

  static void quiesce([[maybe_unused]] SlotState& s) noexcept {
    EFRB_DCHECK(s.depth == 0);
  }

  /// Advances the global epoch if every pinned slot has caught up to it, and
  /// returns the epoch to sweep against.
  template <typename Reg>
  static std::uint64_t begin_pass(Reg& reg) noexcept {
    try_advance(reg);
    return reg.global.load(std::memory_order_acquire);
  }

  /// Safe once two advances have completed past the retire epoch.
  template <typename Reg>
  static void sweep(Reg&, std::uint64_t e, RetireList& list,
                    RetireList& ready) {
    list.move_if([e](const Retired& r) { return r.stamp + 2 <= e; }, ready);
  }

  template <typename Reg>
  static std::uint64_t epoch_gauge(const Reg& reg) noexcept {
    return reg.global.load(std::memory_order_relaxed);
  }

 private:
  template <typename Reg>
  static void try_advance(Reg& reg) noexcept {
    const std::uint64_t e = reg.global.load(std::memory_order_seq_cst);
    for (const auto& padded : reg.slots) {
      if (!padded->in_use.load(std::memory_order_acquire)) continue;
      const std::uint64_t local = padded->epoch.load(std::memory_order_seq_cst);
      if (local != kQuiescent && local != e) return;  // straggler
    }
    std::uint64_t expected = e;
    reg.global.compare_exchange_strong(expected, e + 1,
                                       std::memory_order_seq_cst);
  }
};

}  // namespace detail

class EpochReclaimer : public detail::RegistryReclaimer<detail::EpochRule> {
 public:
  /// RAII pinned region. Movable, not copyable. Nested pins on the same thread
  /// are counted and keep the outermost announcement (so helping code can pin
  /// defensively without risking premature reclamation of the outer region's
  /// snapshot).
  using Guard = detail::ReclaimRegistry<detail::EpochRule>::Guard;

  /// @param max_threads   capacity of the slot table (threads that concurrently
  ///                      use this instance; slots are recycled at thread exit).
  /// @param retire_batch  per-thread retire-list length that triggers an epoch
  ///                      advance attempt and a sweep.
  /// A sweep runs once per retire_batch retires, so the epoch-advance scan of
  /// the slot table is amortized over the batch; the objects a sweep proves
  /// safe are then freed one or two per retire (reclaim/registry.hpp). With
  /// no stalled reader a slot holds up to two batches retired but not yet
  /// safe and up to two more safe but not yet freed: with the default 256,
  /// at most about 1,000 objects per thread (E4).
  explicit EpochReclaimer(std::size_t max_threads = 64,
                          std::size_t retire_batch = 256)
      : RegistryReclaimer(max_threads, retire_batch) {}

  std::uint64_t current_epoch() const noexcept {
    return reg_->global.load(std::memory_order_relaxed);
  }
};

static_assert(ReclaimerPolicy<EpochReclaimer>);
static_assert(AttachableReclaimerPolicy<EpochReclaimer>);

}  // namespace efrb
