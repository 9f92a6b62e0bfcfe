// Hazard-style reclamation: two safety rules on the shared registry
// (reclaim/registry.hpp). This file holds only the rules and their public
// classes; slots, leases, attachments, the orphan store and gauges are the
// registry's.
//
// HazardPointerDomain — hazard pointers (Michael, IEEE TPDS 2004), the
// reclamation scheme the paper's §6 singles out as applicable to (a slightly
// modified version of) the tree. A generic domain usable by any
// pointer-linked structure; in this repository it backs the Harris linked
// list and is stress-tested on its own. See DESIGN.md §6 for why the tree's
// default policy is EBR. Protocol recap: before dereferencing a shared
// pointer, a thread publishes it in one of its hazard slots and re-validates
// the source; a retired object is freed only when a scan of all published
// hazards does not find it. Unlike EBR, a stalled thread delays at most the
// objects it has published, not the whole retire stream.
//
// HazardReclaimer — the hazard-side ReclaimerPolicy for pin()-style users
// (the EFRB tree and the skiplist), companion to EpochReclaimer. True
// per-pointer protection of the tree would require the §6-modified Search
// (publish-and-revalidate every edge crossed); the blanket pin()/retire()
// contract gives the reclaimer no per-pointer information to publish. This
// policy therefore publishes the coarsest possible hazard: a per-slot
// activity sequence number that is odd exactly while the owner is pinned.
// Reclamation proceeds in *grace rounds*: when a slot's backlog fills, it
// snapshots every slot that is currently pinned (odd sequence, including
// itself — freeing inside the retiring pin would reopen the update-word ABA
// the tree's pinning argument rules out) and moves the backlog to a pending
// set; the pending set is freed once every snapshotted slot's sequence has
// moved on, i.e. every reader that could have held a reference has passed
// through a quiescent state. Unlike EBR there is no global epoch for a
// stalled thread to wedge for *everyone else's* future rounds — a round
// waits only on the readers that were active when it began.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "reclaim/reclaimer.hpp"
#include "reclaim/registry.hpp"
#include "util/assert.hpp"

namespace efrb {
namespace detail {

/// Hazard pointers: free every retiree the snapshot of published hazards
/// does not cover.
struct HazardRule {
  static constexpr const char* kName = "HazardPointerDomain";
  static constexpr bool kPinned = false;

  struct SlotState {
    // Shared: scanned by reclaiming threads. Sized by the domain's
    // constructor, before the registry is shared.
    std::vector<std::atomic<void*>> hazards;
  };
  using Backlog = RetireList;

  std::size_t hazards_per_thread = 0;

  /// Per-operation handle over one slot's hazards, cleared when the handle
  /// is destroyed. Cheap to construct after the thread's first use of the
  /// domain. Construction / destruction stand in for pin / unpin in the
  /// gauges.
  class Handle {
   public:
    explicit Handle(RetireSlot<HazardRule>* slot) noexcept : slot_(slot) {
      slot_->pins.fetch_add(1, std::memory_order_relaxed);
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      clear_all();
      slot_->unpins.fetch_add(1, std::memory_order_relaxed);
    }

    /// Publish-and-validate loop: returns a pointer read from `src` that is
    /// guaranteed protected (cannot be freed) until the slot is overwritten
    /// or the handle dies. The loop terminates because a change of `src`
    /// between read and re-read means another thread made progress.
    template <typename T>
    T* protect(std::size_t index, const std::atomic<T*>& src) noexcept {
      EFRB_DCHECK(index < slot_->hazards.size());
      T* p = src.load(std::memory_order_acquire);
      for (;;) {
        slot_->hazards[index].store(const_cast<std::remove_const_t<T>*>(p),
                                    std::memory_order_seq_cst);
        T* q = src.load(std::memory_order_seq_cst);
        if (q == p) return p;
        p = q;
      }
    }

    /// Publish an already-validated pointer (caller proves protection by other
    /// means, e.g. it is reachable only via an already-protected node).
    template <typename T>
    void set(std::size_t index, T* p) noexcept {
      EFRB_DCHECK(index < slot_->hazards.size());
      slot_->hazards[index].store(const_cast<std::remove_const_t<T>*>(p),
                                  std::memory_order_seq_cst);
    }

    void clear(std::size_t index) noexcept {
      slot_->hazards[index].store(nullptr, std::memory_order_release);
    }

    void clear_all() noexcept {
      for (auto& h : slot_->hazards) {
        h.store(nullptr, std::memory_order_release);
      }
    }

   private:
    RetireSlot<HazardRule>* slot_;
  };

  template <typename Reg>
  static std::uint64_t stamp(const Reg&) noexcept {
    return 0;
  }

  static void quiesce(SlotState& s) noexcept {
    for (auto& h : s.hazards) h.store(nullptr, std::memory_order_release);
  }

  /// Snapshots every published hazard, sorted for binary search.
  ///
  /// The orphan store is only ever swept against a snapshot taken while
  /// orphan_mu was held (ReclaimRegistry takes the lock first). The HP
  /// safety argument — a hazard published after the snapshot cannot cover a
  /// swept entry, because the entry was already unlinked when the snapshot
  /// began — holds for a slot's own backlog, but a concurrent detach can
  /// append orphans at any time, including between a snapshot and a sweep
  /// against it, and such an entry may be covered by a hazard published
  /// (and validated, pre-unlink) after the snapshot. Holding orphan_mu
  /// across the snapshot excludes appenders, so every orphan entry swept was
  /// unlinked before the snapshot began.
  template <typename Reg>
  static std::vector<void*> begin_pass(const Reg& reg) {
    std::vector<void*> hazards;
    hazards.reserve(reg.slots.size() * reg.hazards_per_thread);
    for (const auto& padded : reg.slots) {
      if (!padded->in_use.load(std::memory_order_acquire)) continue;
      for (const auto& h : padded->hazards) {
        void* p = h.load(std::memory_order_seq_cst);
        if (p != nullptr) hazards.push_back(p);
      }
    }
    std::sort(hazards.begin(), hazards.end());
    return hazards;
  }

  template <typename Reg>
  static void sweep(Reg&, const std::vector<void*>& hazards, RetireList& list,
                    RetireList& ready) {
    list.move_if(
        [&hazards](const Retired& r) {
          return !std::binary_search(hazards.begin(), hazards.end(), r.ptr);
        },
        ready);
  }

  template <typename Reg>
  static std::uint64_t epoch_gauge(const Reg&) noexcept {
    return 0;
  }
};

/// Grace rounds: a full backlog becomes the pending set of a round whose
/// readers are the slots pinned at that moment; the set is freed once each
/// of those readers has unpinned.
struct GraceRoundRule {
  static constexpr const char* kName = "HazardReclaimer";
  static constexpr bool kPinned = true;

  struct SlotState {
    // Shared: odd while the owner is pinned; bumped on pin and on unpin.
    std::atomic<std::uint64_t> seq{0};
    unsigned depth = 0;  // pin() nesting, owner-thread only
  };

  /// A reader of record: a slot's sequence word and the odd value it held
  /// when the round began.
  using Reader = std::pair<const std::atomic<std::uint64_t>*, std::uint64_t>;

  /// The round state of a slot or of the orphan store.
  struct Backlog {
    RetireList retired;           // not yet covered by a round
    RetireList pending;           // awaiting the current round's readers
    std::vector<Reader> readers;  // the current round's snapshot

    std::size_t size() const noexcept {
      return retired.size() + pending.size();
    }
    bool empty() const noexcept { return retired.empty() && pending.empty(); }
    void push_back(const Retired& r) { retired.push_back(r); }

    std::uint64_t free_all() noexcept {
      return retired.free_all() + pending.free_all();
    }

    /// Adopted entries restart their grace round here: strictly
    /// conservative, since a fresh reader snapshot can only wait longer than
    /// the round they were part of. One reserve covers both lists, so the
    /// hand-off is all-or-nothing (see RetireList::adopt).
    void adopt(Backlog& from) {
      retired.reserve(retired.size() + from.size());
      retired.adopt(from.pending);
      retired.adopt(from.retired);
      from.readers.clear();
    }

    void release_memory() noexcept {
      retired.release_memory();
      pending.release_memory();
      if (readers.empty()) readers.shrink_to_fit();
    }
  };

  template <typename Reg>
  static std::uint64_t stamp(const Reg&) noexcept {
    return 0;
  }

  /// seq_cst RMW: the announcement is globally ordered against the snapshot
  /// loads that start a round, mirroring the epoch announcement's
  /// publish-then-recheck fence role.
  template <typename Reg>
  static void announce(const Reg&, SlotState& s) noexcept {
    s.seq.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Even again: readers-of-record for any in-flight round see this slot as
  /// quiescent from here on.
  static void retract(SlotState& s) noexcept {
    s.seq.fetch_add(1, std::memory_order_release);
  }

  static void quiesce([[maybe_unused]] SlotState& s) noexcept {
    EFRB_DCHECK(s.depth == 0);
  }

  struct Pass {};
  template <typename Reg>
  static Pass begin_pass(const Reg&) noexcept {
    return {};
  }

  /// One round step: drop the readers that moved on, hand the pending set
  /// to `ready` once none remain, then start a round for the accumulated
  /// retired list.
  template <typename Reg>
  static void sweep(Reg& reg, Pass, Backlog& b, RetireList& ready) {
    // Reserve first: the snapshot below cannot throw, so a started round
    // never holds a partial reader snapshot (which could free the pending
    // set while an unsnapshotted reader still holds references). The
    // hand-off to `ready` is all-or-nothing; if it throws, the pending set
    // stays whole for the next pass.
    b.readers.reserve(reg.slots.size());
    std::size_t kept = 0;
    for (const Reader& r : b.readers) {
      // A recorded sequence is odd; any change means that pin ended
      // (sequence numbers are monotone), including slot release and
      // re-acquisition.
      if (r.first->load(std::memory_order_seq_cst) == r.second) {
        b.readers[kept++] = r;
      }
    }
    b.readers.resize(kept);
    if (b.readers.empty()) ready.adopt(b.pending);
    if (b.pending.empty() && !b.retired.empty()) {
      std::swap(b.pending, b.retired);
      for (const auto& padded : reg.slots) {
        if (!padded->in_use.load(std::memory_order_acquire)) continue;
        const std::uint64_t seq = padded->seq.load(std::memory_order_seq_cst);
        if ((seq & 1) != 0) b.readers.push_back({&padded->seq, seq});
      }
    }
  }

  template <typename Reg>
  static std::uint64_t epoch_gauge(const Reg&) noexcept {
    return 0;
  }
};

}  // namespace detail

class HazardPointerDomain
    : public detail::RegistryReclaimer<detail::HazardRule> {
 public:
  using Handle = detail::HazardRule::Handle;

  explicit HazardPointerDomain(std::size_t max_threads = 64,
                               std::size_t hazards_per_thread = 4,
                               std::size_t retire_batch = 128)
      : RegistryReclaimer(max_threads, retire_batch) {
    reg_->hazards_per_thread = hazards_per_thread;
    // Value-initialized: every hazard starts null.
    for (auto& padded : reg_->slots) {
      padded->hazards = std::vector<std::atomic<void*>>(hazards_per_thread);
    }
  }
};

class HazardReclaimer
    : public detail::RegistryReclaimer<detail::GraceRoundRule> {
 public:
  /// RAII pinned region; nested pins are counted (outermost wins).
  using Guard = detail::ReclaimRegistry<detail::GraceRoundRule>::Guard;

  explicit HazardReclaimer(std::size_t max_threads = 64,
                           std::size_t retire_batch = 128)
      : RegistryReclaimer(max_threads, retire_batch) {}
};

static_assert(ReclaimerPolicy<HazardReclaimer>);
static_assert(AttachableReclaimerPolicy<HazardReclaimer>);

}  // namespace efrb
