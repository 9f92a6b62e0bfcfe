// The reclamation core shared by every registry-backed reclaimer
// (EpochReclaimer, HazardReclaimer, HazardPointerDomain).
//
// Everything a deferred-free scheme needs besides its safety rule lives here,
// once: the type-erased Retired entry, the cache-padded slot table with its
// bounded-retry acquire_slot(), the orphan store that adopts a released
// slot's backlog, the thread_local lease and the movable Attachment that own
// slots, the per-slot gauge counters, the paced ready list that runs the
// deleters, and the destructor that frees whatever is left. A policy
// ("rule") plugs in as a
// template parameter — no virtual calls — and supplies only:
//
//   SlotState                  per-slot announcement (shared) + owner state
//   Backlog                    the retire-list type: RetireList, or a richer
//                              set with the same members (grace rounds)
//   stamp(reg)                 the value recorded with each Retired entry
//   begin_pass(reg) -> pass    per-pass setup: epoch advance, hazard snapshot
//   sweep(reg, pass, backlog, ready)
//                              moves what the pass proves safe to `ready`
//   quiesce(slot)              runs before a slot is released
//   epoch_gauge(reg)           ReclaimGauges::epoch (0 where meaningless)
//   kName, kPinned             error text; pin() guards vs hazard handles
//   announce(reg, slot), retract(slot)        pinning rules only
//   Handle                                    the hazard rule only
//
// The registry inherits its rule, so rule-wide shared state (the global
// epoch, the hazard count) sits beside the slot table. It is shared_ptr-owned
// by the reclaimer and by every Attachment; thread leases hold it weakly and
// lock it to release their slot, so a thread exiting after the data
// structure was destroyed cannot touch freed memory, and a destroyed
// structure's registry is not pinned by every thread that ever used it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "reclaim/reclaimer.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"
#include "util/errors.hpp"

namespace efrb::detail {

/// A retired object awaiting its rule's safety condition. The disposer is
/// dispose_retired<T> (reclaim/reclaimer.hpp).
struct Retired {
  void* ptr;
  void (*deleter)(void*);
  std::uint64_t stamp;  // rule-defined: the retire epoch for EBR, else 0
};

/// A single-owner list of Retired entries: a slot's backlog or ready list,
/// or the orphan store.
class RetireList {
 public:
  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return entries_.capacity(); }
  bool empty() const noexcept { return entries_.empty(); }
  void push_back(const Retired& r) { entries_.push_back(r); }

  /// Room for `n` entries, growing geometrically: a ready list refilled by
  /// every sweep would otherwise reallocate at each one.
  void reserve(std::size_t n) {
    if (n > entries_.capacity()) {
      entries_.reserve(std::max(n, 2 * entries_.capacity()));
    }
  }

  /// Moves every entry `is_safe` accepts to the back of `ready` and compacts
  /// the rest in place. Capacity for the worst case is reserved first, so on
  /// bad_alloc both lists are left intact.
  template <typename Pred>
  void move_if(Pred is_safe, RetireList& ready) {
    ready.reserve(ready.size() + entries_.size());
    std::size_t kept = 0;
    for (const Retired& r : entries_) {
      if (is_safe(r)) {
        ready.entries_.push_back(r);
      } else {
        entries_[kept++] = r;
      }
    }
    entries_.resize(kept);
  }

  /// Runs the deleters of up to `n` entries, newest first, and returns how
  /// many ran. LIFO: the chunk freed last is the one the allocator hands out
  /// next.
  std::uint64_t free_back(std::size_t n) noexcept {
    n = std::min(n, entries_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Retired r = entries_.back();
      entries_.pop_back();
      r.deleter(r.ptr);
    }
    // The next entry's chunk was last touched a sweep ago; start its fetch
    // now so the next free, usually a later retire's, finds it in cache.
    if (!entries_.empty()) __builtin_prefetch(entries_.back().ptr, 1);
    return n;
  }

  std::uint64_t free_all() noexcept { return free_back(entries_.size()); }

  /// Moves every entry of `from` to the back of this list. Capacity is
  /// reserved first and the copy that follows cannot throw (Retired is
  /// trivially copyable), so on bad_alloc both lists are left intact: no
  /// partial hand-off, and no entry held twice.
  void adopt(RetireList& from) {
    reserve(entries_.size() + from.size());
    entries_.insert(entries_.end(), from.entries_.begin(),
                    from.entries_.end());
    from.entries_.clear();
  }

  /// Returns the buffer of an empty list. The empty replacement cannot
  /// allocate, so this never throws; a list kept by a failed hand-off keeps
  /// its entries and capacity for the slot's next owner.
  void release_memory() noexcept {
    if (entries_.empty()) entries_.shrink_to_fit();
  }

 private:
  std::vector<Retired> entries_;
};

/// One slot-table entry: the rule's per-slot state, then the bookkeeping
/// every rule shares. Pin/unpin and the gauge counters touch only the first
/// cache line.
template <typename Rule>
struct RetireSlot : Rule::SlotState {
  std::atomic<bool> in_use{false};
  // Gauges: owner-written relaxed, read only by gauges() snapshots. They
  // survive slot recycling: counting the slot's whole history keeps the
  // aggregate monotone across attach/detach cycles.
  std::atomic<std::uint64_t> retired_count{0};
  std::atomic<std::uint64_t> freed_count{0};  // deleters run by this slot
  std::atomic<std::uint64_t> pins{0};
  std::atomic<std::uint64_t> unpins{0};
  // Owner-thread only.
  std::size_t next_collect = 0;  // backlog.size() that triggers the next pass
  typename Rule::Backlog backlog;
  RetireList ready;  // proven safe by a sweep, freed a few per retire
};

template <typename Rule>
class RegistryReclaimer;

template <typename Rule>
class ReclaimRegistry : public Rule {
 public:
  using Slot = RetireSlot<Rule>;
  using Backlog = typename Rule::Backlog;

  /// Passes per flush(), and per release before anything is orphaned: the
  /// epoch rule needs two advances past a stamp, the grace-round rule one
  /// step to start a round and one to end it.
  static constexpr int kFlushRounds = 3;

  /// RAII pinned region (pinning rules). Movable, not copyable. Nested pins
  /// on one slot are counted; the outermost release retracts the
  /// announcement.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : slot_(std::exchange(other.slot_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        slot_ = std::exchange(other.slot_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

   private:
    friend class ReclaimRegistry;
    explicit Guard(Slot* slot) noexcept : slot_(slot) {}

    void release() noexcept {
      if (slot_ != nullptr && --slot_->depth == 0) {
        Rule::retract(*slot_);
        slot_->unpins.fetch_add(1, std::memory_order_relaxed);
      }
      slot_ = nullptr;
    }

    Slot* slot_ = nullptr;
  };

  /// Explicit slot registration: owns one slot for its whole lifetime, so
  /// pin() / make_handle() / retire() are member accesses with no
  /// thread_local lookup (the fast path behind per-thread structure
  /// handles). Movable, not copyable; thread-affine, since the slot's
  /// backlog is single-owner. detach() or destruction releases the slot
  /// (see release()).
  class Attachment {
   public:
    Attachment() = default;
    Attachment(Attachment&& other) noexcept
        : reg_(std::move(other.reg_)),
          slot_(std::exchange(other.slot_, nullptr)),
          retire_batch_(other.retire_batch_) {}
    Attachment& operator=(Attachment&& other) noexcept {
      if (this != &other) {
        detach();
        reg_ = std::move(other.reg_);
        slot_ = std::exchange(other.slot_, nullptr);
        retire_batch_ = other.retire_batch_;
      }
      return *this;
    }
    Attachment(const Attachment&) = delete;
    Attachment& operator=(const Attachment&) = delete;
    ~Attachment() { detach(); }

    bool attached() const noexcept { return slot_ != nullptr; }

    /// Releases the slot. No Guard or Handle on it may be alive.
    void detach() noexcept {
      if (slot_ != nullptr) {
        reg_->release(*slot_);
        slot_ = nullptr;
        reg_.reset();
      }
    }

    auto pin() requires Rule::kPinned {
      EFRB_DCHECK(slot_ != nullptr);
      return reg_->pin(*slot_);
    }

    auto make_handle() const requires(!Rule::kPinned) {
      EFRB_DCHECK(slot_ != nullptr);
      return typename Rule::Handle(slot_);
    }

    template <typename T>
    void retire(T* p) {
      EFRB_DCHECK(slot_ != nullptr);
      reg_->retire(*slot_, retire_batch_, p);
    }

    /// Best-effort drain of this slot's backlog and the orphan store; frees
    /// everything it proves safe.
    void flush() {
      EFRB_DCHECK(slot_ != nullptr);
      reg_->flush(*slot_);
    }

   private:
    friend class RegistryReclaimer<Rule>;
    Attachment(std::shared_ptr<ReclaimRegistry> reg, Slot* slot,
               std::size_t retire_batch) noexcept
        : reg_(std::move(reg)), slot_(slot), retire_batch_(retire_batch) {}

    std::shared_ptr<ReclaimRegistry> reg_;
    Slot* slot_ = nullptr;
    std::size_t retire_batch_ = 0;
  };

  explicit ReclaimRegistry(std::size_t max_threads) : slots(max_threads) {}

  ~ReclaimRegistry() {
    // Last reference dropped: nothing is pinned or published; free all
    // leftovers.
    for (auto& padded : slots) {
      padded->ready.free_all();
      padded->backlog.free_all();
    }
    orphans.free_all();
  }

  /// Bounded retry (a concurrent release may be mid-flight), then throws
  /// CapacityExhausted instead of aborting — see util/errors.hpp.
  Slot* acquire_slot() {
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (auto& padded : slots) {
        Slot& s = padded.value;
        bool expected = false;
        if (!s.in_use.load(std::memory_order_relaxed) &&
            s.in_use.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
          return &s;
        }
      }
      std::this_thread::yield();
    }
    throw CapacityExhausted(std::string(Rule::kName) +
                            ": thread-slot capacity exhausted (more "
                            "concurrent threads/attachments than "
                            "max_threads)");
  }

  /// Enters a pinned region on `slot` (pinning rules). Only the outermost
  /// pin announces, so helping code can pin defensively without weakening
  /// the outer region.
  Guard pin(Slot& slot) {
    if (slot.depth++ == 0) {
      slot.pins.fetch_add(1, std::memory_order_relaxed);
      Rule::announce(*this, slot);
    }
    return Guard(&slot);
  }

  template <typename T>
  void retire(Slot& slot, std::size_t retire_batch, T* p) {
    EFRB_DCHECK(p != nullptr);
    slot.backlog.push_back(Retired{p, &dispose_retired<T>, Rule::stamp(*this)});
    bump(slot.retired_count, 1);
    // Paced frees: one safe object back to the heap per retire, two while
    // the ready list is longer than a batch. Freeing a whole sweep at once
    // overflows the allocator's small per-thread cache, and each chunk past
    // it takes a locked trip through the shared arena on free and again on
    // the next allocation.
    free_ready(slot, slot.ready.size() > retire_batch ? 2 : 1);
    // Collect on a size *schedule*, not a fixed threshold: when a stalled
    // reader holds reclamation back, entries pile up past the batch size,
    // and re-sweeping the whole list on every retire would be quadratic.
    // Resetting the trigger to size+batch after each pass keeps the
    // amortized cost per retire O(1).
    if (slot.backlog.size() >= std::max(slot.next_collect, retire_batch)) {
      collect(slot);
      slot.next_collect = slot.backlog.size() + retire_batch;
      // The first sweep after a stall can hand over many batches at once;
      // the excess over two is freed now, so what a slot holds safe but
      // unfreed stays bounded however long the stall was.
      if (slot.ready.size() > 2 * retire_batch) {
        free_ready(slot, slot.ready.size() - 2 * retire_batch);
      }
    }
  }

  /// One reclamation pass over `slot`'s backlog and, when its lock is free,
  /// the orphan store; what the pass proves safe joins the slot's ready
  /// list. try_lock: a retire never stalls on the orphan slow path. The lock
  /// is taken before the rule's pass begins, as the hazard rule requires
  /// (see HazardRule::begin_pass).
  void collect(Slot& slot) {
    const std::unique_lock<std::mutex> orphan_lock(orphan_mu,
                                                   std::try_to_lock);
    const auto pass = Rule::begin_pass(*this);
    Rule::sweep(*this, pass, slot.backlog, slot.ready);
    if (orphan_lock.owns_lock()) sweep_orphans(pass, slot.ready);
  }

  /// Unconditionally runs kFlushRounds passes (a flush must make progress
  /// on the orphan store too, which an empty caller backlog says nothing
  /// about), then frees the whole ready list and returns its buffer.
  void flush(Slot& slot) {
    for (int i = 0; i < kFlushRounds; ++i) collect(slot);
    free_ready(slot, slot.ready.size());
    slot.ready.release_memory();
  }

  /// Common tail of Attachment::detach and the thread-exit lease. Runs the
  /// flush passes, hands what is still unsafe to the orphan store and
  /// returns the slot; then drains the orphan store under a blocking lock,
  /// so the last detach of a quiet structure leaves no backlog behind
  /// (detach is a slow path, so blocking there is acceptable). Entries still
  /// covered by a live pin or hazard stay orphaned for a later pass.
  ///
  /// noexcept-for-real: the passes and the hand-off allocate, and this runs
  /// from detach() and thread-exit teardown. On bad_alloc the backlog stays
  /// in the slot with its rule state intact — safe, collected by the slot's
  /// next owner or freed at registry destruction.
  void release(Slot& slot) noexcept {
    Rule::quiesce(slot);
    try {
      flush(slot);
      if (!slot.backlog.empty()) {
        const std::lock_guard<std::mutex> lock(orphan_mu);
        orphans.adopt(slot.backlog);
        orphan_count.store(orphans.size(), std::memory_order_relaxed);
      }
    } catch (...) {
    }
    // Whatever a failed pass already proved safe is freed here.
    free_ready(slot, slot.ready.size());
    slot.ready.release_memory();
    slot.backlog.release_memory();
    slot.next_collect = 0;
    slot.in_use.store(false, std::memory_order_release);
    // The slot is no longer ours, so the drain frees into a local list and
    // counts on the registry.
    RetireList ready;
    try {
      const std::lock_guard<std::mutex> lock(orphan_mu);
      for (int i = 0; i < kFlushRounds && !orphans.empty(); ++i) {
        sweep_orphans(Rule::begin_pass(*this), ready);
      }
      // A stall can leave a backlog of many batches adopted here; once
      // drained, its buffer goes back to the heap too.
      orphans.release_memory();
    } catch (...) {
    }
    const std::uint64_t freed = ready.free_all();
    if (freed != 0) orphans_freed.fetch_add(freed, std::memory_order_relaxed);
  }

  /// Relaxed reads of the owner-written per-slot counters: monotone per
  /// counter, but not an atomic cross-thread cut (a concurrent retire may
  /// show in retired_total before its free shows in freed_total, so
  /// backlog() is momentarily conservative).
  ReclaimGauges gauges() const noexcept {
    ReclaimGauges g;
    for (const auto& padded : slots) {
      g.retired_total += padded->retired_count.load(std::memory_order_relaxed);
      g.freed_total += padded->freed_count.load(std::memory_order_relaxed);
      g.pins += padded->pins.load(std::memory_order_relaxed);
      g.unpins += padded->unpins.load(std::memory_order_relaxed);
    }
    g.freed_total += orphans_freed.load(std::memory_order_relaxed);
    g.orphan_depth = orphan_count.load(std::memory_order_relaxed);
    g.epoch = Rule::epoch_gauge(*this);
    return g;
  }

  std::vector<CachePadded<Slot>> slots;
  // Frees by the orphan drain of release(), which runs after the releasing
  // thread has given up its slot and so its slot counter.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> orphans_freed{0};
  // Backlogs of released slots, re-homed here so they are freed while the
  // structure is still live, under the same rule as a slot's own backlog.
  std::mutex orphan_mu;
  Backlog orphans;
  // orphans.size() mirrored for lock-free gauge snapshots; stored under
  // orphan_mu by every mutator of `orphans`.
  std::atomic<std::uint64_t> orphan_count{0};

 private:
  /// A counter with a single writer: a plain load and store, no locked
  /// read-modify-write on the retire path.
  static void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }

  /// Runs up to `n` of `slot`'s ready deleters and counts them on the slot.
  /// Owner thread only.
  static void free_ready(Slot& slot, std::size_t n) noexcept {
    const std::uint64_t freed = slot.ready.free_back(n);
    if (freed != 0) bump(slot.freed_count, freed);
  }

  /// Caller holds orphan_mu.
  template <typename Pass>
  void sweep_orphans(const Pass& pass, RetireList& ready) {
    if (orphans.empty()) return;
    Rule::sweep(*this, pass, orphans, ready);
    orphan_count.store(orphans.size(), std::memory_order_relaxed);
  }
};

/// The public surface every registry-backed reclaimer shares, over the
/// calling thread's lease or an explicit Attachment. The classes in
/// epoch.hpp and hazard.hpp derive from it and add their constructor
/// defaults.
template <typename Rule>
class RegistryReclaimer {
  using Registry = ReclaimRegistry<Rule>;
  using Slot = typename Registry::Slot;

 public:
  using Attachment = typename Registry::Attachment;

  /// Acquires a dedicated slot (released by Attachment::detach or
  /// destruction). Counts against max_threads like a thread lease; a thread
  /// that uses both an attachment and the implicit thread_local path
  /// occupies two slots.
  Attachment attach() {
    return Attachment(reg_, reg_->acquire_slot(), retire_batch_);
  }

  /// Pinned region on the calling thread's slot (pinning rules).
  auto pin() requires Rule::kPinned { return reg_->pin(*local_slot()); }

  /// Hazard handle over the calling thread's slot (hazard-pointer rule).
  auto make_handle() requires(!Rule::kPinned) {
    return typename Rule::Handle(local_slot());
  }

  template <typename T>
  void retire(T* p) {
    reg_->retire(*local_slot(), retire_batch_, p);
  }

  /// Best-effort drain at quiescent points: kFlushRounds passes over the
  /// calling thread's backlog and the orphan store, then every object they
  /// proved safe is freed. Call it outside any region of the calling thread,
  /// or that region holds its own rounds open.
  void flush() { reg_->flush(*local_slot()); }

  /// Objects freed so far (for tests asserting reclamation actually happens).
  std::uint64_t freed_count() const noexcept {
    return reg_->gauges().freed_total;
  }

  /// Gauge snapshot for the observability layer; see ReclaimRegistry::gauges.
  ReclaimGauges gauges() const noexcept { return reg_->gauges(); }

 protected:
  RegistryReclaimer(std::size_t max_threads, std::size_t retire_batch)
      : reg_(std::make_shared<Registry>(max_threads)),
        retire_batch_(retire_batch) {}

  std::shared_ptr<Registry> reg_;

 private:
  // Thread → slot binding. A lease entry holds its registry weakly, so a
  // thread that once made a tree-level call does not keep a dead
  // structure's registry (and its retire backlog) alive until it exits: the
  // registry dies with its last reclaimer or Attachment, and its destructor
  // frees every slot's leftovers. Thread
  // exit locks the entry and, if the registry still lives, releases the
  // slot through ReclaimRegistry::release, so the departing thread's backlog
  // is flushed and orphaned, not stranded. Expired entries are pruned on the
  // slow path; until then their make_shared block stays allocated, so a new
  // registry can never reuse a cached address.
  struct Lease {
    struct Entry {
      const Registry* key;  // lookup only; never dereferenced
      std::weak_ptr<Registry> reg;
      Slot* slot;
    };
    std::vector<Entry> entries;
    ~Lease() {
      for (auto& e : entries) {
        if (auto reg = e.reg.lock()) reg->release(*e.slot);
      }
    }
  };

  Slot* local_slot() {
    thread_local Lease lease;
    thread_local Registry* cached_reg = nullptr;
    thread_local Slot* cached_slot = nullptr;
    Registry* reg = reg_.get();
    if (cached_reg == reg) return cached_slot;
    // Reset first: pruning below may free the block cached_reg points into.
    cached_reg = nullptr;
    std::erase_if(lease.entries,
                  [](const typename Lease::Entry& e) { return e.reg.expired(); });
    for (const auto& e : lease.entries) {
      if (e.key == reg) {
        cached_reg = reg;
        cached_slot = e.slot;
        return e.slot;
      }
    }
    Slot* slot = reg->acquire_slot();
    lease.entries.push_back(typename Lease::Entry{reg, reg_, slot});
    cached_reg = reg;
    cached_slot = slot;
    return slot;
  }

  std::size_t retire_batch_;
};

}  // namespace efrb::detail
