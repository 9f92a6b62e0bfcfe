// Non-blocking binary search tree of Ellen, Fatourou, Ruppert & van Breugel
// (PODC 2010) — a linearizable, lock-free, leaf-oriented BST built from
// single-word CAS.
//
// This header is the public facade over the layered core:
//
//   layout.hpp    — node/Info-record layout and update-word packing (Fig. 7)
//   search.hpp    — the descent routines (Fig. 8 lines 23-35)
//   protocol.hpp  — TreeCore: the eight-step CAS protocol + helping (Fig. 8/9)
//   ordered.hpp   — min/max, bounds, range, for_each, validate
//   op_context.hpp— OpContext + the stats substrate threaded through them all
//
// Code structure mirrors the paper's pseudocode (Figures 7, 8, 9); comments
// of the form "line N" refer to its line numbers. The differences from the
// paper are exactly the ones a C++ implementation must make: memory
// reclamation (the paper assumes GC, §4.1/§6 — the tree is parameterized on
// a Reclaimer policy, default epoch-based; the full retirement protocol is
// documented at the top of protocol.hpp and in DESIGN.md §6), optional mapped
// values in leaves (§3; EfrbTreeSet aliases the map with an empty value
// type), and the insert_or_assign / replace extensions (soundness notes on
// TreeCore::insert / TreeCore::replace).
//
// Progress: non-blocking (lock-free). Find never writes shared memory and
// never helps; Insert/Delete help only operations that block them (§3,
// "conservative helping strategy").
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/alloc.hpp"
#include "core/debug_hooks.hpp"
#include "core/op_context.hpp"
#include "core/ordered.hpp"
#include "core/protocol.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace efrb {

template <typename Key, typename Value = detail::Unit,
          typename Compare = std::less<Key>,
          typename Reclaimer = EpochReclaimer, typename Traits = NoopTraits>
class EfrbTreeMap {
  // Key attribution is opt-in per Traits (obs::ObsTraits sets kTrackKeys);
  // absent the member, contexts carry no key state and op_key() folds away.
  static constexpr bool kTrackKeys = hooks::track_keys_v<Traits>;
  // Layout computed directly from (Key, Value) — the allocator must be
  // chosen before Core exists, and Core's Layout is the same alias.
  using Layout = TreeLayout<Key, Value>;
  // Allocation policy (Traits::kPooledAlloc, default off): a per-structure
  // ObjectPool over the four node/record types — one uniform cache-line
  // block class, recycled through the reclaimer's PoolHook — or the plain
  // heap (see core/alloc.hpp).
  using Alloc = std::conditional_t<
      hooks::pooled_alloc_v<Traits>,
      ObjectPool<typename Layout::Leaf, typename Layout::Internal,
                 typename Layout::IInfo, typename Layout::DInfo>,
      HeapAllocator>;
  // Causal help-chain attribution is likewise opt-in (Traits::kCausalTrace):
  // handles acquire a ProgressSlot for the liveness watchdog, contexts stamp
  // Info records with their owner, and ops maintain the progress words.
  static constexpr bool kCausal = hooks::causal_trace_v<Traits>;
  // One OpContext instantiation serves both the tree-level path and the
  // Handle fast path: they drive the SAME instantiation of the core.
  using Ctx =
      OpContext<Reclaimer, Traits::kCountStats, kTrackKeys, Alloc, kCausal>;
  using Core = TreeCore<Key, Value, Compare, Traits, Ctx>;
  using Shards =
      std::conditional_t<Traits::kCountStats, ShardPool, EmptyShardPool>;
  using Progress =
      std::conditional_t<kCausal, ProgressTable, EmptyProgressTable>;

 public:
  using key_type = Key;
  using mapped_type = Value;
  using ValidationResult = efrb::ValidationResult;
  static constexpr const char* kName = "efrb-tree";

  explicit EfrbTreeMap(Compare cmp = Compare{},
                       Reclaimer reclaimer = Reclaimer{})
      : reclaimer_(std::move(reclaimer)), core_(std::move(cmp), &alloc_) {
    // Route retired nodes back into the pool instead of `delete` (installed
    // before the tree is shared — the PoolHook write is unsynchronized by
    // contract). The hook carries a keepalive share of the pool state, so
    // registry stragglers (leases, orphans) can return blocks even after
    // this object is gone.
    if constexpr (Alloc::kPooled) {
      reclaimer_.set_pool_return(alloc_.pool_hook());
    }
  }

  EfrbTreeMap(const EfrbTreeMap&) = delete;
  EfrbTreeMap& operator=(const EfrbTreeMap&) = delete;

  /// Requires quiescence, like all destructors (~TreeCore frees the
  /// remaining nodes and Clean-referenced Info records).
  ~EfrbTreeMap() = default;

  /// The fast path for repeated operations. A Handle owns (a) an explicit
  /// reclaimer attachment, so pin() is a plain member access instead of a
  /// thread_local registry lookup, (b) a cacheline-padded stats shard when
  /// Traits::kCountStats, and (c) private backoff/RNG state.
  ///
  /// Rules: a Handle is movable but thread-affine (a move is a hand-off) and
  /// must not outlive its tree. Each live handle occupies one reclaimer slot
  /// (counting against the reclaimer's max_threads) and one stat shard;
  /// destruction or detach() releases both.
  class Handle {
   public:
    /// Invalid; a move target only. Obtain real ones from handle().
    Handle() = default;

    Handle(Handle&& other) noexcept
        : tree_(std::exchange(other.tree_, nullptr)),
          att_(std::move(other.att_)),
          cache_(std::move(other.cache_)),
          shard_(std::exchange(other.shard_, nullptr)),
          shard_base_(other.shard_base_),
          progress_(std::exchange(other.progress_, nullptr)),
          backoff_(other.backoff_),
          rng_(other.rng_),
          tid_(other.tid_) {}

    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        detach();
        tree_ = std::exchange(other.tree_, nullptr);
        att_ = std::move(other.att_);
        cache_ = std::move(other.cache_);
        shard_ = std::exchange(other.shard_, nullptr);
        shard_base_ = other.shard_base_;
        progress_ = std::exchange(other.progress_, nullptr);
        backoff_ = other.backoff_;
        rng_ = other.rng_;
        tid_ = other.tid_;
      }
      return *this;
    }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() { detach(); }

    bool valid() const noexcept { return tree_ != nullptr; }

    /// Release the reclaimer slot and stat shard early (also done by the
    /// destructor). The handle becomes invalid; operations on it are UB.
    void detach() noexcept {
      if (tree_ != nullptr && shard_ != nullptr) Shards::release(shard_);
      shard_ = nullptr;
      if (tree_ != nullptr) Progress::release(progress_);
      progress_ = nullptr;
      att_.detach();
      // Flush the private block chain back to the pool's global free list
      // (no-op in heap mode — the Cache is stateless there).
      cache_ = typename Alloc::Cache{};
      tree_ = nullptr;
    }

    /// Find(k) through this handle's attachment.
    bool contains(const Key& k) const {
      return with_ctx([&](Ctx& c) { return tree_->core_.contains(k, c); });
    }

    std::optional<Value> get(const Key& k) const {
      return with_ctx([&](Ctx& c) { return tree_->core_.get(k, c); });
    }

    bool insert(const Key& k, Value v = Value{}) {
      return with_ctx([&](Ctx& c) {
        return tree_->core_.insert(k, std::move(v),
                                   /*assign_if_present=*/false, c) !=
               InsertOutcome::kDuplicate;
      });
    }

    bool insert_or_assign(const Key& k, Value v) {
      return with_ctx([&](Ctx& c) {
        return tree_->core_.insert(k, std::move(v),
                                   /*assign_if_present=*/true, c) ==
               InsertOutcome::kInserted;
      });
    }

    bool replace(const Key& k, const Value& expected, Value desired) {
      return with_ctx([&](Ctx& c) {
        return tree_->core_.replace(k, expected, std::move(desired), c);
      });
    }

    Value get_or_insert(const Key& k, Value v) {
      for (;;) {
        if (auto cur = get(k)) return *cur;
        if (insert(k, v)) return v;
      }
    }

    bool erase(const Key& k) {
      return with_ctx([&](Ctx& c) { return tree_->core_.erase(k, c); });
    }

    // Ordered queries through the handle's attachment: same weak-consistency
    // contract (see ordered.hpp), no per-call thread_local lookup.

    std::optional<Key> min_key() const {
      EFRB_DCHECK(valid());
      [[maybe_unused]] auto guard = att_.pin();
      return ordered::min_key<Layout>(tree_->core_.root());
    }

    std::optional<Key> max_key() const {
      EFRB_DCHECK(valid());
      [[maybe_unused]] auto guard = att_.pin();
      return ordered::max_key<Layout>(tree_->core_.root());
    }

    std::optional<Key> find_ge(const Key& k) const { return bound(k, false, true); }
    std::optional<Key> find_gt(const Key& k) const { return bound(k, true, true); }
    std::optional<Key> find_le(const Key& k) const { return bound(k, false, false); }
    std::optional<Key> find_lt(const Key& k) const { return bound(k, true, false); }

    template <typename Fn>
    void range(const Key& lo, const Key& hi, Fn&& fn) const {
      EFRB_DCHECK(valid());
      [[maybe_unused]] auto guard = att_.pin();
      ordered::range<Layout>(tree_->core_.root(), tree_->core_.cmp(), lo, hi,
                             std::forward<Fn>(fn));
    }

    std::size_t count_range(const Key& lo, const Key& hi) const {
      std::size_t n = 0;
      range(lo, hi, [&n](const Key&, const Value&) { ++n; });
      return n;
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
      EFRB_DCHECK(valid());
      [[maybe_unused]] auto guard = att_.pin();
      ordered::for_each<Layout>(tree_->core_.root(), std::forward<Fn>(fn));
    }

    /// Drain this handle's retire backlog. Call while not pinned.
    void flush() { att_.flush(); }

    /// Exactly this handle's own operations (zeros when stats are disabled).
    /// Shards are recycled with their lifetime totals intact, so the shard's
    /// value at acquisition is subtracted out.
    TreeStats local_stats() const noexcept {
      TreeStats s;
      if (shard_ != nullptr) {
        accumulate(s, shard_->counters);
        subtract(s, shard_base_);
      }
      return s;
    }

    /// Per-handle PRNG: splitmix-seeded, a distinct stream per handle.
    Xoshiro256& rng() noexcept { return rng_; }
    Backoff& backoff() noexcept { return backoff_; }

    /// This handle's thread identity: a small id unique among the tree's
    /// handles (creation order), carried into every debug-hook emission the
    /// handle's operations produce. kNoTid only on a default-constructed
    /// (invalid) handle.
    unsigned tid() const noexcept { return tid_; }

    /// True iff the most recent operation through this handle hit at least
    /// one retry pause (a failed attempt round). Lets latency sampling in
    /// workload/runner.hpp split clean ops from contended ones; valid until
    /// the next operation on this handle.
    bool last_op_retried() const noexcept { return last_retried_; }

   private:
    friend class EfrbTreeMap;

    explicit Handle(EfrbTreeMap* t)
        : tree_(t),
          att_(t->reclaimer_.attach()),
          cache_(t->alloc_.make_cache()),
          shard_(t->shards_.acquire()),
          rng_(next_handle_seed()),
          tid_(t->next_tid_.fetch_add(1, std::memory_order_relaxed)) {
      if (shard_ != nullptr) accumulate(shard_base_, shard_->counters);
      try {
        progress_ = t->progress_.acquire(tid_);
      } catch (...) {
        // The ctor body throwing skips ~Handle: hand the shard back here.
        if (shard_ != nullptr) Shards::release(shard_);
        throw;
      }
    }

    /// Pin through the attachment, build this handle's context (attachment
    /// retire sink, stat shard, private backoff, private allocator cache),
    /// run `fn`.
    template <typename Fn>
    decltype(auto) with_ctx(Fn&& fn) const {
      EFRB_DCHECK(valid());
      [[maybe_unused]] auto guard = att_.pin();
      last_retried_ = false;
      auto ctx = Ctx::attached(
          att_, shard_ != nullptr ? &shard_->counters : nullptr, &backoff_,
          tid_, &last_retried_, &tree_->alloc_, &cache_, progress_);
      return fn(ctx);
    }

    std::optional<Key> bound(const Key& k, bool strict, bool up) const {
      EFRB_DCHECK(valid());
      [[maybe_unused]] auto guard = att_.pin();
      return up ? ordered::bound_up<Layout>(tree_->core_.root(),
                                            tree_->core_.cmp(), k, strict)
                : ordered::bound_down<Layout>(tree_->core_.root(),
                                              tree_->core_.cmp(), k, strict);
    }

    EfrbTreeMap* tree_ = nullptr;
    mutable typename Reclaimer::Attachment att_;
    // Private allocator cache: blocks recycled by this handle's operations
    // are reused without touching the pool's global free list (empty in heap
    // mode). Declared after att_ to match the ctor's init order.
    mutable typename Alloc::Cache cache_;
    StatShard* shard_ = nullptr;
    TreeStats shard_base_;  // recycled shard's totals at acquisition
    ProgressSlot* progress_ = nullptr;  // null unless Traits::kCausalTrace
    mutable Backoff backoff_;
    mutable Xoshiro256 rng_{0};
    unsigned tid_ = kNoTid;
    mutable bool last_retried_ = false;
  };

  /// Create a per-thread operation handle bound to this tree (see Handle).
  Handle handle() { return Handle(this); }

  // ------------------------------------------------------------------
  // Dictionary operations (Fig. 8/9): convenience wrappers over the same
  // core the Handle drives — correct from any thread with zero setup, but
  // each call re-resolves the reclaimer's thread_local lease and, when stats
  // are enabled, counts into one shared cache line. Hot loops should go
  // through handle().
  // ------------------------------------------------------------------

  /// Find(k), lines 36-40. Read-only: never writes shared memory, never helps.
  bool contains(const Key& k) const {
    return with_ctx([&](Ctx& c) { return core_.contains(k, c); });
  }

  /// Map lookup: returns the value stored with k, if present. The value in a
  /// leaf is immutable after publication, so copying it under the pin is safe.
  std::optional<Value> get(const Key& k) const {
    return with_ctx([&](Ctx& c) { return core_.get(k, c); });
  }

  /// Insert(k), lines 42-62. Returns false iff k was already present.
  bool insert(const Key& k, Value v = Value{}) {
    return with_ctx([&](Ctx& c) {
      return core_.insert(k, std::move(v), /*assign_if_present=*/false, c) !=
             InsertOutcome::kDuplicate;
    });
  }

  /// Extension (not in the paper): insert k or replace the value of an
  /// existing k (soundness note on TreeCore::insert). Returns true if k was
  /// newly inserted, false if an existing value was replaced.
  bool insert_or_assign(const Key& k, Value v) {
    return with_ctx([&](Ctx& c) {
      return core_.insert(k, std::move(v), /*assign_if_present=*/true, c) ==
             InsertOutcome::kInserted;
    });
  }

  /// Extension: atomic compare-and-replace on a key's value. Returns true iff
  /// k was present with a value equal to `expected`, in which case the value
  /// is replaced by `desired` (as one linearizable step; soundness note on
  /// TreeCore::replace).
  bool replace(const Key& k, const Value& expected, Value desired) {
    return with_ctx([&](Ctx& c) {
      return core_.replace(k, expected, std::move(desired), c);
    });
  }

  /// Extension: returns the value stored at k, inserting `v` first if absent.
  /// (Composite of get/insert; each step linearizable, the pair is not one
  /// atomic step — a concurrent erase can interleave; then the loop retries.)
  Value get_or_insert(const Key& k, Value v) {
    for (;;) {
      if (auto cur = get(k)) return *cur;
      if (insert(k, v)) return v;
    }
  }

  /// Delete(k), lines 69-87. Returns false iff k was absent.
  bool erase(const Key& k) {
    return with_ctx([&](Ctx& c) { return core_.erase(k, c); });
  }

  // --- Ordered queries (see ordered.hpp for the consistency contract) ---

  /// Smallest key, or nullopt when empty.
  std::optional<Key> min_key() const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return ordered::min_key<Layout>(core_.root());
  }

  /// Largest key, or nullopt when empty.
  std::optional<Key> max_key() const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return ordered::max_key<Layout>(core_.root());
  }

  /// Smallest key >= k (lower bound), or nullopt.
  std::optional<Key> find_ge(const Key& k) const { return bound(k, false, true); }
  /// Smallest key > k, or nullopt.
  std::optional<Key> find_gt(const Key& k) const { return bound(k, true, true); }
  /// Largest key <= k, or nullopt.
  std::optional<Key> find_le(const Key& k) const { return bound(k, false, false); }
  /// Largest key < k, or nullopt.
  std::optional<Key> find_lt(const Key& k) const { return bound(k, true, false); }

  /// Visits every (key, value) with lo <= key <= hi in order, pruning
  /// subtrees by the BST bounds. Weakly consistent under concurrency.
  template <typename Fn>
  void range(const Key& lo, const Key& hi, Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    ordered::range<Layout>(core_.root(), core_.cmp(), lo, hi,
                           std::forward<Fn>(fn));
  }

  /// Number of keys in [lo, hi] (weakly consistent; exact at quiescence).
  std::size_t count_range(const Key& lo, const Key& hi) const {
    std::size_t n = 0;
    range(lo, hi, [&n](const Key&, const Value&) { ++n; });
    return n;
  }

  // --- Traversal and diagnostics (weakly consistent under concurrency) ---

  /// Depth-first visit of every real (key, value) pair; weakly consistent
  /// under concurrency, an exact in-order enumeration on a quiescent tree.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    ordered::for_each<Layout>(core_.root(), std::forward<Fn>(fn));
  }

  /// Number of real keys; exact only on a quiescent tree. O(n).
  std::size_t size() const {
    std::size_t n = 0;
    for_each([&n](const Key&, const Value&) { ++n; });
    return n;
  }

  bool empty() const { return !min_key().has_value(); }

  /// Structural validation for tests (quiescent trees); see
  /// ordered::validate.
  ValidationResult validate() const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return ordered::validate<Layout>(core_.root(), core_.cmp());
  }

  TreeStats stats() const noexcept { return stats_snapshot(); }

  /// Combined relaxed-read snapshot of per-tree counters (Traits-gated):
  /// the shared block written by the tree-level path plus every handle
  /// shard, live or released (shards hold lifetime totals).
  TreeStats stats_snapshot() const noexcept {
    TreeStats s;
    if constexpr (Traits::kCountStats) {
      accumulate(s, counters_);
      shards_.accumulate_into(s);
    }
    return s;
  }

  Reclaimer& reclaimer() noexcept { return reclaimer_; }

  /// The node allocator (ObjectPool under PooledTraits, stateless
  /// HeapAllocator otherwise); exposes PoolStats gauges to tests and the
  /// observability layer.
  Alloc& allocator() noexcept { return alloc_; }

 private:
  /// Pin through the reclaimer, build the tree-level context (thread_local
  /// lease retire sink, shared counter block, no backoff — matching the
  /// original per-call behaviour exactly), run `fn`.
  template <typename Fn>
  decltype(auto) with_ctx(Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    // Allocation via the pool's thread_local cache lease (the analogue of
    // the reclaimer lease this path already uses); nulls in heap mode are
    // never read.
    auto ctx = Ctx::tree_level(reclaimer_, &counters_, &alloc_,
                               Alloc::kPooled ? alloc_.local_cache() : nullptr);
    return fn(ctx);
  }

  std::optional<Key> bound(const Key& k, bool strict, bool up) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return up ? ordered::bound_up<Layout>(core_.root(), core_.cmp(), k, strict)
              : ordered::bound_down<Layout>(core_.root(), core_.cmp(), k,
                                            strict);
  }

  // Declaration order is load-bearing: the pool must be constructed before
  // the core (whose constructor allocates the sentinels through it) and
  // destroyed last — ~Core returns every node to the pool, and ~Reclaimer's
  // registry may still run pooled disposers (their safety net is the
  // PoolHook keepalive, but the common path never needs it).
  [[no_unique_address]] mutable Alloc alloc_;
  mutable Reclaimer reclaimer_;
  Core core_;
  mutable StatCounters counters_;  // tree-level (non-handle) counter block
  [[no_unique_address]] mutable Shards shards_;  // per-handle counter shards
  // Per-handle liveness progress slots (empty unless Traits::kCausalTrace);
  // the watchdog samples these through progress_table().
  [[no_unique_address]] mutable Progress progress_;
  std::atomic<unsigned> next_tid_{0};  // handle-id source (see Handle::tid)

 public:
  /// The per-handle progress table the liveness watchdog samples
  /// (obs/watchdog.hpp). Meaningful only when Traits::kCausalTrace; the
  /// uninstrumented table is an empty stand-in.
  const Progress& progress_table() const noexcept { return progress_; }
};

/// Set flavour: keys only, no mapped values.
template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = EpochReclaimer, typename Traits = NoopTraits>
using EfrbTreeSet = EfrbTreeMap<Key, detail::Unit, Compare, Reclaimer, Traits>;

}  // namespace efrb
