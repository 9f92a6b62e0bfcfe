// The public facade shared by every tree in core/. TreeMap<Spec, Reclaimer,
// Traits> owns what a tree needs around its core — the reclaimer, the stat
// shards and the progress table — and exposes the
// dictionary (Find/Insert/Delete plus the map extensions), the ordered
// queries (ordered.hpp) and the per-thread Handle. EfrbTreeMap
// (efrb_tree.hpp) and ChromaticTreeMap (chromatic.hpp) are thin classes
// deriving from it: every member has the same contract on both trees, only
// the structure underneath differs.
//
// A Spec names the core plus what the facade needs before the core can be
// instantiated (the core's type depends on the OpContext):
//
//   Layout             node types: key_type, mapped_type, and the
//                      is_leaf/left/right/value navigation seam of
//                      ordered.hpp
//   compare_type       the user's Compare
//   Core<Traits, Ctx>  the core: contains/get/insert/replace/erase over a
//                      Ctx, root(), cmp(), validate() and its
//                      ValidationResult, kName, and a Compare constructor
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/debug_hooks.hpp"
#include "core/op_context.hpp"
#include "core/ordered.hpp"
#include "core/protocol.hpp"
#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace efrb {

/// Named by the perfbench report's `alloc.*` rows; nothing fills it, since
/// every node and record is a plain new/delete.
struct PoolStats {
  std::uint64_t slabs = 0;
  std::uint64_t slab_bytes = 0;
  std::uint64_t recycled = 0;
  std::uint64_t cache_refills = 0;
};

template <typename Spec, typename Reclaimer, typename Traits>
class TreeMap {
  using Layout = typename Spec::Layout;
  using Key = typename Layout::key_type;
  using Value = typename Layout::mapped_type;
  using Compare = typename Spec::compare_type;
  // Key attribution is opt-in per Traits (obs::ObsTraits sets kTrackKeys);
  // absent the member, contexts carry no key state and op_key() folds away.
  static constexpr bool kTrackKeys = hooks::track_keys_v<Traits>;
  // Causal help-chain attribution is likewise opt-in (Traits::kCausalTrace):
  // handles acquire a ProgressSlot for the liveness watchdog, contexts stamp
  // Info records with their owner, and ops maintain the progress words.
  static constexpr bool kCausal = hooks::causal_trace_v<Traits>;
  // One OpContext instantiation serves both the tree-level path and the
  // Handle fast path: they drive the SAME instantiation of the core.
  using Ctx = OpContext<Reclaimer, Traits::kCountStats, kTrackKeys, kCausal>;
  using Core = typename Spec::template Core<Traits, Ctx>;
  using Shards =
      std::conditional_t<Traits::kCountStats, ShardPool, EmptyShardPool>;
  using Progress =
      std::conditional_t<kCausal, ProgressTable, EmptyProgressTable>;

 public:
  using key_type = Key;
  using mapped_type = Value;
  using ValidationResult = typename Core::ValidationResult;
  static constexpr const char* kName = Core::kName;

  explicit TreeMap(Compare cmp = Compare{}, Reclaimer reclaimer = Reclaimer{})
      : reclaimer_(std::move(reclaimer)), core_(std::move(cmp)) {}

  TreeMap(const TreeMap&) = delete;
  TreeMap& operator=(const TreeMap&) = delete;

  /// Requires quiescence, like all destructors (the core frees the remaining
  /// nodes and the records their update words still reference).
  ~TreeMap() = default;

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
          shard_(std::exchange(other.shard_, nullptr)),
          shard_base_(other.shard_base_),
          progress_(std::exchange(other.progress_, nullptr)),
          backoff_(other.backoff_),
          rng_(other.rng_),
          tid_(other.tid_),
          last_retried_(other.last_retried_) {}

    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        detach();
        tree_ = std::exchange(other.tree_, nullptr);
        att_ = std::move(other.att_);
        shard_ = std::exchange(other.shard_, nullptr);
        shard_base_ = other.shard_base_;
        progress_ = std::exchange(other.progress_, nullptr);
        backoff_ = other.backoff_;
        rng_ = other.rng_;
        tid_ = other.tid_;
        last_retried_ = other.last_retried_;
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
      tree_ = nullptr;
    }

    // The dictionary and the ordered queries through this handle's
    // attachment: same contracts as the tree-level members below, no
    // per-call thread_local lookup.

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

    std::optional<Key> min_key() const {
      [[maybe_unused]] auto guard = pin();
      return ordered::min_key<Layout>(tree_->core_.root());
    }

    std::optional<Key> max_key() const {
      [[maybe_unused]] auto guard = pin();
      return ordered::max_key<Layout>(tree_->core_.root());
    }

    std::optional<Key> find_ge(const Key& k) const { return bound(k, false, true); }
    std::optional<Key> find_gt(const Key& k) const { return bound(k, true, true); }
    std::optional<Key> find_le(const Key& k) const { return bound(k, false, false); }
    std::optional<Key> find_lt(const Key& k) const { return bound(k, true, false); }

    template <typename Fn>
    void range(const Key& lo, const Key& hi, Fn&& fn) const {
      [[maybe_unused]] auto guard = pin();
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
      [[maybe_unused]] auto guard = pin();
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
    /// the next operation on this handle, and carried across a move.
    bool last_op_retried() const noexcept { return last_retried_; }

   private:
    friend class TreeMap;

    explicit Handle(TreeMap* t)
        : tree_(t),
          att_(t->reclaimer_.attach()),
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

    auto pin() const {
      EFRB_DCHECK(valid());
      return att_.pin();
    }

    /// Pin through the attachment, build this handle's context (attachment
    /// retire sink, stat shard, private backoff), run `fn`.
    template <typename Fn>
    decltype(auto) with_ctx(Fn&& fn) const {
      [[maybe_unused]] auto guard = pin();
      last_retried_ = false;
      auto ctx = Ctx::attached(
          att_, shard_ != nullptr ? &shard_->counters : nullptr, &backoff_,
          tid_, &last_retried_, progress_);
      return fn(ctx);
    }

    std::optional<Key> bound(const Key& k, bool strict, bool up) const {
      [[maybe_unused]] auto guard = pin();
      return tree_->bound_pinned(k, strict, up);
    }

    TreeMap* tree_ = nullptr;
    mutable typename Reclaimer::Attachment att_;
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
  // Dictionary operations: convenience wrappers over the same core the
  // Handle drives — correct from any thread with zero setup, but each call
  // re-resolves the reclaimer's thread_local lease and, when stats are
  // enabled, counts into one shared cache line. Hot loops should go through
  // handle().
  // ------------------------------------------------------------------

  /// Find(k). Read-only: never writes shared memory, never helps.
  bool contains(const Key& k) const {
    return with_ctx([&](Ctx& c) { return core_.contains(k, c); });
  }

  /// Map lookup: returns the value stored with k, if present. The value in a
  /// leaf is immutable after publication, so copying it under the pin is safe.
  std::optional<Value> get(const Key& k) const {
    return with_ctx([&](Ctx& c) { return core_.get(k, c); });
  }

  /// Insert(k). Returns false iff k was already present.
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

  /// Delete(k). Returns false iff k was absent.
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

  /// Structural validation for tests (quiescent trees); see the core's
  /// validate().
  ValidationResult validate() const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return core_.validate();
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

  /// The per-handle progress table the liveness watchdog samples
  /// (obs/watchdog.hpp). Meaningful only when Traits::kCausalTrace; the
  /// uninstrumented table is an empty stand-in.
  const Progress& progress_table() const noexcept { return progress_; }

 private:
  /// Pin through the reclaimer, build the tree-level context (thread_local
  /// lease retire sink, shared counter block, no backoff), run `fn`.
  template <typename Fn>
  decltype(auto) with_ctx(Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    auto ctx = Ctx::tree_level(reclaimer_, &counters_);
    return fn(ctx);
  }

  std::optional<Key> bound(const Key& k, bool strict, bool up) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return bound_pinned(k, strict, up);
  }

  /// find_ge/gt/le/lt for a caller already holding a pinned region.
  std::optional<Key> bound_pinned(const Key& k, bool strict, bool up) const {
    return up ? ordered::bound_up<Layout>(core_.root(), core_.cmp(), k, strict)
              : ordered::bound_down<Layout>(core_.root(), core_.cmp(), k,
                                            strict);
  }

  mutable Reclaimer reclaimer_;
  Core core_;
  mutable StatCounters counters_;  // tree-level (non-handle) counter block
  [[no_unique_address]] mutable Shards shards_;  // per-handle counter shards
  // Per-handle liveness progress slots (empty unless Traits::kCausalTrace);
  // the watchdog samples these through progress_table().
  [[no_unique_address]] mutable Progress progress_;
  std::atomic<unsigned> next_tid_{0};  // handle-id source (see Handle::tid)
};

}  // namespace efrb
