// Sharded "tree-of-trees" front end: N independent inner trees behind one
// ConcurrentMap/Set surface.
//
// Single-structure scalability tops out when every core funnels through one
// root and one reclaimer domain. ShardedMap partitions the key space across
// N inner trees (EFRB or chromatic — anything exposing the facade surface of
// efrb_tree.hpp / chromatic.hpp), each with its **own** reclaimer instance
// and stat shards, so shards share no mutable cache lines at all: an epoch
// advance or orphan sweep on one shard never stalls another. Key placement
// is a pluggable router (shard_router.hpp) — hash for uniformity, range for
// locality — chosen independently of the inner tree type.
//
//   ShardedMap<Inner, Router>
//     ├── router:  key -> shard index (deterministic, copyable value)
//     ├── shards:  unique_ptr<Inner>[N]   (per-shard reclaimer/stats)
//     └── Handle:  one lazily-attached Inner::Handle per shard
//
// Handle affinity: a sharded Handle materializes an inner handle (reclaimer
// slot + stat shard) only for shards the thread actually touches — a thread
// pinned to one range-shard consumes exactly one slot, not N, which keeps
// handle capacity (kMaxHandles, reclaimer max_threads) a per-shard budget
// rather than a divided one.
//
// Batch APIs (multi_get / multi_insert) group keys by shard and run each
// group back-to-back through that shard's handle, answering in input order.
//
// Ordered queries: every inner tree serves its ordered tier; range /
// for_each merge the per-shard ascending runs k-way (or concatenate when
// Router::kOrderedShards — range sharding makes shard order global order),
// count_range sums per-shard counts, min/max scan the shards. Same weak
// consistency contract as the inner ordered tier: exact at quiescence; under
// concurrency every reported key was present at some point during the call.
//
// Telemetry: stats_snapshot() folds per-shard TreeStats; gauges() folds
// per-shard ReclaimGauges (per-shard views stay accessible for the
// efrb_shard_* Prometheus series and the metrics-v2 `sharding` cell — see
// shard_metrics.hpp, which also scores shard maps against windowed
// KeyHeatmap rates).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/op_context.hpp"
#include "reclaim/reclaimer.hpp"
#include "shard/shard_router.hpp"
#include "util/assert.hpp"

namespace efrb::shard {

/// Aggregate structural validation over all shards. `ok` is the conjunction;
/// counts are sums (height is the max — shard trees stand side by side, not
/// stacked). Balance-violation counts are folded in when the inner
/// validation reports them (chromatic inners).
struct ShardedValidation {
  bool ok = true;
  std::string error;  // first failing shard, prefixed with its index
  std::size_t shards = 0;
  std::size_t real_leaves = 0;
  std::size_t internals = 0;
  std::size_t height = 0;
  std::size_t red_red = 0;     // chromatic inners only
  std::size_t overweight = 0;  // chromatic inners only
};

/// N inner trees behind the facade surface the rest of the repo programs
/// against. Inner is a full tree facade type (e.g. EfrbTreeMap<...> or
/// ChromaticTreeMap<...>); Compare must order keys exactly as the inner
/// trees do (it drives the cross-shard merge and min/max selection).
template <typename Inner, typename Router = HashRouter,
          typename Compare = std::less<typename Inner::key_type>>
class ShardedMap {
 public:
  using key_type = typename Inner::key_type;
  using mapped_type = typename Inner::mapped_type;
  using Key = key_type;
  using Value = mapped_type;
  using ValidationResult = ShardedValidation;
  using Gauges = ReclaimGauges;
  /// One shard's ascending (key, value) emission, materialized for merging.
  using Run = std::vector<std::pair<typename Inner::key_type,
                                    typename Inner::mapped_type>>;
  static constexpr const char* kName = "sharded";

  static_assert(ShardRouter<Router, Key>);

  explicit ShardedMap(Router router = Router{}, Compare cmp = Compare{})
      : router_(router), cmp_(std::move(cmp)) {
    shards_.reserve(router_.shards());
    for (std::size_t i = 0; i < router_.shards(); ++i) {
      shards_.push_back(std::make_unique<Inner>());
    }
  }

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  const Router& router() const noexcept { return router_; }
  Inner& shard(std::size_t i) noexcept { return *shards_[i]; }
  const Inner& shard(std::size_t i) const noexcept { return *shards_[i]; }

  /// Human-readable composition for bench labels ("sharded(hash x8)").
  std::string describe() const {
    return std::string("sharded(") + Router::kName + " x" +
           std::to_string(shards_.size()) + ")";
  }

  // ---------------- Handle (per-thread fast path) ----------------

  /// One inner handle per shard, attached on first touch. Thread-affine and
  /// movable, like the inner handles it wraps; must not outlive the map.
  class Handle {
   public:
    Handle() = default;

    Handle(Handle&& other) noexcept
        : map_(std::exchange(other.map_, nullptr)),
          handles_(std::move(other.handles_)),
          last_shard_(other.last_shard_),
          tid_(other.tid_) {}

    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        detach();
        map_ = std::exchange(other.map_, nullptr);
        handles_ = std::move(other.handles_);
        last_shard_ = other.last_shard_;
        tid_ = other.tid_;
      }
      return *this;
    }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() = default;

    bool valid() const noexcept { return map_ != nullptr; }

    /// Release every attached inner handle (reclaimer slots, stat shards)
    /// without waiting for destruction.
    void detach() noexcept {
      for (auto& h : handles_) h.reset();
      map_ = nullptr;
    }

    bool contains(const Key& k) const { return route(k).contains(k); }

    std::optional<Value> get(const Key& k) const { return route(k).get(k); }

    bool insert(const Key& k, Value v = Value{}) {
      return route(k).insert(k, std::move(v));
    }

    bool insert_or_assign(const Key& k, Value v) {
      return route(k).insert_or_assign(k, std::move(v));
    }

    bool replace(const Key& k, const Value& expected, Value desired) {
      return route(k).replace(k, expected, std::move(desired));
    }

    Value get_or_insert(const Key& k, Value v) {
      return route(k).get_or_insert(k, std::move(v));
    }

    bool erase(const Key& k) { return route(k).erase(k); }

    /// Batch lookup: keys grouped by shard, each group answered back-to-back
    /// through that shard's handle (one attach, hot caches), results in
    /// input order.
    std::vector<std::optional<Value>> multi_get(
        const std::vector<Key>& keys) const {
      std::vector<std::optional<Value>> out(keys.size());
      for_each_shard_group(keys, [&](std::size_t s,
                                     const std::vector<std::size_t>& idx) {
        auto& h = at(s);
        for (const std::size_t i : idx) out[i] = h.get(keys[i]);
      });
      return out;
    }

    /// Batch insert; out[i] == true iff kvs[i] was newly inserted. Not
    /// atomic across keys (each key is one linearizable inner insert).
    std::vector<bool> multi_insert(
        const std::vector<std::pair<Key, Value>>& kvs) {
      std::vector<bool> out(kvs.size());
      std::vector<Key> keys;
      keys.reserve(kvs.size());
      for (const auto& kv : kvs) keys.push_back(kv.first);
      for_each_shard_group(keys, [&](std::size_t s,
                                     const std::vector<std::size_t>& idx) {
        auto& h = at(s);
        for (const std::size_t i : idx) {
          out[i] = h.insert(kvs[i].first, kvs[i].second);
        }
      });
      return out;
    }

    std::optional<Key> min_key() const {
      return scan_extreme([](auto& h) { return h.min_key(); }, /*min=*/true);
    }
    std::optional<Key> max_key() const {
      return scan_extreme([](auto& h) { return h.max_key(); }, /*min=*/false);
    }

    std::optional<Key> find_ge(const Key& k) const {
      return scan_extreme([&](auto& h) { return h.find_ge(k); }, true);
    }
    std::optional<Key> find_gt(const Key& k) const {
      return scan_extreme([&](auto& h) { return h.find_gt(k); }, true);
    }
    std::optional<Key> find_le(const Key& k) const {
      return scan_extreme([&](auto& h) { return h.find_le(k); }, false);
    }
    std::optional<Key> find_lt(const Key& k) const {
      return scan_extreme([&](auto& h) { return h.find_lt(k); }, false);
    }

    template <typename Fn>
    void range(const Key& lo, const Key& hi, Fn&& fn) const {
      std::vector<Run> runs = collect(
          [&](auto& h, auto&& sink) { h.range(lo, hi, sink); });
      merge_runs(map_->cmp_, std::move(runs), Router::kOrderedShards,
                 std::forward<Fn>(fn));
    }

    std::size_t count_range(const Key& lo, const Key& hi) const {
      std::size_t n = 0;
      for (std::size_t s = 0; s < map_->shard_count(); ++s) {
        n += at(s).count_range(lo, hi);
      }
      return n;
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
      std::vector<Run> runs =
          collect([&](auto& h, auto&& sink) { h.for_each(sink); });
      merge_runs(map_->cmp_, std::move(runs), Router::kOrderedShards,
                 std::forward<Fn>(fn));
    }

    /// Flush every attached shard's retired backlog.
    void flush() {
      for (auto& h : handles_) {
        if (h.has_value()) h->flush();
      }
    }

    unsigned tid() const noexcept { return tid_; }

    bool last_op_retried() const noexcept {
      return last_shard_ < handles_.size() &&
             handles_[last_shard_].has_value() &&
             handles_[last_shard_]->last_op_retried();
    }

    /// Number of shards this handle has actually attached to — the affinity
    /// observable the tests key on.
    std::size_t attached_shards() const noexcept {
      std::size_t n = 0;
      for (const auto& h : handles_) n += h.has_value() ? 1 : 0;
      return n;
    }

   private:
    friend class ShardedMap;

    explicit Handle(ShardedMap* m)
        : map_(m),
          handles_(m->shard_count()),
          tid_(m->next_tid_.fetch_add(1, std::memory_order_relaxed)) {}

    /// The inner handle for shard s, attached on first use.
    typename Inner::Handle& at(std::size_t s) const {
      EFRB_DCHECK(valid() && s < handles_.size());
      if (!handles_[s].has_value()) {
        handles_[s].emplace(map_->shards_[s]->handle());
      }
      return *handles_[s];
    }

    typename Inner::Handle& route(const Key& k) const {
      const std::size_t s = map_->router_.shard_of(k);
      last_shard_ = s;
      return at(s);
    }

    /// Group key indices by shard, densest-first not required — shard index
    /// order keeps range-routed batches in ascending key order.
    template <typename Fn>
    void for_each_shard_group(const std::vector<Key>& keys, Fn&& fn) const {
      std::vector<std::vector<std::size_t>> groups(map_->shard_count());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        groups[map_->router_.shard_of(keys[i])].push_back(i);
      }
      for (std::size_t s = 0; s < groups.size(); ++s) {
        if (!groups[s].empty()) fn(s, groups[s]);
      }
    }

    template <typename Get>
    std::optional<Key> scan_extreme(Get&& get, bool min) const {
      std::optional<Key> best;
      for (std::size_t s = 0; s < map_->shard_count(); ++s) {
        const std::optional<Key> c = get(at(s));
        if (!c.has_value()) continue;
        if (!best.has_value() ||
            (min ? map_->cmp_(*c, *best) : map_->cmp_(*best, *c))) {
          best = c;
        }
      }
      return best;
    }

    template <typename Visit>
    std::vector<Run> collect(Visit&& visit) const {
      std::vector<Run> runs(map_->shard_count());
      for (std::size_t s = 0; s < map_->shard_count(); ++s) {
        Run& run = runs[s];
        visit(at(s), [&run](const Key& k, const Value& v) {
          run.emplace_back(k, v);
        });
      }
      return runs;
    }

    ShardedMap* map_ = nullptr;
    mutable std::vector<std::optional<typename Inner::Handle>> handles_;
    mutable std::size_t last_shard_ = 0;
    unsigned tid_ = kNoTid;
  };

  Handle handle() { return Handle(this); }

  // ---------------- Tree-level surface (routes + delegates) ----------------

  bool contains(const Key& k) const { return route(k).contains(k); }

  std::optional<Value> get(const Key& k) const { return route(k).get(k); }

  bool insert(const Key& k, Value v = Value{}) {
    return route(k).insert(k, std::move(v));
  }

  bool insert_or_assign(const Key& k, Value v) {
    return route(k).insert_or_assign(k, std::move(v));
  }

  bool replace(const Key& k, const Value& expected, Value desired) {
    return route(k).replace(k, expected, std::move(desired));
  }

  Value get_or_insert(const Key& k, Value v) {
    return route(k).get_or_insert(k, std::move(v));
  }

  bool erase(const Key& k) { return route(k).erase(k); }

  std::vector<std::optional<Value>> multi_get(
      const std::vector<Key>& keys) const {
    std::vector<std::optional<Value>> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) out[i] = get(keys[i]);
    return out;
  }

  std::vector<bool> multi_insert(
      const std::vector<std::pair<Key, Value>>& kvs) {
    std::vector<bool> out(kvs.size());
    for (std::size_t i = 0; i < kvs.size(); ++i) {
      out[i] = insert(kvs[i].first, kvs[i].second);
    }
    return out;
  }

  std::optional<Key> min_key() const {
    return scan_extreme([](const Inner& t) { return t.min_key(); }, true);
  }
  std::optional<Key> max_key() const {
    return scan_extreme([](const Inner& t) { return t.max_key(); }, false);
  }

  std::optional<Key> find_ge(const Key& k) const {
    return scan_extreme([&](const Inner& t) { return t.find_ge(k); }, true);
  }
  std::optional<Key> find_gt(const Key& k) const {
    return scan_extreme([&](const Inner& t) { return t.find_gt(k); }, true);
  }
  std::optional<Key> find_le(const Key& k) const {
    return scan_extreme([&](const Inner& t) { return t.find_le(k); }, false);
  }
  std::optional<Key> find_lt(const Key& k) const {
    return scan_extreme([&](const Inner& t) { return t.find_lt(k); }, false);
  }

  template <typename Fn>
  void range(const Key& lo, const Key& hi, Fn&& fn) const {
    std::vector<Run> runs = collect(
        [&](const Inner& t, auto&& sink) { t.range(lo, hi, sink); });
    merge_runs(cmp_, std::move(runs), Router::kOrderedShards,
               std::forward<Fn>(fn));
  }

  std::size_t count_range(const Key& lo, const Key& hi) const {
    std::size_t n = 0;
    for (const auto& t : shards_) n += t->count_range(lo, hi);
    return n;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<Run> runs =
        collect([&](const Inner& t, auto&& sink) { t.for_each(sink); });
    merge_runs(cmp_, std::move(runs), Router::kOrderedShards,
               std::forward<Fn>(fn));
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& t : shards_) n += t->size();
    return n;
  }

  bool empty() const {
    for (const auto& t : shards_) {
      if (!t->empty()) return false;
    }
    return true;
  }

  ValidationResult validate() const {
    ValidationResult out;
    out.shards = shards_.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto v = shards_[s]->validate();
      if (!v.ok && out.ok) {
        out.ok = false;
        out.error = "shard " + std::to_string(s) + ": " + v.error;
      }
      out.real_leaves += v.real_leaves;
      out.internals += v.internals;
      out.height = std::max(out.height, v.height);
      if constexpr (requires { v.red_red; }) {
        out.red_red += v.red_red;
        out.overweight += v.overweight;
      }
    }
    return out;
  }

  TreeStats stats() const noexcept { return stats_snapshot(); }

  /// Per-shard TreeStats folded into one snapshot (sums; depth_max by max).
  TreeStats stats_snapshot() const noexcept {
    TreeStats s;
    for (const auto& t : shards_) accumulate(s, t->stats_snapshot());
    return s;
  }

  /// One shard's reclaimer gauges — the per-shard series the observability
  /// layer exports (efrb_shard_* / the metrics-v2 `sharding` cell).
  Gauges shard_gauges(std::size_t i) const noexcept {
    return shards_[i]->reclaimer().gauges();
  }

  /// All shards' gauges folded (sums; epoch by max — epochs advance
  /// independently per shard, so the sum would be meaningless).
  Gauges gauges() const noexcept {
    Gauges g;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Gauges s = shard_gauges(i);
      g.retired_total += s.retired_total;
      g.freed_total += s.freed_total;
      g.orphan_depth += s.orphan_depth;
      g.pins += s.pins;
      g.unpins += s.unpins;
      g.epoch = std::max(g.epoch, s.epoch);
    }
    return g;
  }

  /// One shard's TreeStats, for per-shard load attribution.
  TreeStats shard_stats(std::size_t i) const noexcept {
    return shards_[i]->stats_snapshot();
  }

 private:
  Inner& route(const Key& k) { return *shards_[router_.shard_of(k)]; }
  const Inner& route(const Key& k) const {
    return *shards_[router_.shard_of(k)];
  }

  template <typename Get>
  std::optional<Key> scan_extreme(Get&& get, bool min) const {
    std::optional<Key> best;
    for (const auto& t : shards_) {
      const std::optional<Key> c = get(*t);
      if (!c.has_value()) continue;
      if (!best.has_value() || (min ? cmp_(*c, *best) : cmp_(*best, *c))) {
        best = c;
      }
    }
    return best;
  }

  template <typename Visit>
  std::vector<Run> collect(Visit&& visit) const {
    std::vector<Run> runs(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Run& run = runs[s];
      visit(*shards_[s], [&run](const Key& k, const Value& v) {
        run.emplace_back(k, v);
      });
    }
    return runs;
  }

  /// Merge per-shard ascending runs into one globally ascending emission.
  /// Range-sharded runs are already globally ordered in shard-index order
  /// (concatenate); hash-sharded runs interleave, so pick the smallest run
  /// front each step — a linear scan over <= N run heads beats a heap for
  /// the shard counts this facade targets (single digits to low tens).
  template <typename Fn>
  static void merge_runs(const Compare& cmp, std::vector<Run> runs,
                         bool ordered, Fn&& fn) {
    if (ordered) {
      for (const Run& run : runs) {
        for (const auto& [k, v] : run) fn(k, v);
      }
      return;
    }
    std::vector<std::size_t> pos(runs.size(), 0);
    for (;;) {
      std::size_t best = runs.size();
      for (std::size_t s = 0; s < runs.size(); ++s) {
        if (pos[s] >= runs[s].size()) continue;
        if (best == runs.size() ||
            cmp(runs[s][pos[s]].first, runs[best][pos[best]].first)) {
          best = s;
        }
      }
      if (best == runs.size()) return;
      const auto& [k, v] = runs[best][pos[best]];
      fn(k, v);
      ++pos[best];
    }
  }

  Router router_;
  Compare cmp_;
  std::vector<std::unique_ptr<Inner>> shards_;
  std::atomic<unsigned> next_tid_{0};
};

/// Set flavour mirroring EfrbTreeSet/ChromaticTreeSet: any Inner whose
/// mapped type is the empty Unit.
template <typename Inner, typename Router = HashRouter>
using ShardedSet = ShardedMap<Inner, Router>;

}  // namespace efrb::shard
