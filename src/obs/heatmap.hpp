// Key-space contention heatmap: where in the key range is the protocol
// fighting?
//
// EFRB's cost model (helping, backtrack CAS, insert/delete retries) is driven
// by contention that is localized in key ranges — a Zipfian workload hammers
// a handful of hot leaves while the rest of the tree runs uncontended, and
// whole-run aggregates (TreeStats) average that signal away. KeyHeatmap
// splits [0, key_range) into N equal buckets and counts, per bucket, the
// contention events the hook seams already emit:
//
//   * attempts        — operation rounds (HookPoint::kAfterSearch)
//   * cas_failures    — protocol CAS that lost its race (kCas with !ok)
//   * helps           — help dispatches entered (HookPoint::kBeforeHelp),
//                       attributed to the key of the operation that was
//                       blocked (that is where the conflict lives)
//   * retries         — insert/delete retry rounds (kInsertRetry/kDeleteRetry)
//
// Counters are cache-padded relaxed atomics — one line per bucket, never
// synchronization — so concurrent recording from every worker thread is
// wait-free and a live snapshot is racy-but-consistent per counter (the same
// policy as StatCounters and LatencyHistogram).
//
// Feeding it: KeyHeatmap::on_event is an event sink (core/debug_hooks.hpp);
// obs::ObsTraits hands it every event when the heatmap is attached through
// obs::Instruments (obs/instruments.hpp). ObsTraits sets kTrackKeys = true,
// which makes the tree's OpContext stamp each operation's key at entry
// (core/protocol.hpp) — the uninstrumented NoopTraits instantiation is
// untouched, and events whose context carries no key (kNoKey: tree-level
// calls on non-integral keys) are counted in dropped(), never
// misattributed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/debug_hooks.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace efrb::obs {

/// Plain snapshot of one bucket's counters (the read side; see
/// KeyHeatmap::snapshot).
struct HeatBucket {
  std::uint64_t attempts = 0;
  std::uint64_t cas_failures = 0;
  std::uint64_t helps = 0;
  std::uint64_t retries = 0;

  /// The contention signal the acceptance criteria key on: everything that
  /// is not a clean first-attempt pass.
  std::uint64_t contended() const noexcept {
    return cas_failures + helps + retries;
  }
};

class KeyHeatmap {
  struct Cell {
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> cas_failures{0};
    std::atomic<std::uint64_t> helps{0};
    std::atomic<std::uint64_t> retries{0};
  };

 public:
  /// Buckets cover [0, key_range) in N equal-width ranges; keys >= key_range
  /// (and the kNoKey sentinel) are counted as dropped, not binned.
  explicit KeyHeatmap(std::uint64_t key_range, std::size_t buckets = 64)
      : range_(key_range == 0 ? 1 : key_range),
        cells_(buckets == 0 ? 1 : buckets),
        // Per-bucket width, rounded up so bucket_of(range-1) stays in range.
        width_((range_ + cells_.size() - 1) / cells_.size()) {}

  std::size_t buckets() const noexcept { return cells_.size(); }
  std::uint64_t key_range() const noexcept { return range_; }

  /// Number of keys bucket i actually covers. Because the nominal width is
  /// rounded up, the last populated bucket may span fewer keys and trailing
  /// buckets may span none at all (range 100 over 64 buckets: width 2,
  /// buckets 0..49 cover 2 keys each, 50..63 cover zero). Rate comparisons
  /// across buckets must divide by this, not by the nominal width — see
  /// strip() and the emitter in obs/metrics.hpp.
  std::uint64_t bucket_width(std::size_t i) const noexcept {
    if (i >= cells_.size()) return 0;
    const std::uint64_t lo = i * width_;
    if (lo >= range_) return 0;
    const std::uint64_t hi = lo + width_ < range_ ? lo + width_ : range_;
    return hi - lo;
  }

  /// Bucket index for a key, or buckets() when the key is not attributable
  /// (kNoKey or outside [0, key_range)).
  std::size_t bucket_of(std::uint64_t key) const noexcept {
    if (key >= range_) return cells_.size();  // also catches kNoKey
    return static_cast<std::size_t>(key / width_);
  }

  void record_attempt(std::uint64_t key) noexcept {
    bump(key, &Cell::attempts);
  }
  void record_cas_failure(std::uint64_t key) noexcept {
    bump(key, &Cell::cas_failures);
  }
  void record_help(std::uint64_t key) noexcept { bump(key, &Cell::helps); }
  void record_retry(std::uint64_t key) noexcept { bump(key, &Cell::retries); }

  /// The event sink: failed CASes, attempts, helps entered and retries, each
  /// charged to the key of the operation that ran into them.
  void on_event(const Event& e) noexcept {
    if (e.kind == EventKind::kCas) {
      if (!e.ok) record_cas_failure(e.key);
      return;
    }
    if (!e.at_point()) return;
    switch (e.point()) {
      case HookPoint::kAfterSearch:
        record_attempt(e.key);
        break;
      case HookPoint::kBeforeHelp:
        record_help(e.key);
        break;
      case HookPoint::kInsertRetry:
      case HookPoint::kDeleteRetry:
        record_retry(e.key);
        break;
      default:
        break;
    }
  }

  /// Events that carried no attributable key (kNoKey / out-of-range).
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Relaxed snapshot, one HeatBucket per range bucket. Safe against
  /// concurrent recording (each counter is read atomically; the set is a
  /// consistent-enough picture of a moving target).
  std::vector<HeatBucket> snapshot() const {
    std::vector<HeatBucket> out(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i].value;
      out[i].attempts = c.attempts.load(std::memory_order_relaxed);
      out[i].cas_failures = c.cas_failures.load(std::memory_order_relaxed);
      out[i].helps = c.helps.load(std::memory_order_relaxed);
      out[i].retries = c.retries.load(std::memory_order_relaxed);
    }
    return out;
  }

  void clear() noexcept {
    for (auto& padded : cells_) {
      padded.value.attempts.store(0, std::memory_order_relaxed);
      padded.value.cas_failures.store(0, std::memory_order_relaxed);
      padded.value.helps.store(0, std::memory_order_relaxed);
      padded.value.retries.store(0, std::memory_order_relaxed);
    }
    dropped_.store(0, std::memory_order_relaxed);
  }

  /// Width-normalized ASCII strip: intensity is linear in each bucket's
  /// contended() rate *per key* (count / bucket_width), so a uniform stream
  /// over a range that does not divide evenly still renders flat — the raw
  /// count in a half-width final bucket is half everyone else's, but its
  /// per-key rate is identical. Zero-width (dead) buckets render blank.
  std::string strip(const std::vector<HeatBucket>& buckets) const {
    static constexpr char kRamp[] = " .:-=+*#%@";
    static constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // max index
    const std::size_t n =
        buckets.size() < cells_.size() ? buckets.size() : cells_.size();
    double peak = 0.0;
    std::vector<double> rates(buckets.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w = bucket_width(i);
      if (w == 0) continue;
      rates[i] = static_cast<double>(buckets[i].contended()) /
                 static_cast<double>(w);
      if (rates[i] > peak) peak = rates[i];
    }
    std::string out;
    out.reserve(buckets.size());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      std::size_t level = 0;
      if (peak > 0.0 && rates[i] > 0.0) {
        level = static_cast<std::size_t>(
            (rates[i] * static_cast<double>(kLevels) + peak - rates[i]) /
            peak);  // ceil(rate * kLevels / peak) without leaving zero blank
        if (level == 0) level = 1;
      }
      out += kRamp[level > kLevels ? kLevels : level];
    }
    return out;
  }

  /// Convenience: snapshot-and-render in one call.
  std::string strip() const { return strip(snapshot()); }

  /// One-line ASCII intensity strip over raw contended() counts, with no
  /// width normalization — only correct when every bucket covers the same
  /// number of keys (synthetic snapshots in tests). Live heatmaps should use
  /// strip(), which accounts for the rounded-up final/dead buckets.
  static std::string ascii_strip(const std::vector<HeatBucket>& buckets) {
    static constexpr char kRamp[] = " .:-=+*#%@";
    static constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // max index
    std::uint64_t peak = 0;
    for (const HeatBucket& b : buckets) {
      peak = b.contended() > peak ? b.contended() : peak;
    }
    std::string out;
    out.reserve(buckets.size());
    for (const HeatBucket& b : buckets) {
      const std::size_t level =
          peak == 0 ? 0
                    : static_cast<std::size_t>((b.contended() * kLevels +
                                                peak - 1) /
                                               peak);
      out += kRamp[level > kLevels ? kLevels : level];
    }
    return out;
  }

 private:
  void bump(std::uint64_t key,
            std::atomic<std::uint64_t> Cell::* field) noexcept {
    const std::size_t i = bucket_of(key);
    if (i >= cells_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    (cells_[i].value.*field).fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t range_;
  std::vector<CachePadded<Cell>> cells_;
  std::uint64_t width_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace efrb::obs
