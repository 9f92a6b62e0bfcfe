// Help-chain attribution: who completed whose operation.
//
// The EFRB protocol is non-blocking because any thread that trips over an
// in-flight operation *helps* it to completion. That is great for progress
// and terrible for attribution: the thread that finishes an operation is
// often not the thread that started it, so per-thread latency numbers and
// traces silently charge work to the wrong actor. This header closes that
// gap.
//
// Mechanism: when Traits::kCausalTrace is enabled, every Info / ScxRecord is
// stamped at creation with its owner word — pack_owner(tid, op_seq), written
// before the publishing CAS so the release/acquire pair on the descriptor
// pointer also publishes the stamp (see core/layout.hpp). The help paths in
// core/protocol.hpp and core/llx_scx.hpp read the stamp and carry it in the
// `owner` field of their kHelp events (core/debug_hooks.hpp), which land
// here through CausalRegistry::on_event.
//
// CausalRegistry records three things per help event:
//   * the helper x owner matrix cell helped_by[helper][owner_tid] (relaxed
//     counters — each helper writes only its own row, readers tolerate
//     slightly stale sums),
//   * helps_given / helps_received totals per tid (helps_received is the
//     word the workload runner samples around each op to split latency into
//     self-completed vs helper-completed),
//   * a bounded per-helper edge ring {ts_ns, owner} feeding Chrome flow
//     events ("s" on the helper's timeline, "f" bound into the owner's
//     enclosing op span) so chrome://tracing draws an arrow from the helping
//     span to the stalled operation it completed.
//
// obs::ObsTraits (obs/instruments.hpp) turns kCausalTrace on and feeds an
// attached CausalRegistry; an attached TraceRegistry records the same owner
// stamp as a kHelpOwner companion slot after each help entry, for the
// postmortem decoder.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/debug_hooks.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/cacheline.hpp"

namespace efrb::obs {

/// One helper -> owner edge, as retained by the per-helper edge ring.
struct HelpEdge {
  std::uint64_t ts_ns;  // registry-epoch time the help dispatch began
  std::uint64_t owner;  // packed owner word (pack_owner) of the helped op
};

/// Bounded single-writer ring of help edges. Same discipline as TraceRing:
/// storage fixed at construction, push is relaxed stores plus a release head
/// increment, oldest edges are overwritten. An edge spans two words, so a
/// reader racing a wraparound could pair a new ts with an old owner; exports
/// run at quiescence (workers joined) where the snapshot is exact, and a
/// torn live edge only mislabels one arrow, never corrupts memory.
class HelpEdgeRing {
 public:
  explicit HelpEdgeRing(std::size_t capacity = 1024)
      : ts_(capacity == 0 ? 1 : capacity), owner_(ts_.size()) {}

  HelpEdgeRing(HelpEdgeRing&& other) noexcept
      : ts_(std::move(other.ts_)),
        owner_(std::move(other.owner_)),
        head_(other.head_.load(std::memory_order_relaxed)) {}
  HelpEdgeRing& operator=(HelpEdgeRing&&) = delete;

  void push(std::uint64_t ts_ns, std::uint64_t owner) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::size_t i = static_cast<std::size_t>(h % ts_.size());
    ts_[i].store(ts_ns, std::memory_order_relaxed);
    owner_[i].store(owner, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Retained edges, oldest first (quiescent snapshot).
  std::vector<HelpEdge> snapshot() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t n =
        head < ts_.size() ? head : static_cast<std::uint64_t>(ts_.size());
    std::vector<HelpEdge> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head - n; i < head; ++i) {
      const std::size_t s = static_cast<std::size_t>(i % ts_.size());
      out.push_back({ts_[s].load(std::memory_order_relaxed),
                     owner_[s].load(std::memory_order_relaxed)});
    }
    return out;
  }

 private:
  std::vector<std::atomic<std::uint64_t>> ts_;
  std::vector<std::atomic<std::uint64_t>> owner_;
  std::atomic<std::uint64_t> head_{0};
};

class CausalRegistry {
 public:
  /// `clock` (optional) shares a TraceRegistry's epoch so flow-event
  /// timestamps line up with the trace's span timestamps; without it the
  /// registry runs its own epoch from construction.
  explicit CausalRegistry(std::size_t max_tids = 64,
                          const TraceRegistry* clock = nullptr,
                          std::size_t edge_ring_capacity = 1024)
      : clock_(clock), t0_(std::chrono::steady_clock::now()) {
    rows_.reserve(max_tids);
    edges_.reserve(max_tids);
    for (std::size_t i = 0; i < max_tids; ++i) {
      rows_.emplace_back(max_tids);
      edges_.emplace_back(edge_ring_capacity);
    }
  }

  std::size_t max_tids() const noexcept { return rows_.size(); }

  std::uint64_t now_ns() const noexcept {
    if (clock_ != nullptr) return clock_->now_ns();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  /// Records one help dispatch: `helper` (the thread entering help_scx /
  /// help()) completed work owned by `owner` (the packed stamp read off the
  /// descriptor). Owner-less events (descriptor created by an uninstrumented
  /// path, or a tree-level convenience call) are counted and dropped.
  void record_help(unsigned helper, std::uint64_t owner) noexcept {
    if (owner == kNoOwner || helper == kNoTid || helper >= rows_.size() ||
        owner_tid(owner) >= rows_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const unsigned ot = owner_tid(owner);
    Row& row = rows_[helper].value;
    row.helped_by[ot].fetch_add(1, std::memory_order_relaxed);
    row.helps_given.fetch_add(1, std::memory_order_relaxed);
    // The owner's received counter has many writers (any helper) — still a
    // relaxed fetch_add; the runner only ever diffs it on the owner thread.
    rows_[ot].value.helps_received.fetch_add(1, std::memory_order_relaxed);
    edges_[helper].value.push(now_ns(), owner);
  }

  /// The event sink: each help entry is one record_help.
  void on_event(const Event& e) noexcept {
    if (e.help_entry()) record_help(e.tid, e.owner);
  }

  std::uint64_t helped_by(unsigned helper, unsigned owner) const noexcept {
    if (helper >= rows_.size() || owner >= rows_.size()) return 0;
    return rows_[helper].value.helped_by[owner].load(std::memory_order_relaxed);
  }

  std::uint64_t helps_given(unsigned tid) const noexcept {
    if (tid >= rows_.size()) return 0;
    return rows_[tid].value.helps_given.load(std::memory_order_relaxed);
  }

  std::uint64_t helps_received(unsigned tid) const noexcept {
    if (tid >= rows_.size()) return 0;
    return rows_[tid].value.helps_received.load(std::memory_order_relaxed);
  }

  std::uint64_t total_helps() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t t = 0; t < rows_.size(); ++t) {
      n += helps_given(static_cast<unsigned>(t));
    }
    return n;
  }

  std::uint64_t dropped_unattributed() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::vector<HelpEdge> edges(unsigned tid) const {
    return tid < edges_.size() ? edges_[tid].value.snapshot()
                               : std::vector<HelpEdge>{};
  }

  /// The metrics-schema v3 "causality" cell body (the caller opens/closes the
  /// surrounding key). Rows with no activity are elided so a 64-tid registry
  /// with two busy threads stays a two-row matrix.
  void append_json(JsonWriter& w) const {
    w.begin_object();
    w.key("total_helps").value(total_helps());
    w.key("dropped_unattributed").value(dropped_unattributed());
    w.key("helped_by").begin_object();
    for (std::size_t h = 0; h < rows_.size(); ++h) {
      const unsigned helper = static_cast<unsigned>(h);
      if (helps_given(helper) == 0) continue;
      w.key(std::to_string(helper)).begin_object();
      for (std::size_t o = 0; o < rows_.size(); ++o) {
        const std::uint64_t n = helped_by(helper, static_cast<unsigned>(o));
        if (n != 0) w.key(std::to_string(o)).value(n);
      }
      w.end_object();
    }
    w.end_object();
    w.key("helps_received").begin_object();
    for (std::size_t t = 0; t < rows_.size(); ++t) {
      const std::uint64_t n = helps_received(static_cast<unsigned>(t));
      if (n != 0) w.key(std::to_string(t)).value(n);
    }
    w.end_object();
    w.end_object();
  }

  /// Flow events only (caller is inside a traceEvents array): for each help
  /// edge, an "s" (flow start) on the helper's timeline at the instant the
  /// help dispatch began and an "f" with bp:"e" on the owner's timeline at
  /// the same instant, binding the arrow into the owner's enclosing op span.
  /// Each edge gets a distinct id so arrows never merge.
  void append_flow_events(JsonWriter& w) const {
    std::uint64_t id = 0;
    for (std::size_t h = 0; h < edges_.size(); ++h) {
      for (const HelpEdge& e : edges_[h].value.snapshot()) {
        const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
        const unsigned ot = owner_tid(e.owner);
        ++id;
        w.begin_object();
        w.key("name").value("help-flow");
        w.key("cat").value("help");
        w.key("ph").value("s");
        w.key("id").value(id);
        w.key("ts").value(ts_us);
        w.key("pid").value(0);
        w.key("tid").value(static_cast<unsigned>(h));
        w.end_object();
        w.begin_object();
        w.key("name").value("help-flow");
        w.key("cat").value("help");
        w.key("ph").value("f");
        w.key("bp").value("e");
        w.key("id").value(id);
        w.key("ts").value(ts_us);
        w.key("pid").value(0);
        w.key("tid").value(ot);
        w.end_object();
      }
    }
  }

  /// Full Chrome trace: every event from `tr` plus this registry's flow
  /// arrows, one JSON stream chrome://tracing loads directly. Share the
  /// clock (construct with `&tr`) or the arrows land at the wrong offsets.
  std::string chrome_trace_with_flows(const TraceRegistry& tr) const {
    JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").begin_array();
    for (std::size_t tid = 0; tid < tr.max_tids(); ++tid) {
      for (const TraceEvent& e : tr.snapshot(static_cast<unsigned>(tid))) {
        TraceRegistry::append_chrome_event(w, static_cast<unsigned>(tid), e);
      }
    }
    append_flow_events(w);
    w.end_array();
    w.end_object();
    return w.take();
  }

 private:
  struct Row {
    explicit Row(std::size_t max_tids) : helped_by(max_tids) {}
    Row(Row&& other) noexcept
        : helped_by(std::move(other.helped_by)),
          helps_given(other.helps_given.load(std::memory_order_relaxed)),
          helps_received(
              other.helps_received.load(std::memory_order_relaxed)) {}
    Row& operator=(Row&&) = delete;

    std::vector<std::atomic<std::uint64_t>> helped_by;  // indexed by owner
    std::atomic<std::uint64_t> helps_given{0};
    std::atomic<std::uint64_t> helps_received{0};
  };

  const TraceRegistry* clock_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<CachePadded<Row>> rows_;
  std::vector<CachePadded<HelpEdgeRing>> edges_;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace efrb::obs
