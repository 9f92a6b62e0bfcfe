// Scoped per-phase cost attribution for tree operations.
//
// A PhaseProfiler partitions each operation's measured time across the
// efrb::Phase buckets (descent, cas_protocol, helping, rebalance_cleanup,
// reclamation, and pool_alloc: node/record allocation (operator new)) by
// driving a tiny per-thread state machine off the event stream
// (core/debug_hooks.hpp), which on_event() routes to:
//
//   op_begin/op_end   — called by the workload runner around every operation;
//                       they open/close the attribution window.
//   on_point(HookPoint) — the protocol's pause points. kAfterSearch closes
//                       the descent segment, kBeforeHelp/kAfterHelp bracket
//                       helping (nested helps stay "helping"), the retry
//                       points reset to descent for the re-descent, and
//                       kBeforeRebalance opens chromatic cleanup.
//   phase(enter,...)  — phase events (hooks::PhaseScope) emitted by the
//                       protocol around allocation and retirement clusters,
//                       the two phases the HookPoint stream cannot infer.
//
// Every attributed segment is a [mark, now) interval on the cycle_stamp()
// clock, segments tile the op window exactly, and attribution only happens
// inside a window — so the invariant `sum(phase cycles) <= total in-op
// cycles` holds by construction (events outside a window are counted but not
// attributed). Hardware counters (obs/perfctr.hpp), when the host grants
// them, ride alongside as per-run totals folded in by each worker thread.
//
// Concurrency: accumulators are cache-padded per-thread cells of relaxed
// atomics — each cell has exactly one writer (the owning thread); snapshot()
// and the live gauge helpers read them concurrently. The transient
// state-machine fields are plain (owner-only).
//
// The uninstrumented hot loop is untouched: a Traits without an event sink
// folds every emission away (see debug_hooks.hpp), and the runner only
// brackets ops when a profiler is attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "../core/debug_hooks.hpp"
#include "../util/cacheline.hpp"
#include "perfctr.hpp"

namespace efrb::obs {

/// Immutable result of PhaseProfiler::snapshot(): totals plus per-phase
/// attribution, with derived-rate helpers that return whether the rate is
/// defined (absent counters must render as absent, never zero).
struct ProfileSnapshot {
  bool available = false;      // hardware cycles were collected
  bool sw_available = false;   // software task-clock was collected
  std::string source;          // cycle_stamp() clock name ("tsc", ...)
  std::string unavailable_reason;  // why !available ("" when available)
  int paranoid = -100;         // perf_event_paranoid at snapshot time

  std::uint64_t ops = 0;             // completed operations
  std::uint64_t cycles = 0;          // total in-op cycles (cycle_stamp units)
  std::uint64_t span_cycles = 0;     // wall window since profiler start/reset
  std::uint64_t events_outside_op = 0;  // hook events with no open window
  std::uint64_t dropped = 0;         // events with out-of-range tid

  struct PhaseSnap {
    std::uint64_t cycles = 0;  // attributed cycle_stamp ticks
    std::uint64_t enters = 0;  // segment openings
  };
  PhaseSnap phases[kNumPhases] = {};

  unsigned hw_threads = 0;  // worker threads that contributed hw counts
  PerfCounts hw;            // summed per-thread counter reads

  std::uint64_t phase_cycles_sum() const noexcept {
    std::uint64_t s = 0;
    for (const auto& p : phases) s += p.cycles;
    return s;
  }
  double cycles_per_op() const noexcept {
    return ops == 0 ? 0.0 : static_cast<double>(cycles) / static_cast<double>(ops);
  }
  double phase_share(std::size_t i) const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(phases[i].cycles) /
                             static_cast<double>(cycles);
  }
  // Hardware-derived rates: each returns false (rate undefined) when the
  // counters backing it were not collected.
  bool hw_cycles_per_op(double* out) const noexcept {
    if (!hw.cycles_ok || ops == 0) return false;
    *out = static_cast<double>(hw.cycles) / static_cast<double>(ops);
    return true;
  }
  bool ipc(double* out) const noexcept {
    if (!hw.cycles_ok || !hw.instructions_ok || hw.cycles == 0) return false;
    *out = static_cast<double>(hw.instructions) /
           static_cast<double>(hw.cycles);
    return true;
  }
  bool cache_miss_rate(double* out) const noexcept {
    if (!hw.cache_references_ok || !hw.cache_misses_ok ||
        hw.cache_references == 0) {
      return false;
    }
    *out = static_cast<double>(hw.cache_misses) /
           static_cast<double>(hw.cache_references);
    return true;
  }
  bool branch_miss_per_kinstr(double* out) const noexcept {
    if (!hw.branch_misses_ok || !hw.instructions_ok || hw.instructions == 0) {
      return false;
    }
    *out = 1000.0 * static_cast<double>(hw.branch_misses) /
           static_cast<double>(hw.instructions);
    return true;
  }
  bool multiplex_scale(double* out) const noexcept {
    if (!hw.cycles_ok || hw.time_running_ns == 0) return false;
    *out = static_cast<double>(hw.time_enabled_ns) /
           static_cast<double>(hw.time_running_ns);
    return true;
  }
  /// Per-phase hardware-cycle estimate: total hw cycles scaled by the
  /// phase's tick share. Defined only when hw cycles were collected.
  bool phase_cycles_est(std::size_t i, double* out) const noexcept {
    if (!hw.cycles_ok || cycles == 0) return false;
    *out = static_cast<double>(hw.cycles) * phase_share(i);
    return true;
  }
};

/// The profiler. One instance serves every worker thread of a run; thread
/// identity is the same per-handle tid the other obs sinks key on (bounded
/// by kMaxTids = ShardPool::kMaxHandles).
class PhaseProfiler {
 public:
  static constexpr unsigned kMaxTids = 128;
  static constexpr int kMaxScopeDepth = 8;

  PhaseProfiler() : start_(cycle_stamp()) {}

  /// Zero all accumulators and restart the span clock (e.g. after prefill).
  void reset() noexcept {
    for (auto& padded : threads_) {
      ThreadState& t = padded.value;
      t.ops.store(0, std::memory_order_relaxed);
      t.in_op_cycles.store(0, std::memory_order_relaxed);
      for (std::size_t i = 0; i < kNumPhases; ++i) {
        t.phase_cycles[i].store(0, std::memory_order_relaxed);
        t.phase_enters[i].store(0, std::memory_order_relaxed);
      }
      t.outside.store(0, std::memory_order_relaxed);
      t.in_op = false;
      t.help_depth = 0;
      t.scope_depth = 0;
    }
    dropped_.store(0, std::memory_order_relaxed);
    start_ = cycle_stamp();
  }

  // -- owner-thread entry points --------------------------------------------

  void op_begin(unsigned tid) noexcept {
    ThreadState* t = slot(tid);
    if (t == nullptr) return;
    const std::uint64_t now = cycle_stamp();
    t->in_op = true;
    t->op_start = now;
    t->mark = now;
    t->cur = Phase::kDescent;
    t->help_depth = 0;
    t->scope_depth = 0;
    bump(t->phase_enters[idx(Phase::kDescent)]);
  }

  void op_end(unsigned tid) noexcept {
    ThreadState* t = slot(tid);
    if (t == nullptr || !t->in_op) return;
    const std::uint64_t now = cycle_stamp();
    credit(*t, now);
    add(t->in_op_cycles, now - t->op_start);
    bump(t->ops);
    t->in_op = false;
  }

  /// The event sink: point and help events drive on_point(), phase edges
  /// phase().
  void on_event(const Event& e) noexcept {
    if (e.at_point()) {
      on_point(e.point(), e.tid);
    } else if (e.kind != EventKind::kCas) {
      phase(e.kind == EventKind::kPhaseEnter, e.phase(), e.tid);
    }
  }

  void on_point(HookPoint p, unsigned tid) noexcept {
    ThreadState* t = slot(tid);
    if (t == nullptr) return;
    if (!t->in_op) {
      bump(t->outside);
      return;
    }
    credit(*t, cycle_stamp());
    switch (p) {
      case HookPoint::kAfterSearch:
        // The segment just credited was the descent; the op's own protocol
        // steps follow.
        transition(*t, Phase::kCasProtocol);
        break;
      case HookPoint::kBeforeHelp:
        if (t->help_depth == 0) t->resume = t->cur;
        ++t->help_depth;
        transition(*t, Phase::kHelping);
        break;
      case HookPoint::kAfterHelp:
        if (t->help_depth > 0 && --t->help_depth == 0) {
          transition(*t, t->resume);
        }
        break;
      case HookPoint::kInsertRetry:
      case HookPoint::kDeleteRetry:
      case HookPoint::kScxRetry:
        // The attempt failed; what follows is the re-descent.
        transition(*t, Phase::kDescent);
        break;
      case HookPoint::kBeforeRebalance:
        transition(*t, Phase::kRebalanceCleanup);
        break;
      default:
        break;  // segment credited to the current phase; no transition
    }
  }

  void phase(bool enter, Phase ph, unsigned tid) noexcept {
    ThreadState* t = slot(tid);
    if (t == nullptr) return;
    if (!t->in_op) {
      bump(t->outside);
      return;
    }
    if (enter) {
      if (t->scope_depth >= kMaxScopeDepth) return;  // saturate: no transition
      credit(*t, cycle_stamp());
      t->scopes[t->scope_depth++] = t->cur;
      transition(*t, ph);
    } else {
      if (t->scope_depth == 0) return;  // unmatched exit (saturated enter)
      credit(*t, cycle_stamp());
      transition_quiet(*t, t->scopes[--t->scope_depth]);
    }
  }

  /// Fold one worker thread's end-of-run counter read into the run totals.
  /// Called once per thread after its measured loop; mutex-serialized.
  void add_hw(const PerfCounts& counts, const std::string& reason) {
    std::lock_guard<std::mutex> lock(hw_mu_);
    hw_.accumulate(counts);
    if (counts.hw_ok) ++hw_threads_;
    if (!counts.hw_ok && hw_reason_.empty() && !reason.empty()) {
      hw_reason_ = reason;
    }
  }

  // -- readers (any thread) -------------------------------------------------

  ProfileSnapshot snapshot() const {
    ProfileSnapshot s;
    s.source = cycle_source();
    s.paranoid = perf_event_paranoid();
    for (const auto& padded : threads_) {
      const ThreadState& t = padded.value;
      s.ops += t.ops.load(std::memory_order_relaxed);
      s.cycles += t.in_op_cycles.load(std::memory_order_relaxed);
      s.events_outside_op += t.outside.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < kNumPhases; ++i) {
        s.phases[i].cycles += t.phase_cycles[i].load(std::memory_order_relaxed);
        s.phases[i].enters += t.phase_enters[i].load(std::memory_order_relaxed);
      }
    }
    s.dropped = dropped_.load(std::memory_order_relaxed);
    s.span_cycles = cycle_stamp() - start_;
    {
      std::lock_guard<std::mutex> lock(hw_mu_);
      s.hw = hw_;
      s.hw_threads = hw_threads_;
      s.available = hw_.cycles_ok;
      s.sw_available = hw_.task_clock_ok;
      s.unavailable_reason = s.available ? std::string{} : hw_reason_;
    }
    if (!s.available && s.unavailable_reason.empty()) {
      // No thread reported a reason (e.g. snapshot taken mid-run, or the
      // runner never attached counters): re-probe for an explanation.
      PerfAvailability avail = probe_perf_availability();
      if (!avail.hw) s.unavailable_reason = avail.reason;
    }
    return s;
  }

  /// Cheap live totals for poller gauges / flight-recorder mirrors.
  std::uint64_t live_ops() const noexcept {
    std::uint64_t n = 0;
    for (const auto& padded : threads_)
      n += padded.value.ops.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t live_cycles() const noexcept {
    std::uint64_t n = 0;
    for (const auto& padded : threads_)
      n += padded.value.in_op_cycles.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t live_phase_cycles(Phase ph) const noexcept {
    std::uint64_t n = 0;
    for (const auto& padded : threads_)
      n += padded.value.phase_cycles[idx(ph)].load(std::memory_order_relaxed);
    return n;
  }

 private:
  struct ThreadState {
    // Accumulators: single-writer relaxed atomics, read by snapshots.
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> in_op_cycles{0};
    std::atomic<std::uint64_t> phase_cycles[kNumPhases] = {};
    std::atomic<std::uint64_t> phase_enters[kNumPhases] = {};
    std::atomic<std::uint64_t> outside{0};
    // Transient state machine: owner-thread only, never read concurrently.
    bool in_op = false;
    std::uint64_t op_start = 0;
    std::uint64_t mark = 0;
    Phase cur = Phase::kDescent;
    Phase resume = Phase::kCasProtocol;  // phase to restore after helping
    int help_depth = 0;
    Phase scopes[kMaxScopeDepth] = {};
    int scope_depth = 0;
  };

  static constexpr std::size_t idx(Phase p) noexcept {
    return static_cast<std::size_t>(p);
  }
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t d) noexcept {
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }

  ThreadState* slot(unsigned tid) noexcept {
    if (tid >= kMaxTids) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    return &threads_[tid].value;
  }

  /// Credit [mark, now) to the current phase and advance the mark.
  static void credit(ThreadState& t, std::uint64_t now) noexcept {
    if (now > t.mark) add(t.phase_cycles[idx(t.cur)], now - t.mark);
    t.mark = now;
  }
  static void transition(ThreadState& t, Phase next) noexcept {
    t.cur = next;
    bump(t.phase_enters[idx(next)]);
  }
  /// Transition without counting an enter (scope exits resume, not re-enter).
  static void transition_quiet(ThreadState& t, Phase next) noexcept {
    t.cur = next;
  }

  CachePadded<ThreadState> threads_[kMaxTids];
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t start_;

  mutable std::mutex hw_mu_;
  PerfCounts hw_;
  unsigned hw_threads_ = 0;
  std::string hw_reason_;
};

}  // namespace efrb::obs
