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
// attributed).
//
// The segment clock is wall time: a thread descheduled mid-operation keeps
// accruing ticks. add_thread_time() hands in one thread's CPU time
// (thread_cpu_ns()) and wall time across its measured loop, and snapshot()
// scales that thread's ticks by its on-CPU share r = min(1, cpu / wall),
// putting the rest into `preempted_cycles`. This assumes preemption lands
// on in-op and between-op time alike. A thread that handed in no times
// keeps r = 1. Reading the CPU clock per segment instead would cost a
// syscall per event, an order of magnitude above the TSC read.
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

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "../core/debug_hooks.hpp"
#include "../util/cacheline.hpp"

namespace efrb::obs {

/// Monotonic cycle-granularity timestamp that never fails: the TSC on
/// x86-64, the generic counter-timer on aarch64, steady_clock nanoseconds
/// elsewhere. This is the clock the phase profiler attributes with.
inline std::uint64_t cycle_stamp() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v = 0;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Name of the clock cycle_stamp() reads on this build; disclosed in the
/// metrics `profile` cell as `source` so cross-host consumers know what a
/// "cycle" is.
inline const char* cycle_source() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return "tsc";
#elif defined(__aarch64__)
  return "cntvct";
#else
  return "steady_clock_ns";
#endif
}

/// Nanoseconds the calling thread has spent on a CPU
/// (CLOCK_THREAD_CPUTIME_ID), or 0 where that clock does not exist. Time
/// the thread sat descheduled does not count.
inline std::uint64_t thread_cpu_ns() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

/// Immutable result of PhaseProfiler::snapshot(): totals plus per-phase
/// attribution. Every "cycles" figure is on-CPU time in cycle_stamp() ticks
/// (each thread's ticks scaled by its on-CPU share); `wall_cycles` is the
/// unscaled in-op total, and phase_cycles_sum() + preempted_cycles equals
/// it up to rounding.
struct ProfileSnapshot {
  std::string source;  // cycle_stamp() clock name ("tsc", ...)

  std::uint64_t ops = 0;               // completed operations
  std::uint64_t cycles = 0;            // on-CPU in-op cycles
  std::uint64_t wall_cycles = 0;       // in-op cycles, descheduled time too
  std::uint64_t preempted_cycles = 0;  // wall_cycles - cycles
  std::uint64_t span_cycles = 0;       // wall window since profiler start/reset
  std::uint64_t cpu_ns = 0;   // handed-in thread CPU time (add_thread_time)
  std::uint64_t wall_ns = 0;  // handed-in thread wall time
  std::uint64_t events_outside_op = 0;  // hook events with no open window
  std::uint64_t dropped = 0;            // events with out-of-range tid

  struct PhaseSnap {
    std::uint64_t cycles = 0;  // attributed on-CPU ticks
    std::uint64_t enters = 0;  // segment openings
  };
  PhaseSnap phases[kNumPhases] = {};

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
  /// Share of the in-op wall ticks the threads spent descheduled.
  double preempted_share() const noexcept {
    return wall_cycles == 0 ? 0.0
                            : static_cast<double>(preempted_cycles) /
                                  static_cast<double>(wall_cycles);
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
      t.cpu_ns.store(0, std::memory_order_relaxed);
      t.wall_ns.store(0, std::memory_order_relaxed);
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

  /// Hand in thread `tid`'s CPU time (thread_cpu_ns()) and wall time, in
  /// nanoseconds, across a window that encloses its op windows. Called by
  /// the owning thread, once per measured loop; repeated calls add up.
  void add_thread_time(unsigned tid, std::uint64_t cpu_ns,
                       std::uint64_t wall_ns) noexcept {
    ThreadState* t = slot(tid);
    if (t == nullptr) return;
    add(t->cpu_ns, cpu_ns);
    add(t->wall_ns, wall_ns);
  }

  // -- readers (any thread) -------------------------------------------------

  ProfileSnapshot snapshot() const {
    ProfileSnapshot s;
    s.source = cycle_source();
    for (const auto& padded : threads_) {
      const ThreadState& t = padded.value;
      const std::uint64_t cpu = t.cpu_ns.load(std::memory_order_relaxed);
      const std::uint64_t wall = t.wall_ns.load(std::memory_order_relaxed);
      // This thread's on-CPU share; 1 when it handed in no times.
      const double r = wall == 0 || cpu >= wall
                           ? 1.0
                           : static_cast<double>(cpu) / static_cast<double>(wall);
      const auto on_cpu = [r](std::uint64_t ticks) {
        return static_cast<std::uint64_t>(static_cast<double>(ticks) * r);
      };
      const std::uint64_t in_op = t.in_op_cycles.load(std::memory_order_relaxed);
      s.ops += t.ops.load(std::memory_order_relaxed);
      s.wall_cycles += in_op;
      s.cycles += on_cpu(in_op);
      s.cpu_ns += cpu;
      s.wall_ns += wall;
      s.events_outside_op += t.outside.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < kNumPhases; ++i) {
        s.phases[i].cycles +=
            on_cpu(t.phase_cycles[i].load(std::memory_order_relaxed));
        s.phases[i].enters += t.phase_enters[i].load(std::memory_order_relaxed);
      }
    }
    s.preempted_cycles = s.wall_cycles - s.cycles;
    s.dropped = dropped_.load(std::memory_order_relaxed);
    s.span_cycles = cycle_stamp() - start_;
    return s;
  }

  /// Cheap live totals for poller gauges / flight-recorder mirrors. The
  /// cycles are wall ticks: no thread time is scaled in until snapshot().
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

 private:
  struct ThreadState {
    // Accumulators: single-writer relaxed atomics, read by snapshots.
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> in_op_cycles{0};
    std::atomic<std::uint64_t> phase_cycles[kNumPhases] = {};
    std::atomic<std::uint64_t> phase_enters[kNumPhases] = {};
    std::atomic<std::uint64_t> outside{0};
    std::atomic<std::uint64_t> cpu_ns{0};   // add_thread_time totals
    std::atomic<std::uint64_t> wall_ns{0};
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
};

}  // namespace efrb::obs
