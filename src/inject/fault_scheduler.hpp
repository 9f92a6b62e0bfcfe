// FaultScheduler: executes a FaultPlan against the event seam of
// core/debug_hooks.hpp.
//
// The scheduler is the runtime half of the fault-injection layer. Threads
// participating in a plan register a *plan thread id* with a scoped
// ThreadScope; the tree is instantiated with InjectTraits, whose hooks route
// every CAS gate and pause point of the registered threads into the active
// scheduler. The scheduler matches each visit against the plan's actions and
//
//   * vetoes the CAS (kFailCas) — the call site then behaves exactly as if
//     the CAS lost its race;
//   * parks the thread on a condvar gate (kStall) until the controlling
//     thread calls release() — while parked the thread keeps whatever it
//     holds (flags CASed, reclaimer pins), which is the whole point: it lets
//     tests hold the protocol open at any step and the reclaimers starved;
//   * spins or yields (kDelay / kYieldBurst) to perturb timing without
//     blocking.
//
// Identity model: the plan-tid registered via ThreadScope is authoritative
// for matching — it is assigned by the test, deterministic, and present even
// on code paths with no structure handle. The handle tid carried by the hook
// emission is recorded in the fired-event trace for cross-checking the two
// identity domains. Threads with no ThreadScope (helpers the test did not
// script, gtest's main thread) pass through every hook untouched.
//
// Everything observable — hit counts, fired events, stalled flags — is
// guarded by one mutex; hooks fire on protocol slow paths (CAS boundaries,
// retry loops), so the lock is not on any measured fast path. Determinism of
// a (seeded workload, plan) pair comes from matching on per-(tid, site) visit
// ordinals, which are schedule-independent per thread.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/debug_hooks.hpp"
#include "inject/fault_plan.hpp"
#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/errors.hpp"

namespace efrb::inject {

class FaultScheduler {
 public:
  /// Hard cap on distinct plan thread ids (state is preallocated so that no
  /// reference is invalidated while a stalled thread waits on the condvar).
  static constexpr unsigned kMaxTids = 64;

  /// One matched action firing, for traces and assertions.
  struct FiredEvent {
    FaultKind kind;
    unsigned tid;         // plan tid
    unsigned handle_tid;  // structure-handle tid seen at the hook (may be
                          // kNoTid on tree-level paths)
    int step;             // CasStep index or -1
    int point;            // HookPoint index or -1
    unsigned occurrence;  // the visit ordinal that matched
  };

  explicit FaultScheduler(FaultPlan plan) : plan_(std::move(plan)) {
    if (!plan_.valid()) {
      throw std::invalid_argument("FaultScheduler: malformed FaultPlan");
    }
    if (!plan_.safe() && !plan_.allow_unsafe) {
      throw std::invalid_argument(
          "FaultScheduler: plan force-fails a helping step (ichild/iunflag/"
          "dchild/dunflag) without allow_unsafe — this corrupts the tree");
    }
    state_.resize(kMaxTids);
  }

  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  ~FaultScheduler() { release_all(); }

  // --- thread registration ---------------------------------------------

  /// RAII registration of the calling thread as plan thread `tid` on
  /// scheduler `s`. Nestable (the previous binding is restored on exit) so a
  /// test body can temporarily run scripted sections. The binding is
  /// thread_local: it is the single source of identity for plan matching.
  class ThreadScope {
   public:
    ThreadScope(FaultScheduler& s, unsigned tid) noexcept
        : prev_sched_(tl_sched_), prev_tid_(tl_tid_) {
      EFRB_ASSERT_MSG(tid < kMaxTids, "plan tid out of range");
      tl_sched_ = &s;
      tl_tid_ = tid;
    }
    ~ThreadScope() {
      tl_sched_ = prev_sched_;
      tl_tid_ = prev_tid_;
    }
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    FaultScheduler* prev_sched_;
    unsigned prev_tid_;
  };

  static FaultScheduler* current() noexcept { return tl_sched_; }
  static unsigned current_tid() noexcept { return tl_tid_; }

  // --- hook entry points (called via InjectTraits) ----------------------

  /// allow_cas gate: returns false to veto. Counts the visit, fires any
  /// matching actions (a stall here parks the thread *before* the CAS).
  bool allow(CasStep s, unsigned handle_tid) {
    const unsigned tid = tl_tid_;
    const int site = static_cast<int>(s);
    std::unique_lock<std::mutex> lock(mu_);
    ThreadState& ts = state_[tid];
    const unsigned hit = ++ts.step_hits[static_cast<std::size_t>(site)];
    bool vetoed = false;
    // An open forced-failure window (count > 1) continues to veto.
    if (ts.forced_step == site && ts.forced_remaining > 0) {
      --ts.forced_remaining;
      vetoed = true;
    }
    Pending pending{};
    for (const FaultAction& a : plan_.actions) {
      if (a.tid != tid || a.step != site || a.occurrence != hit) continue;
      fired_.push_back({a.kind, tid, handle_tid, site, -1, hit});
      switch (a.kind) {
        case FaultKind::kFailCas:
          vetoed = true;
          if (a.count > 1) {
            ts.forced_step = site;
            ts.forced_remaining = a.count - 1;
          }
          break;
        case FaultKind::kStall:
          stall_here(lock, ts);
          break;
        case FaultKind::kDelay:
          pending.delay += a.count;
          break;
        case FaultKind::kYieldBurst:
          pending.yields += a.count;
          break;
      }
    }
    lock.unlock();
    run_pending(pending);
    return !vetoed;
  }

  /// at() emission: counts the visit and fires matching point actions.
  void on_point(HookPoint p, unsigned handle_tid) {
    const unsigned tid = tl_tid_;
    const int site = static_cast<int>(p);
    std::unique_lock<std::mutex> lock(mu_);
    ThreadState& ts = state_[tid];
    const unsigned hit = ++ts.point_hits[static_cast<std::size_t>(site)];
    Pending pending{};
    for (const FaultAction& a : plan_.actions) {
      if (a.tid != tid || a.point != site || a.occurrence != hit) continue;
      fired_.push_back({a.kind, tid, handle_tid, -1, site, hit});
      switch (a.kind) {
        case FaultKind::kFailCas:
          break;  // unreachable: valid() requires a step site for kFailCas
        case FaultKind::kStall:
          stall_here(lock, ts);
          break;
        case FaultKind::kDelay:
          pending.delay += a.count;
          break;
        case FaultKind::kYieldBurst:
          pending.yields += a.count;
          break;
      }
    }
    lock.unlock();
    run_pending(pending);
  }

  /// CAS event trace: records outcomes per (tid, step) for assertions.
  void observe_cas(CasStep s, bool ok, unsigned /*handle_tid*/) {
    const std::lock_guard<std::mutex> lock(mu_);
    ThreadState& ts = state_[tl_tid_];
    const auto i = static_cast<std::size_t>(s);
    ++ts.cas_outcomes[i][ok ? 1 : 0];
  }

  // --- controller interface --------------------------------------------

  /// Blocks until plan thread `tid` is parked at a stall gate (or the
  /// timeout elapses). Returns true if the thread is stalled.
  bool wait_until_stalled(
      unsigned tid,
      std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    check_tid(tid);
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout,
                        [&] { return state_[tid].stalled; });
  }

  /// Releases plan thread `tid` from its current (or next) stall gate.
  void release(unsigned tid) {
    check_tid(tid);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++state_[tid].release_tokens;
    }
    cv_.notify_all();
  }

  /// Releases every currently-stalled thread and puts the scheduler in
  /// draining mode: from here on every stall gate passes through without
  /// parking. Used on teardown (and from the destructor) so a failing test
  /// cannot leave worker threads parked forever — including a worker that
  /// reaches its gate only *after* this call, which a token-only sweep of
  /// the currently-stalled set would miss.
  void release_all() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;
      for (ThreadState& ts : state_) {
        if (ts.stalled) ++ts.release_tokens;
      }
    }
    cv_.notify_all();
  }

  bool is_stalled(unsigned tid) {
    check_tid(tid);
    const std::lock_guard<std::mutex> lock(mu_);
    return state_[tid].stalled;
  }

  std::size_t stalled_count() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const ThreadState& ts : state_) n += ts.stalled ? 1 : 0;
    return n;
  }

  /// Snapshot of every action firing so far, in firing order.
  std::vector<FiredEvent> fired() {
    const std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }

  /// Visit count of (tid, step) at the allow_cas gate.
  unsigned step_hits(unsigned tid, CasStep s) {
    check_tid(tid);
    const std::lock_guard<std::mutex> lock(mu_);
    return state_[tid].step_hits[static_cast<std::size_t>(s)];
  }

  /// Visit count of (tid, point) at the at() emission.
  unsigned point_hits(unsigned tid, HookPoint p) {
    check_tid(tid);
    const std::lock_guard<std::mutex> lock(mu_);
    return state_[tid].point_hits[static_cast<std::size_t>(p)];
  }

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  struct ThreadState {
    std::array<unsigned, kNumCasSteps> step_hits{};
    std::array<unsigned, kNumHookPoints> point_hits{};
    // [step][0] = failed, [step][1] = succeeded (post-gate outcomes).
    std::array<std::array<unsigned, 2>, kNumCasSteps> cas_outcomes{};
    int forced_step = -1;
    unsigned forced_remaining = 0;
    bool stalled = false;
    unsigned release_tokens = 0;  // pending release() calls (may arrive early)
  };

  /// Controller-facing tid validation. Throws (rather than EFRB_ASSERT) so a
  /// test driving a generated plan gets a catchable error, consistent with
  /// the constructor's invalid_argument contract; state_ has exactly
  /// kMaxTids entries, so an unchecked index would read out of bounds.
  static void check_tid(unsigned tid) {
    if (tid >= kMaxTids) {
      throw std::out_of_range("FaultScheduler: plan tid out of range");
    }
  }

  /// Deferred non-blocking perturbations, executed after the lock drops.
  struct Pending {
    unsigned delay = 0;
    unsigned yields = 0;
  };

  static void run_pending(const Pending& p) {
    for (unsigned i = 0; i < p.delay; ++i) cpu_relax();
    for (unsigned i = 0; i < p.yields; ++i) std::this_thread::yield();
  }

  /// Parks the calling thread on the gate. Caller holds `lock`; a release()
  /// issued before the thread reaches the gate is consumed immediately
  /// (tokens, not flags, so controller/worker ordering cannot deadlock).
  /// In draining mode (release_all ran, possibly from the destructor) the
  /// gate is a no-op: a thread arriving after the release sweep must not
  /// park, or it would wait forever on a condvar about to be destroyed.
  void stall_here(std::unique_lock<std::mutex>& lock, ThreadState& ts) {
    if (draining_) return;
    ts.stalled = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return ts.release_tokens > 0 || draining_; });
    if (ts.release_tokens > 0) --ts.release_tokens;
    ts.stalled = false;
    cv_.notify_all();
  }

  static inline thread_local FaultScheduler* tl_sched_ = nullptr;
  static inline thread_local unsigned tl_tid_ = 0;

  FaultPlan plan_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ThreadState> state_;
  std::vector<FiredEvent> fired_;
  bool draining_ = false;  // guarded by mu_; set once by release_all()
};

/// Tree traits routing hooks into the thread's current FaultScheduler (set by
/// a FaultScheduler::ThreadScope). Unregistered threads — and all threads
/// when no scheduler is bound — see no-op hooks and a permissive gate, so a
/// tree instantiated with InjectTraits behaves normally outside scripted
/// sections. Stats stay on: fault tests assert on the per-step counters.
struct InjectTraits : NoopTraits {
  static constexpr bool kCountStats = true;

  static void on_event(const Event& e) {
    FaultScheduler* sched = FaultScheduler::current();
    if (sched == nullptr) return;
    if (e.kind == EventKind::kCas) {
      sched->observe_cas(e.step(), e.ok, e.tid);
    } else if (e.at_point()) {
      sched->on_point(e.point(), e.tid);
    }
  }
  static bool allow_cas(CasStep s, const void* /*node*/, unsigned tid) {
    if (FaultScheduler* sched = FaultScheduler::current()) {
      return sched->allow(s, tid);
    }
    return true;
  }
};

/// §6 Search variant under injection (for the helping-search op mix).
struct InjectHelpingSearchTraits : InjectTraits {
  static constexpr bool kSearchHelpsMarked = true;
};

}  // namespace efrb::inject
