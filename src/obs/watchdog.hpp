// Liveness watchdog: flags operations that have stopped making progress.
//
// A non-blocking tree never deadlocks, but an individual operation can still
// starve — livelocked on a hot key, stuck behind a preempted owner whose
// descriptor everyone keeps helping, or (in fault-injection runs) frozen on
// purpose. The watchdog samples the per-handle ProgressSlot words that
// kCausalTrace-enabled trees publish (core/op_context.hpp) from its own
// background thread and reports any in-flight operation exceeding a retry
// or wall-clock budget.
//
// Sampling protocol (the seqlock documented on ProgressSlot):
//   1. load op_seq with acquire — even means idle, skip (this is the
//      false-positive contract: an attached-but-idle handle is NEVER
//      flagged);
//   2. read op_key / start_ns / retries / last_step / help_depth relaxed;
//   3. re-read op_seq — if it moved, the op completed (or a new one began)
//      mid-sample: discard, never report a finished op as stalled.
//
// The watchdog owns a MetricsPoller-style thread (interval + condvar wake,
// start/stop idempotent, poll_once public for headless use) and surfaces
// results three ways: report() returns the latest StallReport snapshot,
// stall_events_total() is a monotone counter (exported with stalled_now() as
// the metrics cell's "watchdog" section, obs/metrics.hpp), and an optional
// callback fires from the sampler thread whenever a poll finds at least one
// stalled op (the runner and efrb_top hook this).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/op_context.hpp"

namespace efrb::obs {

/// One stalled in-flight operation, as seen by a single consistent sample.
struct StallEntry {
  unsigned tid = kNoTid;
  std::uint64_t op_seq = 0;     // the slot's (odd) sequence word
  std::uint64_t op_key = kNoKey;
  std::uint64_t age_ns = 0;     // now - start_ns at sample time
  std::uint64_t retries = 0;    // retry_pause calls within this op
  std::uint32_t last_step = kNoStep;  // latest protocol CasStep attempted
  std::uint32_t help_depth = 0;       // nested help dispatches right now
};

struct StallReport {
  std::uint64_t polls = 0;               // samples taken so far
  std::uint64_t stall_events_total = 0;  // stalled entries ever reported
  std::uint64_t sampled_in_flight = 0;   // in-flight ops seen this poll
  std::vector<StallEntry> stalled;       // this poll's offenders
};

/// Stall thresholds (namespace scope so the constructor's default argument
/// can brace-initialize it — GCC rejects that for a nested class whose
/// default member initializers are still pending inside the enclosing
/// class).
struct WatchdogBudget {
  /// Retries within one operation before it counts as stalled.
  std::uint64_t retries = 1000;
  /// Wall-clock age of one operation before it counts as stalled.
  std::uint64_t wall_ns = 100'000'000;  // 100 ms
};

class LivenessWatchdog {
 public:
  using Budget = WatchdogBudget;
  using StallCallback = std::function<void(const StallReport&)>;

  explicit LivenessWatchdog(
      const ProgressTable& table, Budget budget = Budget(),
      std::chrono::milliseconds interval = std::chrono::milliseconds(10))
      : table_(table),
        budget_(budget),
        interval_(interval.count() <= 0 ? std::chrono::milliseconds(1)
                                        : interval) {}

  ~LivenessWatchdog() { stop(); }

  LivenessWatchdog(const LivenessWatchdog&) = delete;
  LivenessWatchdog& operator=(const LivenessWatchdog&) = delete;

  Budget budget() const noexcept { return budget_; }

  /// Not thread-safe against a running watchdog; set before start().
  void set_on_stall(StallCallback cb) { on_stall_ = std::move(cb); }

  /// One sampling pass over every slot (public for headless captures and
  /// tests). Returns the fresh report; also retained for report().
  StallReport poll_once() {
    StallReport rep;
    rep.polls = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t now = steady_now_ns();
    for (const auto& padded : table_.slots) {
      const ProgressSlot& s = padded.value;
      const std::uint64_t seq = s.op_seq.load(std::memory_order_acquire);
      if ((seq & 1) == 0) continue;  // idle window: never flagged
      StallEntry e;
      e.op_seq = seq;
      e.tid = s.tid.load(std::memory_order_relaxed);
      e.op_key = s.op_key.load(std::memory_order_relaxed);
      const std::uint64_t start = s.start_ns.load(std::memory_order_relaxed);
      e.retries = s.retries.load(std::memory_order_relaxed);
      e.last_step = s.last_step.load(std::memory_order_relaxed);
      e.help_depth = s.help_depth.load(std::memory_order_relaxed);
      // Seqlock validation: if the window moved while we read, the op we
      // were inspecting completed — it cannot be stalled, drop the sample.
      if (s.op_seq.load(std::memory_order_acquire) != seq) continue;
      ++rep.sampled_in_flight;
      e.age_ns = now > start ? now - start : 0;
      if (e.retries >= budget_.retries || e.age_ns >= budget_.wall_ns) {
        rep.stalled.push_back(e);
      }
    }
    rep.stall_events_total =
        stall_events_.fetch_add(rep.stalled.size(),
                                std::memory_order_relaxed) +
        rep.stalled.size();
    {
      std::lock_guard<std::mutex> lock(report_mu_);
      last_ = rep;
    }
    if (!rep.stalled.empty() && on_stall_) on_stall_(rep);
    return rep;
  }

  /// Latest report snapshot (copy; safe from any thread).
  StallReport report() const {
    std::lock_guard<std::mutex> lock(report_mu_);
    return last_;
  }

  std::uint64_t stall_events_total() const noexcept {
    return stall_events_.load(std::memory_order_relaxed);
  }

  /// Stalled-entry count of the latest poll (watchdog.stalled_ops in the
  /// metrics cell).
  std::uint64_t stalled_now() const {
    std::lock_guard<std::mutex> lock(report_mu_);
    return last_.stalled.size();
  }

  /// Start the background sampler (idempotent); samples every interval
  /// until stop().
  void start() {
    std::lock_guard<std::mutex> start_lock(start_mu_);
    if (thread_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(wake_mu_);
      while (!stop_.load(std::memory_order_relaxed)) {
        wake_.wait_for(lock, interval_, [this] {
          return stop_.load(std::memory_order_relaxed);
        });
        if (stop_.load(std::memory_order_relaxed)) break;
        poll_once();
      }
    });
  }

  /// Stop and join (idempotent), taking one final sample so a stall that
  /// developed in the last interval is still caught.
  void stop() {
    std::lock_guard<std::mutex> start_lock(start_mu_);
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    wake_.notify_all();
    thread_.join();
    poll_once();
  }

 private:
  static std::uint64_t steady_now_ns() noexcept {
    // Must match ProgressSlot::start_ns's epoch (steady_clock since-epoch;
    // see OpContext::begin_op).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  const ProgressTable& table_;
  Budget budget_;
  std::chrono::milliseconds interval_;
  StallCallback on_stall_;

  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> stall_events_{0};
  mutable std::mutex report_mu_;
  StallReport last_;

  mutable std::mutex start_mu_;  // guards thread_ lifecycle
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace efrb::obs
