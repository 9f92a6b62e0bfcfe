// Continuous telemetry: a background poller snapshotting cumulative counters
// into a bounded ring of time-stamped samples, plus the windowed-rate math
// that turns consecutive samples into "what is happening now" numbers
// (ops/s, CAS-failure rate, help rate, retired/freed backlog slope).
//
// Pieces:
//   * PollSample — one timestamped snapshot of the cumulative counter state:
//     total ops, a TreeStats snapshot, a ReclaimGauges snapshot. Samples are
//     cumulative; rates are derived between consecutive samples so a dropped
//     sample only widens one window instead of corrupting the series.
//   * TimeSeriesRing — fixed-capacity overwrite-oldest ring of PollSamples
//     (same shape as TraceRing: a long run keeps the latest window and cannot
//     exhaust memory). Single-writer; MetricsPoller serializes reads against
//     its writer with a mutex because a PollSample is far too big to read
//     atomically.
//   * WindowRates / rates_between — reset-safe delta math: a counter that
//     went backwards (structure swapped out mid-run, stats cleared) restarts
//     the delta from the current value instead of producing a garbage
//     underflowed window. tests/timeseries_test pins this down.
//   * MetricsPoller — owns the sources (std::function providers for ops /
//     stats / gauges, any subset), the ring, and the background thread.
//     start()/stop() bracket a run; the workload runner attaches the poller
//     around its worker barrier (run_workload in workload/runner.hpp) so the
//     sampling window matches the measured window. poll_once() is public so
//     headless captures (obs_probe, efrb_top --once, tests) can sample
//     without a thread.
//
// Nothing here touches the uninstrumented hot path: the poller reads shared
// counters that already exist (stat shards, reclaimer gauges) plus an opt-in
// per-worker op counter the runner maintains only when a poller is attached.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/op_context.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/assert.hpp"

namespace efrb::obs {

/// One cumulative snapshot. `t_ns` is nanoseconds since the poller's (or
/// test's) epoch; all other fields are totals as of that instant.
struct PollSample {
  std::uint64_t t_ns = 0;
  std::uint64_t ops = 0;
  TreeStats stats;
  ReclaimGauges gauges;

  std::uint64_t cas_attempts_total() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t a : stats.cas_attempts) n += a;
    return n;
  }
  std::uint64_t cas_failures_total() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t f : stats.cas_failures) n += f;
    return n;
  }
};

/// Reset-safe counter delta: a cumulative counter observed smaller than its
/// previous reading has been reset (new structure, cleared stats); the delta
/// restarts from the current value rather than underflowing.
inline std::uint64_t monotone_delta(std::uint64_t cur,
                                    std::uint64_t prev) noexcept {
  return cur >= prev ? cur - prev : cur;
}

/// Windowed rates between two consecutive samples (prev -> cur).
struct WindowRates {
  std::uint64_t t_ns = 0;        // window end (cur.t_ns)
  double window_s = 0;           // window length
  double ops_per_s = 0;          // windowed throughput
  double cas_failure_rate = 0;   // failed / attempted protocol CAS in window
  double helps_per_s = 0;        // help dispatches per second
  double retries_per_s = 0;      // insert+delete retry rounds per second
  double retired_per_s = 0;      // objects handed to the reclaimer per second
  double freed_per_s = 0;        // objects actually freed per second
  double backlog_slope = 0;      // d(backlog)/dt, objects per second (signed)
};

inline WindowRates rates_between(const PollSample& prev,
                                 const PollSample& cur) noexcept {
  WindowRates r;
  r.t_ns = cur.t_ns;
  // Timestamps are not cumulative counters: a zero-length or backwards
  // window (samples from different poller epochs) has no meaningful rates,
  // so everything stays zero rather than dividing by a bogus dt.
  if (cur.t_ns <= prev.t_ns) return r;
  r.window_s = static_cast<double>(cur.t_ns - prev.t_ns) / 1e9;
  const double inv = 1.0 / r.window_s;
  r.ops_per_s =
      static_cast<double>(monotone_delta(cur.ops, prev.ops)) * inv;
  const std::uint64_t d_att = monotone_delta(cur.cas_attempts_total(),
                                             prev.cas_attempts_total());
  const std::uint64_t d_fail = monotone_delta(cur.cas_failures_total(),
                                              prev.cas_failures_total());
  r.cas_failure_rate =
      d_att == 0 ? 0.0
                 : static_cast<double>(d_fail) / static_cast<double>(d_att);
  r.helps_per_s =
      static_cast<double>(monotone_delta(cur.stats.helps, prev.stats.helps)) *
      inv;
  r.retries_per_s =
      static_cast<double>(
          monotone_delta(cur.stats.insert_retries, prev.stats.insert_retries) +
          monotone_delta(cur.stats.delete_retries, prev.stats.delete_retries)) *
      inv;
  r.retired_per_s = static_cast<double>(monotone_delta(
                        cur.gauges.retired_total, prev.gauges.retired_total)) *
                    inv;
  r.freed_per_s = static_cast<double>(monotone_delta(cur.gauges.freed_total,
                                                     prev.gauges.freed_total)) *
                  inv;
  r.backlog_slope = (static_cast<double>(cur.gauges.backlog()) -
                     static_cast<double>(prev.gauges.backlog())) *
                    inv;
  return r;
}

/// Fixed-capacity overwrite-oldest sample ring (capacity rounds up to a power
/// of two). Single writer; readers synchronize externally (MetricsPoller's
/// mutex) — a PollSample cannot be read atomically.
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(std::size_t capacity = 256)
      : samples_(capacity == 0 ? 1 : std::bit_ceil(capacity)) {}

  void push(const PollSample& s) noexcept {
    samples_[head_ & (samples_.size() - 1)] = s;
    ++head_;
  }

  std::size_t capacity() const noexcept { return samples_.size(); }
  /// Total samples ever pushed (monotone; exceeds capacity after wraparound).
  std::uint64_t pushed() const noexcept { return head_; }
  /// Samples lost to wraparound.
  std::uint64_t dropped() const noexcept {
    return head_ > samples_.size() ? head_ - samples_.size() : 0;
  }

  /// Retained samples, oldest first.
  std::vector<PollSample> snapshot() const {
    std::vector<PollSample> out;
    const std::uint64_t n = head_ < samples_.size()
                                ? head_
                                : static_cast<std::uint64_t>(samples_.size());
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head_ - n; i < head_; ++i) {
      out.push_back(samples_[i & (samples_.size() - 1)]);
    }
    return out;
  }

 private:
  std::vector<PollSample> samples_;
  std::uint64_t head_ = 0;
};

/// Windowed rates over a retained sample series, one entry per consecutive
/// pair (empty for fewer than two samples).
inline std::vector<WindowRates> window_rates(
    const std::vector<PollSample>& samples) {
  std::vector<WindowRates> out;
  if (samples.size() < 2) return out;
  out.reserve(samples.size() - 1);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    out.push_back(rates_between(samples[i - 1], samples[i]));
  }
  return out;
}

/// Background sampler. Configure the sources (each optional), then either
/// drive it manually with poll_once() or start() the thread and stop() it
/// after the measured window. The runner integration (run_workload with
/// Instruments::poller set) wires the live op counter, starts the thread
/// when the workers start, and stops it after they join — see
/// workload/runner.hpp.
class MetricsPoller {
 public:
  struct Sources {
    std::function<std::uint64_t()> ops;        // cumulative op count
    std::function<TreeStats()> stats;          // e.g. tree.stats_snapshot()
    std::function<ReclaimGauges()> gauges;     // e.g. reclaimer().gauges()
  };

  explicit MetricsPoller(
      std::chrono::milliseconds interval = std::chrono::milliseconds(100),
      std::size_t ring_capacity = 256)
      : interval_(interval.count() < 1 ? std::chrono::milliseconds(1)
                                       : interval),
        ring_(ring_capacity),
        t0_(std::chrono::steady_clock::now()) {}

  ~MetricsPoller() { stop(); }

  MetricsPoller(const MetricsPoller&) = delete;
  MetricsPoller& operator=(const MetricsPoller&) = delete;

  std::chrono::milliseconds interval() const noexcept { return interval_; }

  /// Replace the sources (not thread-safe against a running poller; set
  /// before start() / after stop()). The runner uses this to plug in and
  /// unplug its stack-local op counters around a run.
  void set_sources(Sources s) {
    std::lock_guard<std::mutex> lock(mu_);
    sources_ = std::move(s);
  }
  void set_ops_source(std::function<std::uint64_t()> ops) {
    std::lock_guard<std::mutex> lock(mu_);
    sources_.ops = std::move(ops);
  }

  /// Take one sample now. Thread-safe; this is also what the background
  /// thread calls once per interval.
  void poll_once() {
    std::lock_guard<std::mutex> lock(mu_);
    PollSample s;
    s.t_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    if (sources_.ops) s.ops = sources_.ops();
    if (sources_.stats) s.stats = sources_.stats();
    if (sources_.gauges) s.gauges = sources_.gauges();
    ring_.push(s);
  }

  /// Start the background thread (idempotent). Samples once per interval
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

  /// Stop and join the background thread (idempotent), taking one final
  /// sample so the series always covers the full window.
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

  bool running() const {
    std::lock_guard<std::mutex> start_lock(start_mu_);
    return thread_.joinable();
  }

  /// Retained samples, oldest first (mutex-consistent against the writer).
  std::vector<PollSample> samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.snapshot();
  }

  /// Windowed rates over the retained samples.
  std::vector<WindowRates> rates() const { return window_rates(samples()); }

  std::uint64_t samples_pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.pushed();
  }
  std::uint64_t samples_dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.dropped();
  }

 private:
  std::chrono::milliseconds interval_;
  mutable std::mutex mu_;  // guards ring_ and sources_
  Sources sources_;
  TimeSeriesRing ring_;
  std::chrono::steady_clock::time_point t0_;

  mutable std::mutex start_mu_;  // guards thread_ lifecycle
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace efrb::obs
