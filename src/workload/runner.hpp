// Fixed-duration throughput harness.
//
// Prefills the structure to a target occupancy, then runs N threads for a
// fixed wall-clock window, each sampling (operation, key) pairs from the
// configured mix/distribution. Results report per-type counts and Mops/s.
//
// Single-core note: on a 1-CPU host the threads interleave preemptively; the
// harness still measures the cost structure of each implementation (lock
// convoying, helping overhead, path length) but not parallel speedup.
// EXPERIMENTS.md interprets the outputs accordingly.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/set_interface.hpp"
#include "obs/histogram.hpp"
#include "obs/instruments.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "util/assert.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"
#include "workload/distribution.hpp"
#include "workload/op_mix.hpp"

namespace efrb {

struct WorkloadConfig {
  std::size_t threads = 4;
  std::uint64_t key_range = std::uint64_t{1} << 16;
  OpMix mix = kBalanced;
  std::chrono::milliseconds duration{200};
  double prefill_fraction = 0.5;  // of key_range
  std::uint64_t seed = 42;
  bool zipf = false;
  double zipf_theta = 0.99;
};

struct WorkloadResult {
  std::uint64_t finds = 0;
  std::uint64_t inserts = 0;     // attempts
  std::uint64_t erases = 0;      // attempts
  std::uint64_t ok_finds = 0;    // returned true (also defeats dead-code
                                 // elimination of pure lookup paths)
  std::uint64_t ok_inserts = 0;  // returned true
  std::uint64_t ok_erases = 0;
  double seconds = 0;

  std::uint64_t total_ops() const noexcept { return finds + inserts + erases; }
  double mops() const noexcept {
    return seconds > 0 ? static_cast<double>(total_ops()) / seconds / 1e6 : 0;
  }
};

/// Opt-in per-op latency sampling output: one histogram per operation type
/// plus one for ops that hit at least one retry (populated only for targets
/// exposing last_op_retried(), i.e. EfrbTreeMap handles). Values are
/// nanoseconds. Workers record into private instances; run_workload merges
/// them into the caller's after the join.
struct LatencySamples {
  obs::LatencyHistogram find;
  obs::LatencyHistogram insert;
  obs::LatencyHistogram erase;
  obs::LatencyHistogram retried;
  // Causal split (populated only when run_workload's Instruments carry a
  // CausalRegistry): an op lands in helper_completed when some other thread
  // helped it along — its helps_received counter moved while the op ran —
  // and in self_completed otherwise. The pair separates "my latency" from
  // "latency the helping protocol rescued".
  obs::LatencyHistogram self_completed;
  obs::LatencyHistogram helper_completed;

  void merge(const LatencySamples& other) noexcept {
    find.merge(other.find);
    insert.merge(other.insert);
    erase.merge(other.erase);
    retried.merge(other.retried);
    self_completed.merge(other.self_completed);
    helper_completed.merge(other.helper_completed);
  }

  std::uint64_t total_count() const noexcept {
    return find.count() + insert.count() + erase.count();
  }
};

/// Insert uniformly random keys until the structure holds ~fraction*range
/// keys; gives every run the same expected occupancy and (for trees) the
/// random shape whose expected depth is logarithmic (§6's cited analysis).
template <typename Set>
void prefill(Set& set, std::uint64_t key_range, double fraction,
             std::uint64_t seed) {
  const auto target = static_cast<std::uint64_t>(
      fraction * static_cast<double>(key_range));
  Xoshiro256 rng(seed ^ 0xabcdef1234567890ULL);
  std::uint64_t inserted = 0;
  while (inserted < target) {
    if (set.insert(static_cast<typename Set::key_type>(
            rng.next_below(key_range)))) {
      ++inserted;
    }
  }
}

/// Fixed-duration mixed workload over `set`. Each worker runs its
/// operations through a per-thread handle (make_handle(): the structure's
/// own handle when it has one, a forwarding proxy otherwise).
///
/// `in` (optional) attaches the run's instruments; each one it carries is
/// opt-in and costs only when set:
///   * `latency` — every op is bracketed by two steady_clock reads and
///     recorded into per-worker LatencySamples, merged into `*latency`
///     after the join. With `causal` also set, each op diffs the handle
///     tid's helps_received counter across the op and lands in
///     helper_completed when another thread helped it (self_completed
///     otherwise).
///   * `trace` — op begin/end markers, keyed by the handle tid when it has
///     one (so op spans land in the same ring as the protocol events an
///     ObsTraits tree writes), else by the worker index.
///   * `profiler` — every op is bracketed by op_begin/op_end (two
///     cycle_stamp reads), keyed like the trace, and each worker reads its
///     thread CPU time and the wall clock before and after its measured
///     loop and hands both to add_thread_time(), so the profiler charges
///     the thread only for its time on a CPU. Phase detail needs a tree
///     whose events reach the profiler (obs::ObsTraits with the same
///     Instruments attached).
///   * `poller` — each worker adds its 64-op batches to a per-thread padded
///     counter that becomes the poller's ops source; the poller runs from
///     the start barrier until the workers join, so the series spans exactly
///     the measured window. Workers exit at batch boundaries, so the final
///     sample equals total_ops(). The caller keeps ownership and sets the
///     stats/gauges sources; run_workload only wires and unwires the ops
///     source.
/// The other sinks of `in` are the tree's business (ObsTraits::attach).
template <typename Set>
WorkloadResult run_workload(Set& set, const WorkloadConfig& cfg,
                            const obs::Instruments* in = nullptr) {
  EFRB_ASSERT(cfg.threads > 0);
  using Key = typename Set::key_type;
  constexpr int kBatch = 64;  // ops per stop-flag check and live-count bump
  const obs::Instruments none;
  const obs::Instruments& ins = in != nullptr ? *in : none;
  obs::MetricsPoller* const poller = ins.poller;
  const bool observed = ins.latency != nullptr || ins.trace != nullptr ||
                        ins.profiler != nullptr;

  std::atomic<bool> stop{false};
  YieldingBarrier start(static_cast<std::uint32_t>(cfg.threads) + 1);
  std::vector<CachePadded<WorkloadResult>> per_thread(cfg.threads);
  // Live per-worker op counters, allocated only when a poller is attached.
  std::vector<CachePadded<std::atomic<std::uint64_t>>> live_ops(
      poller != nullptr ? cfg.threads : 0);
  if (poller != nullptr) {
    poller->set_ops_source([&live_ops] {
      std::uint64_t total = 0;
      for (const auto& c : live_ops) {
        total += c.value.load(std::memory_order_relaxed);
      }
      return total;
    });
  }
  // Heap-held per-worker sample sets (a LatencySamples is ~140 KB of
  // histogram buckets — too big for the padded result array), allocated
  // before the workers start and merged after they join.
  std::vector<std::unique_ptr<LatencySamples>> per_thread_lat(cfg.threads);
  if (ins.latency != nullptr) {
    for (auto& p : per_thread_lat) p = std::make_unique<LatencySamples>();
  }

  // Constructing the Zipf table is O(range); do it once, shared (read-only).
  const UniformKeys uniform(cfg.key_range);
  const ZipfKeys* zipf = nullptr;
  ZipfKeys zipf_storage = cfg.zipf ? ZipfKeys(cfg.key_range, cfg.zipf_theta)
                                   : ZipfKeys(1, 0.5);
  if (cfg.zipf) zipf = &zipf_storage;

  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  for (std::size_t tid = 0; tid < cfg.threads; ++tid) {
    threads.emplace_back([&, tid, observed] {
      Xoshiro256 rng(cfg.seed + 0x1234 * (tid + 1));
      WorkloadResult& local = per_thread[tid].value;
      LatencySamples* lat = per_thread_lat[tid].get();
      std::atomic<std::uint64_t>* live =
          poller != nullptr ? &live_ops[tid].value : nullptr;
      auto target = make_handle(set);
      unsigned op_tid = static_cast<unsigned>(tid);
      if constexpr (requires {
                      { target.tid() } -> std::convertible_to<unsigned>;
                    }) {
        if (target.tid() != kNoTid) op_tid = target.tid();
      }
      // The result must flow into state the compiler cannot discard, or a
      // lock-guarded pure traversal gets dead-code-eliminated and the
      // benchmark measures only the lock.
      auto apply = [&](OpType op, const Key& k) {
        bool ok = false;
        switch (op) {
          case OpType::kFind:
            ok = target.contains(k);
            local.ok_finds += ok ? 1 : 0;
            ++local.finds;
            break;
          case OpType::kInsert:
            ok = target.insert(k);
            local.ok_inserts += ok ? 1 : 0;
            ++local.inserts;
            break;
          case OpType::kErase:
            ok = target.erase(k);
            local.ok_erases += ok ? 1 : 0;
            ++local.erases;
            break;
        }
        return ok;
      };
      // One op with every attached instrument around it.
      auto apply_observed = [&](OpType op, const Key& k) {
        const obs::TraceOp top = op == OpType::kFind     ? obs::TraceOp::kFind
                                 : op == OpType::kInsert ? obs::TraceOp::kInsert
                                                         : obs::TraceOp::kErase;
        if (ins.trace != nullptr) ins.trace->record_op_begin(op_tid, top);
        if (ins.profiler != nullptr) ins.profiler->op_begin(op_tid);
        const std::uint64_t helps_before =
            lat != nullptr && ins.causal != nullptr
                ? ins.causal->helps_received(op_tid)
                : 0;
        const auto a = lat != nullptr ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{};
        const bool ok = apply(op, k);
        const auto b = lat != nullptr ? std::chrono::steady_clock::now() : a;
        if (ins.profiler != nullptr) ins.profiler->op_end(op_tid);
        if (ins.trace != nullptr) ins.trace->record_op_end(op_tid, top, ok);
        if (lat == nullptr) return;
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
        (op == OpType::kFind     ? lat->find
         : op == OpType::kInsert ? lat->insert
                                 : lat->erase)
            .record(ns);
        if constexpr (requires {
                        { target.last_op_retried() } -> std::convertible_to<bool>;
                      }) {
          if (target.last_op_retried()) lat->retried.record(ns);
        }
        if (ins.causal != nullptr) {
          (ins.causal->helps_received(op_tid) != helps_before
               ? lat->helper_completed
               : lat->self_completed)
              .record(ns);
        }
      };
      start.arrive_and_wait();
      // Thread CPU time and wall time across the measured loop, for the
      // profiler's on-CPU share of this thread's op windows.
      const std::uint64_t cpu0 = obs::thread_cpu_ns();
      const auto wall0 = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        // A batch per stop-flag check keeps the check off the hot path.
        for (int i = 0; i < kBatch; ++i) {
          const Key k = static_cast<Key>(zipf ? (*zipf)(rng) : uniform(rng));
          const OpType op = cfg.mix.sample(rng);
          if (observed) {
            apply_observed(op, k);
          } else {
            apply(op, k);
          }
        }
        if (live != nullptr) live->fetch_add(kBatch, std::memory_order_relaxed);
      }
      if (ins.profiler != nullptr) {
        const std::uint64_t cpu = obs::thread_cpu_ns() - cpu0;
        const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0);
        ins.profiler->add_thread_time(op_tid, cpu,
                                      static_cast<std::uint64_t>(wall.count()));
      }
    });
  }

  start.arrive_and_wait();
  if (poller != nullptr) poller->start();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(cfg.duration);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  if (poller != nullptr) {
    // Stop (which takes a final sample while the counters are still alive),
    // then unwire the ops source — it captures this frame's live_ops.
    poller->stop();
    poller->set_ops_source({});
  }

  WorkloadResult total;
  for (const auto& p : per_thread) {
    total.finds += p.value.finds;
    total.inserts += p.value.inserts;
    total.erases += p.value.erases;
    total.ok_finds += p.value.ok_finds;
    total.ok_inserts += p.value.ok_inserts;
    total.ok_erases += p.value.ok_erases;
  }
  total.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (ins.latency != nullptr) {
    for (const auto& p : per_thread_lat) ins.latency->merge(*p);
  }
  return total;
}

}  // namespace efrb
