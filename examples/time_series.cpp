// Example: a sliding-window time-series index.
//
// Telemetry producers insert (timestamp -> measurement) points; a dashboard
// thread continuously aggregates the most recent window with range();
// a retention thread expires old points by walking them with find_ge and
// erasing. This is the ordered-dictionary workload (range scans + ordered
// navigation + concurrent inserts and deletes) that motivates using a search
// TREE rather than a hash map — and it runs entirely lock-free.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/efrb_tree.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using Timestamp = std::uint64_t;  // microseconds, synthetic
using Index = efrb::EfrbTreeMap<Timestamp, double>;

constexpr Timestamp kRetention = 50'000;  // keep the trailing 50ms of points

}  // namespace

int main() {
  Index index;
  std::atomic<Timestamp> now{1'000'000};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> produced{0}, expired{0}, windows{0};
  std::atomic<std::uint64_t> bad_windows{0};

  efrb::run_threads(4, [&](std::size_t tid) {
    if (tid < 2) {
      // Producers: monotonically increasing timestamps, jittered per thread.
      efrb::Xoshiro256 rng(tid + 1);
      auto h = index.handle();  // per-thread handle for the insert hot loop
      for (int i = 0; i < 30000; ++i) {
        const Timestamp t =
            now.fetch_add(1 + rng.next_below(3), std::memory_order_relaxed);
        h.insert(t, static_cast<double>(rng.next_below(1000)) / 10.0);
        produced.fetch_add(1, std::memory_order_relaxed);
      }
      if (tid == 0) stop.store(true);
    } else if (tid == 2) {
      // Dashboard: aggregate the last 10ms window. Every point it sees must
      // lie inside the requested interval (range() never invents keys), and
      // the points must come in strictly ascending order.
      while (!stop.load(std::memory_order_relaxed)) {
        const Timestamp hi = now.load(std::memory_order_relaxed);
        const Timestamp lo = hi > 10'000 ? hi - 10'000 : 0;
        double sum = 0;
        std::size_t n = 0;
        bool well_formed = true;
        Timestamp prev = 0;
        index.range(lo, hi, [&](const Timestamp& t, const double& v) {
          if (t < lo || t > hi || (n > 0 && t <= prev)) well_formed = false;
          prev = t;
          sum += v;
          ++n;
        });
        if (!well_formed) bad_windows.fetch_add(1, std::memory_order_relaxed);
        windows.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // Retention: expire points older than now - kRetention. Ordered
      // navigation (min_key) stays on the tree; the erase hot path goes
      // through a handle.
      auto h = index.handle();
      while (!stop.load(std::memory_order_relaxed)) {
        const Timestamp cutoff =
            now.load(std::memory_order_relaxed) - kRetention;
        // Walk the oldest points via ordered navigation and erase them.
        for (int batch = 0; batch < 64; ++batch) {
          const auto oldest = index.min_key();
          if (!oldest.has_value() || *oldest >= cutoff) break;
          if (h.erase(*oldest)) {
            expired.fetch_add(1, std::memory_order_relaxed);
          }
        }
        std::this_thread::yield();
      }
    }
  });

  // Final retention sweep, then report.
  const Timestamp cutoff = now.load() - kRetention;
  while (const auto oldest = index.min_key()) {
    if (*oldest >= cutoff) break;
    if (index.erase(*oldest)) expired.fetch_add(1);
  }

  std::printf("== lock-free time-series index ==\n");
  std::printf("points produced:   %llu\n",
              static_cast<unsigned long long>(produced.load()));
  std::printf("points expired:    %llu (retention %llu us)\n",
              static_cast<unsigned long long>(expired.load()),
              static_cast<unsigned long long>(kRetention));
  std::printf("windows aggregated:%llu (out-of-bounds or out-of-order: %llu "
              "— must be 0)\n",
              static_cast<unsigned long long>(windows.load()),
              static_cast<unsigned long long>(bad_windows.load()));
  std::printf("resident points:   %zu, oldest %llu, newest %llu\n",
              index.size(),
              static_cast<unsigned long long>(index.min_key().value_or(0)),
              static_cast<unsigned long long>(index.max_key().value_or(0)));
  const bool ok = bad_windows.load() == 0 && index.validate().ok &&
                  index.min_key().value_or(cutoff) >= cutoff;
  std::printf("validation:        %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
