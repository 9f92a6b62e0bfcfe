// Experiment E7 (extension; not in the paper) — ordered-query throughput:
// range scans of growing width and min/max polling, with and without
// concurrent update churn, against the locked std::map reference. The point:
// the EFRB tree serves weakly-consistent scans and linearizable extremes with
// ZERO effect on updaters (no lock to hold readers' sins against them),
// whereas the reader-writer-locked map stalls its writers for the duration of
// every scan.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "baselines/locked_map.hpp"
#include "bench_common.hpp"
#include "core/efrb_tree.hpp"
#include "util/rng.hpp"
#include "workload/report.hpp"

namespace {

using Key = std::uint64_t;
using efrb::Table;

constexpr std::uint64_t kRange = 1 << 16;

// Sink so the scan result is observable (no dead-code elimination).
std::atomic<std::uint64_t> g_sink{0};
void benchmark_keep(std::size_t v) {
  g_sink.fetch_add(v, std::memory_order_relaxed);
}

/// Scans of width `w` from one reader thread while `updaters` churn; returns
/// {scans/s, updates/s}.
template <typename SetT>
std::pair<double, double> scan_vs_churn(SetT& set, std::uint64_t width,
                                        int updaters) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0}, updates{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // scanner
    efrb::Xoshiro256 rng(1);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key lo = rng.next_below(kRange - width);
      benchmark_keep(set.count_range(lo, lo + width - 1));
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int u = 0; u < updaters; ++u) {
    threads.emplace_back([&, u] {
      efrb::Xoshiro256 rng(100 + static_cast<std::uint64_t>(u));
      auto h = efrb::make_handle(set);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.next_below(kRange);
        if ((rng.next() & 1) != 0) h.insert(k);
        else h.erase(k);
        updates.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto dur = efrb::bench::cell_duration();
  std::this_thread::sleep_for(dur);
  stop.store(true);
  for (auto& t : threads) t.join();
  const double secs = std::chrono::duration<double>(dur).count();
  return {static_cast<double>(scans.load()) / secs,
          static_cast<double>(updates.load()) / secs};
}

}  // namespace

int main(int argc, char** argv) {
  // Scan/churn loops don't go through run_cell; --json writes an empty-cell
  // document so sweep scripts can pass the flag uniformly.
  efrb::bench::metrics().init("bench_ordered", argc, argv);
  efrb::bench::print_header(
      "E7 (extension): range scans vs update churn (range 2^16, 1 scanner + "
      "3 updaters)",
      "Expected shape: as scan width grows, the rwlock'd map's updaters\n"
      "starve (writers wait out every scan) while the EFRB tree's updaters\n"
      "are unaffected by scan width (scans take no locks).");

  Table table({"scan width", "efrb scans/s", "efrb updates/s",
               "rwlock scans/s", "rwlock updates/s"});
  for (const std::uint64_t width : {64ULL, 1024ULL, 16384ULL}) {
    efrb::EfrbTreeSet<Key> tree;
    efrb::prefill(tree, kRange, 0.5, 42);
    const auto [ts, tu] = scan_vs_churn(tree, width, 3);

    efrb::LockedStdSet<Key> map;
    {
      efrb::Xoshiro256 rng(42 ^ 0xabcdef1234567890ULL);
      std::uint64_t inserted = 0;
      while (inserted < kRange / 2) {
        if (map.insert(rng.next_below(kRange))) ++inserted;
      }
    }
    const auto [ms, mu] = scan_vs_churn(map, width, 3);

    table.add_row({std::to_string(width), Table::fmt(ts, 0), Table::fmt(tu, 0),
                   Table::fmt(ms, 0), Table::fmt(mu, 0)});
  }
  table.print();

  std::printf("\n-- linearizable extreme polling (min_key) under churn --\n");
  efrb::EfrbTreeSet<Key> tree;
  efrb::prefill(tree, kRange, 0.5, 42);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> polls{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      benchmark_keep(tree.min_key().value_or(0));
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread churn([&] {
    efrb::Xoshiro256 rng(9);
    auto h = tree.handle();
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = rng.next_below(kRange);
      h.insert(k);
      h.erase(k);
    }
  });
  const auto dur = efrb::bench::cell_duration();
  std::this_thread::sleep_for(dur);
  stop.store(true);
  poller.join();
  churn.join();
  std::printf("min_key: %.0f polls/s under concurrent churn\n",
              static_cast<double>(polls.load()) /
                  std::chrono::duration<double>(dur).count());
  return efrb::bench::metrics().finish() ? 0 : 1;
}
