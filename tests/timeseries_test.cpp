// Tests for the continuous-telemetry layer: TimeSeriesRing wraparound, the
// reset-safe windowed delta math, MetricsPoller manual and background
// sampling, the runner's poller attachment (live op counters must agree with
// the final result), the key-space heatmap's bucket math, the Zipf-vs-uniform
// concentration property the acceptance criteria pin down, and the
// metrics document's timeseries and heatmap sections.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/efrb_tree.hpp"
#include "obs/heatmap.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "workload/runner.hpp"

namespace efrb {
namespace {

using obs::HeatBucket;
using obs::KeyHeatmap;
using obs::MetricsPoller;
using obs::PollSample;
using obs::TimeSeriesRing;
using obs::WindowRates;

// ------------------------------------------------------------ sample ring

TEST(TimeSeriesRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TimeSeriesRing(5).capacity(), 8u);
  EXPECT_EQ(TimeSeriesRing(8).capacity(), 8u);
  EXPECT_EQ(TimeSeriesRing(0).capacity(), 1u);
}

TEST(TimeSeriesRingTest, WraparoundKeepsLatestWindow) {
  TimeSeriesRing ring(4);
  for (std::uint64_t i = 0; i < 11; ++i) {
    PollSample s;
    s.t_ns = i * 100;
    s.ops = i;
    ring.push(s);
  }
  EXPECT_EQ(ring.pushed(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);  // 11 pushed - 4 retained
  const std::vector<PollSample> kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest first, and exactly the last four pushes.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[i].ops, 7 + i);
    EXPECT_EQ(kept[i].t_ns, (7 + i) * 100);
  }
}

TEST(TimeSeriesRingTest, PartialFillSnapshotsOnlyPushed) {
  TimeSeriesRing ring(8);
  PollSample s;
  s.ops = 42;
  ring.push(s);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<PollSample> kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].ops, 42u);
}

// ------------------------------------------------------------- delta math

PollSample sample_at(std::uint64_t t_ns, std::uint64_t ops,
                     std::uint64_t cas_attempts, std::uint64_t cas_failures,
                     std::uint64_t helps, std::uint64_t retired,
                     std::uint64_t freed) {
  PollSample s;
  s.t_ns = t_ns;
  s.ops = ops;
  s.stats.cas_attempts[0] = cas_attempts;
  s.stats.cas_failures[0] = cas_failures;
  s.stats.helps = helps;
  s.gauges.retired_total = retired;
  s.gauges.freed_total = freed;
  return s;
}

TEST(WindowRatesTest, RatesFromConsecutiveSamples) {
  // 0.5 s window: 1000 ops, 200 CAS attempts with 50 failures, 10 helps,
  // 100 retired vs 40 freed (backlog grows by 60).
  const PollSample a = sample_at(1'000'000'000, 5000, 800, 10, 5, 300, 300);
  const PollSample b =
      sample_at(1'500'000'000, 6000, 1000, 60, 15, 400, 340);
  const WindowRates r = obs::rates_between(a, b);
  EXPECT_DOUBLE_EQ(r.window_s, 0.5);
  EXPECT_DOUBLE_EQ(r.ops_per_s, 2000.0);
  EXPECT_DOUBLE_EQ(r.cas_failure_rate, 50.0 / 200.0);
  EXPECT_DOUBLE_EQ(r.helps_per_s, 20.0);
  EXPECT_DOUBLE_EQ(r.retired_per_s, 200.0);
  EXPECT_DOUBLE_EQ(r.freed_per_s, 80.0);
  EXPECT_DOUBLE_EQ(r.backlog_slope, 120.0);  // (60 - 0) / 0.5
}

TEST(WindowRatesTest, CounterResetRestartsDeltaInsteadOfUnderflowing) {
  EXPECT_EQ(obs::monotone_delta(100, 40), 60u);
  // cur < prev: the counter was reset; the delta restarts from cur.
  EXPECT_EQ(obs::monotone_delta(30, 40), 30u);
  EXPECT_EQ(obs::monotone_delta(0, ~std::uint64_t{0}), 0u);

  // A structure swapped out mid-series: every cumulative counter drops. The
  // window must report the new structure's small totals, not 2^64-ish
  // garbage rates.
  const PollSample before =
      sample_at(1'000'000'000, 100000, 5000, 500, 50, 900, 800);
  const PollSample after = sample_at(2'000'000'000, 250, 40, 4, 1, 10, 5);
  const WindowRates r = obs::rates_between(before, after);
  EXPECT_DOUBLE_EQ(r.ops_per_s, 250.0);
  EXPECT_DOUBLE_EQ(r.cas_failure_rate, 4.0 / 40.0);
  EXPECT_DOUBLE_EQ(r.helps_per_s, 1.0);
  EXPECT_DOUBLE_EQ(r.retired_per_s, 10.0);
}

TEST(WindowRatesTest, ZeroLengthOrBackwardsWindowYieldsZeroRates) {
  const PollSample a = sample_at(1000, 10, 0, 0, 0, 0, 0);
  const WindowRates same = obs::rates_between(a, a);
  EXPECT_DOUBLE_EQ(same.ops_per_s, 0.0);
  // Clock went backwards (sample from a reset poller): no garbage.
  const PollSample earlier = sample_at(500, 20, 0, 0, 0, 0, 0);
  const WindowRates back = obs::rates_between(a, earlier);
  EXPECT_DOUBLE_EQ(back.ops_per_s, 0.0);
}

TEST(WindowRatesTest, SeriesHasOneWindowPerConsecutivePair) {
  std::vector<PollSample> samples;
  EXPECT_TRUE(obs::window_rates(samples).empty());
  samples.push_back(sample_at(0, 0, 0, 0, 0, 0, 0));
  EXPECT_TRUE(obs::window_rates(samples).empty());
  samples.push_back(sample_at(1'000'000'000, 100, 0, 0, 0, 0, 0));
  samples.push_back(sample_at(2'000'000'000, 300, 0, 0, 0, 0, 0));
  const std::vector<WindowRates> rates = obs::window_rates(samples);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0].ops_per_s, 100.0);
  EXPECT_DOUBLE_EQ(rates[1].ops_per_s, 200.0);
}

// ----------------------------------------------------------------- poller

TEST(MetricsPollerTest, ManualPollReadsSources) {
  MetricsPoller poller(std::chrono::milliseconds(10), 16);
  std::uint64_t ops = 0;
  poller.set_sources({[&ops] { return ops; }, {}, {}});
  ops = 100;
  poller.poll_once();
  ops = 350;
  poller.poll_once();
  const std::vector<PollSample> samples = poller.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].ops, 100u);
  EXPECT_EQ(samples[1].ops, 350u);
  EXPECT_GE(samples[1].t_ns, samples[0].t_ns);
}

TEST(MetricsPollerTest, BackgroundThreadSamplesAtInterval) {
  MetricsPoller poller(std::chrono::milliseconds(5), 64);
  std::atomic<std::uint64_t> ops{0};
  poller.set_sources(
      {[&ops] { return ops.load(std::memory_order_relaxed); }, {}, {}});
  poller.start();
  EXPECT_TRUE(poller.running());
  for (int i = 0; i < 10; ++i) {
    ops.fetch_add(1000, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  poller.stop();
  EXPECT_FALSE(poller.running());
  // stop() takes a final sample, so at least that one exists; on any
  // non-pathological scheduler several interval ticks fired too.
  EXPECT_GE(poller.samples_pushed(), 2u);
  // Cumulative ops are monotone across the series.
  const std::vector<PollSample> samples = poller.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].ops, samples[i - 1].ops);
    EXPECT_GE(samples[i].t_ns, samples[i - 1].t_ns);
  }
  EXPECT_EQ(samples.back().ops, ops.load());
}

TEST(MetricsPollerTest, StopWithoutStartIsANoop) {
  MetricsPoller poller;
  poller.stop();  // must not crash or sample
  EXPECT_EQ(poller.samples_pushed(), 0u);
}

TEST(MetricsPollerTest, RestartAfterStopKeepsSampling) {
  MetricsPoller poller(std::chrono::milliseconds(5));
  poller.start();
  poller.stop();
  const std::uint64_t after_first = poller.samples_pushed();
  poller.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  poller.stop();
  EXPECT_GT(poller.samples_pushed(), after_first);
}

// ------------------------------------------------- runner + poller wiring

TEST(RunnerPollerTest, FinalSampleOpsMatchesWorkloadResult) {
  // The poller's ops source reads the runner's live per-thread counters;
  // stop() samples after the join, so the last sample must account for
  // every operation the result reports — the end-to-end check that every
  // worker's last batch reaches its live counter.
  EfrbTreeSet<std::uint64_t> set;
  WorkloadConfig cfg;
  cfg.threads = 3;
  cfg.key_range = 1 << 10;
  cfg.duration = std::chrono::milliseconds(60);
  MetricsPoller poller(std::chrono::milliseconds(10));
  const obs::Instruments instruments{.poller = &poller};
  const WorkloadResult result = run_workload(set, cfg, &instruments);
  const std::vector<PollSample> samples = poller.samples();
  ASSERT_GE(samples.size(), 1u);
  EXPECT_EQ(samples.back().ops, result.total_ops());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].ops, samples[i - 1].ops);
  }
  // Mid-run samples exist and saw partial progress (the window was 6
  // interval lengths; even a slow box lands one tick inside it).
  EXPECT_GE(poller.samples_pushed(), 2u);
}

// ---------------------------------------------------------------- heatmap

TEST(HeatmapTest, BucketMathCoversRangeAndDropsStrays) {
  KeyHeatmap h(1000, 10);  // width 100
  EXPECT_EQ(h.buckets(), 10u);
  EXPECT_EQ(h.bucket_of(0), 0u);
  EXPECT_EQ(h.bucket_of(99), 0u);
  EXPECT_EQ(h.bucket_of(100), 1u);
  EXPECT_EQ(h.bucket_of(999), 9u);
  // Out of range and the kNoKey sentinel both fall off the end.
  EXPECT_EQ(h.bucket_of(1000), 10u);
  EXPECT_EQ(h.bucket_of(kNoKey), 10u);

  h.record_attempt(5);
  h.record_cas_failure(150);
  h.record_help(150);
  h.record_retry(999);
  h.record_attempt(kNoKey);  // unattributable: counted, never misbinned
  EXPECT_EQ(h.dropped(), 1u);

  const std::vector<HeatBucket> snap = h.snapshot();
  EXPECT_EQ(snap[0].attempts, 1u);
  EXPECT_EQ(snap[1].cas_failures, 1u);
  EXPECT_EQ(snap[1].helps, 1u);
  EXPECT_EQ(snap[1].contended(), 2u);
  EXPECT_EQ(snap[9].retries, 1u);

  h.clear();
  EXPECT_EQ(h.dropped(), 0u);
  for (const HeatBucket& b : h.snapshot()) EXPECT_EQ(b.contended(), 0u);
}

TEST(HeatmapTest, RoundedUpWidthKeepsLastKeyInRange) {
  // range 100 over 64 buckets: width rounds up to 2, so key 99 lands in
  // bucket 49 — never out of bounds.
  KeyHeatmap h(100, 64);
  EXPECT_LT(h.bucket_of(99), h.buckets());
}

TEST(HeatmapTest, AsciiStripScalesWithPeak) {
  std::vector<HeatBucket> buckets(4);
  buckets[0].cas_failures = 100;  // peak -> '@'
  buckets[1].helps = 50;          // half -> mid ramp
  buckets[3].retries = 1;         // nonzero -> visibly not blank
  const std::string strip = KeyHeatmap::ascii_strip(buckets);
  ASSERT_EQ(strip.size(), 4u);
  EXPECT_EQ(strip[0], '@');
  EXPECT_EQ(strip[2], ' ');  // zero stays blank
  EXPECT_NE(strip[1], ' ');
  EXPECT_NE(strip[3], ' ');
  // All-zero input renders all blanks, no division by the zero peak.
  EXPECT_EQ(KeyHeatmap::ascii_strip(std::vector<HeatBucket>(3)), "   ");
}

TEST(HeatmapTest, BucketWidthsSumToRangeOnNonDivisibleGeometry) {
  // range 101 over 64 buckets: nominal width 2, buckets 0..49 cover 2 keys,
  // bucket 50 covers one (key 100), buckets 51..63 cover none.
  KeyHeatmap h(101, 64);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < h.buckets(); ++i) sum += h.bucket_width(i);
  EXPECT_EQ(sum, 101u);
  EXPECT_EQ(h.bucket_width(0), 2u);
  EXPECT_EQ(h.bucket_width(49), 2u);
  EXPECT_EQ(h.bucket_width(50), 1u);
  EXPECT_EQ(h.bucket_width(51), 0u);
  EXPECT_EQ(h.bucket_width(h.buckets()), 0u);  // out of range -> 0

  // Divisible geometry: every bucket covers the same span.
  KeyHeatmap even(1000, 10);
  for (std::size_t i = 0; i < even.buckets(); ++i) {
    EXPECT_EQ(even.bucket_width(i), 100u);
  }
}

TEST(HeatmapTest, UniformStreamRendersFlatStripOnNonDivisibleRange) {
  // The regression this guards: with rounded-up bucketing, the last
  // populated bucket is narrower, so its raw count under a uniform stream is
  // lower — the unnormalized strip rendered it artificially cool. The
  // width-normalized strip() must render every populated bucket at the same
  // intensity and every dead trailing bucket blank.
  KeyHeatmap h(101, 64);
  for (std::uint64_t k = 0; k < 101; ++k) h.record_cas_failure(k);
  const std::string strip = h.strip(h.snapshot());
  ASSERT_EQ(strip.size(), h.buckets());
  for (std::size_t i = 0; i < h.buckets(); ++i) {
    if (h.bucket_width(i) > 0) {
      EXPECT_EQ(strip[i], '@') << "bucket " << i;
    } else {
      EXPECT_EQ(strip[i], ' ') << "bucket " << i;
    }
  }
  // The raw-count strip demonstrates the skew the fix removes: the narrow
  // bucket 50 renders cooler than its equally-hot neighbours.
  const std::string raw = KeyHeatmap::ascii_strip(h.snapshot());
  EXPECT_NE(raw[50], raw[0]);
}

// The acceptance-criteria property: under a Zipfian workload the heatmap
// visibly concentrates in the hot buckets; under uniform it does not.
// ZipfKeys makes low key values hot, so bucket 0 is the hot bucket.
using HeatTree = EfrbTreeSet<std::uint64_t, std::less<std::uint64_t>,
                             EpochReclaimer, obs::ObsTraits>;

WorkloadConfig heat_cfg(bool zipf) {
  WorkloadConfig cfg;
  cfg.threads = 3;
  cfg.key_range = 1 << 12;
  cfg.mix = kUpdateHeavy;
  cfg.zipf = zipf;
  cfg.duration = std::chrono::milliseconds(80);
  return cfg;
}

TEST(HeatmapWorkloadTest, ZipfConcentratesAttemptsUniformDoesNot) {
  KeyHeatmap heat(std::uint64_t{1} << 12);
  const obs::Instruments instruments{.heatmap = &heat};
  obs::ObsTraits::attach(&instruments);

  HeatTree zipf_tree;
  prefill(zipf_tree, 1 << 12, 0.5, 42);
  run_workload(zipf_tree, heat_cfg(true));
  const std::vector<HeatBucket> zipf_snap = heat.snapshot();

  heat.clear();
  HeatTree uni_tree;
  prefill(uni_tree, 1 << 12, 0.5, 42);
  run_workload(uni_tree, heat_cfg(false));
  const std::vector<HeatBucket> uni_snap = heat.snapshot();
  obs::ObsTraits::detach();

  auto share0 = [](const std::vector<HeatBucket>& snap) {
    std::uint64_t total = 0;
    for (const HeatBucket& b : snap) total += b.attempts;
    EXPECT_GT(total, 0u);
    return total == 0 ? 0.0
                      : static_cast<double>(snap[0].attempts) /
                            static_cast<double>(total);
  };
  // Zipf(0.99) over 4096 keys puts roughly half the mass on the first
  // 64-key bucket; uniform puts 1/64th (~1.6%) there. The thresholds leave
  // an order of magnitude of slack on each side.
  EXPECT_GT(share0(zipf_snap), 0.20);
  EXPECT_LT(share0(uni_snap), 0.10);
}

TEST(HeatmapWorkloadTest, ZipfContentionLandsInHotBucket) {
  // Contention events (CAS failures, helps, retries) are rare on a 1-CPU
  // box, so accumulate across rounds until there is enough signal, then
  // require the hot bucket to dominate: no other bucket may exceed it.
  KeyHeatmap heat(std::uint64_t{1} << 12);
  const obs::Instruments instruments{.heatmap = &heat};
  obs::ObsTraits::attach(&instruments);
  std::uint64_t contended = 0;
  for (int round = 0; round < 8 && contended < 60; ++round) {
    HeatTree tree;
    prefill(tree, 1 << 12, 0.5, 42 + round);
    run_workload(tree, heat_cfg(true));
    contended = 0;
    for (const HeatBucket& b : heat.snapshot()) contended += b.contended();
  }
  const std::vector<HeatBucket> snap = heat.snapshot();
  obs::ObsTraits::detach();
  ASSERT_GT(contended, 0u) << "no contention events in 8 zipf rounds";
  std::uint64_t hot = snap[0].contended();
  std::uint64_t elsewhere_max = 0;
  for (std::size_t i = 1; i < snap.size(); ++i) {
    elsewhere_max = std::max(elsewhere_max, snap[i].contended());
  }
  EXPECT_GE(hot, elsewhere_max)
      << "hot bucket " << hot << " vs max elsewhere " << elsewhere_max
      << " of " << contended << " total";
}

// ------------------------------------------------------------- metrics v2

TEST(MetricsV2Test, DocumentCarriesTimeseriesAndHeatmapSections) {
  WorkloadConfig cfg;
  WorkloadResult res;
  res.finds = 10;
  res.seconds = 0.1;
  std::vector<PollSample> samples;
  samples.push_back(sample_at(0, 0, 0, 0, 0, 0, 0));
  samples.push_back(sample_at(1'000'000'000, 500, 100, 5, 2, 50, 40));
  KeyHeatmap heat(1 << 10, 16);
  heat.record_attempt(1);
  heat.record_retry(1);

  obs::MetricsDocument doc("timeseries_test");
  doc.add_cell("cell", cfg, res, nullptr, nullptr, nullptr, &samples, &heat);
  const std::string json = doc.finish();

  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"heatmap\""), std::string::npos);
  EXPECT_NE(json.find("\"strip\""), std::string::npos);
  // The one computed window reports 500 ops over 1 s.
  EXPECT_NE(json.find("\"ops_per_s\":500"), std::string::npos) << json;
}

}  // namespace
}  // namespace efrb
