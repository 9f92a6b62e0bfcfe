// Tests for the observability layer (src/obs/): histogram bucket math and
// quantile agreement with the exact Summary, trace-ring wraparound and Chrome
// export ordering, reclaimer gauge monotonicity across a reclaim cycle, the
// JSON writer's escaping, the runner's opt-in latency sampling, and the
// dependency-free JSON parser (escapes, surrogate pairs, strict number
// grammar, depth cap, trailing-garbage rejection). The concurrent-record
// test doubles as the TSan witness that the histogram's record path is safe
// from any number of threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/efrb_tree.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/instruments.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reclaim/epoch.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/runner.hpp"

namespace efrb {
namespace {

using obs::JsonValue;
using obs::JsonWriter;
using obs::LatencyHistogram;
using obs::TraceEvent;
using obs::TraceEventKind;
using obs::TraceOp;
using obs::TraceRegistry;
using obs::TraceRing;

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, IndexMathBoundaries) {
  // Below kSubCount every value has its own bucket (exact).
  EXPECT_EQ(LatencyHistogram::index_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::index_of(31), 31u);
  EXPECT_EQ(LatencyHistogram::bucket_lower(7), 7u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(7), 7u);
  // Every bucket's bounds round-trip through index_of, and buckets tile the
  // domain with no gaps.
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::index_of(LatencyHistogram::bucket_lower(i)), i);
    EXPECT_EQ(LatencyHistogram::index_of(LatencyHistogram::bucket_upper(i)), i);
    EXPECT_EQ(LatencyHistogram::bucket_upper(i) + 1,
              LatencyHistogram::bucket_lower(i + 1));
  }
  // Saturation: everything past kMaxValue lands in the last bucket.
  EXPECT_EQ(LatencyHistogram::index_of(LatencyHistogram::kMaxValue),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::index_of(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
}

TEST(HistogramTest, RelativeErrorBoundedBySubBucketCount) {
  // The log-bucketing contract: bucket width never exceeds lower/32 (one part
  // in 2^kSubBits), the "within ~3% of the true value" guarantee.
  const std::uint64_t probes[] = {100, 1000, 123456, 99999999,
                                  LatencyHistogram::kMaxValue};
  for (std::uint64_t v : probes) {
    const std::uint64_t lower =
        LatencyHistogram::bucket_lower(LatencyHistogram::index_of(v));
    EXPECT_LE(LatencyHistogram::bucket_width(v),
              std::max<std::uint64_t>(1, lower / 32))
        << "value " << v;
  }
}

TEST(HistogramTest, MergedQuantilesMatchSummaryWithinOneBucket) {
  // Record the same 10k samples into an exact Summary and into four
  // per-thread histograms (round-robin, as the runner does), then merge and
  // compare quantiles: the histogram's answer must be within one bucket
  // width of the exact order statistic (plus the sample spacing, since the
  // histogram uses nearest-rank and Summary interpolates).
  Summary exact;
  std::vector<LatencyHistogram> per_thread(4);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const std::uint64_t v = 1 + (i * 7919) % 100000;
    exact.add(static_cast<double>(v));
    per_thread[i % 4].record(v);
  }
  LatencyHistogram merged;
  for (const auto& h : per_thread) merged.merge(h);
  ASSERT_EQ(merged.count(), 10000u);
  EXPECT_DOUBLE_EQ(merged.mean(), exact.mean());

  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9}) {
    const double want = exact.percentile(p);
    const auto got = static_cast<double>(merged.percentile(p));
    const auto width = static_cast<double>(
        LatencyHistogram::bucket_width(static_cast<std::uint64_t>(want)));
    // Sorted adjacent samples are ~10 apart; rank may differ by one.
    EXPECT_NEAR(got, want, width + 16.0) << "p" << p;
    // percentile() reports a bucket *upper* bound — never an underestimate
    // beyond the interpolation slack.
    EXPECT_GE(got + 16.0, want) << "p" << p;
  }
}

TEST(HistogramTest, ConcurrentRecordKeepsExactCounts) {
  // 4 threads, 50k records each, no locks anywhere on the record path; the
  // totals must come out exact. Run under TSan, this is the data-race
  // witness for the wait-free record path.
  LatencyHistogram shared;
  constexpr std::uint64_t kPerThread = 50000;
  std::uint64_t expected_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) {
    expected_sum += 4 * (1 + (i * 31) % 5000);
  }
  run_threads(4, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      shared.record(1 + (i * 31) % 5000);
    }
  });
  EXPECT_EQ(shared.count(), 4 * kPerThread);
  std::uint64_t bucket_total = 0;
  shared.for_each_bucket(
      [&](std::uint64_t, std::uint64_t, std::uint64_t c) { bucket_total += c; });
  EXPECT_EQ(bucket_total, 4 * kPerThread);
  EXPECT_DOUBLE_EQ(shared.mean(),
                   static_cast<double>(expected_sum) / (4.0 * kPerThread));
}

TEST(HistogramTest, ClearResetsEverything) {
  LatencyHistogram h;
  h.record(42);
  h.record(100000);
  h.record(LatencyHistogram::kMaxValue + 1);
  ASSERT_EQ(h.count(), 3u);
  ASSERT_EQ(h.saturated(), 1u);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.saturated(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.max_estimate(), 0u);
}

TEST(HistogramTest, SaturationCounterSeparatesClampsFromMeasuredTail) {
  // Records above the 38-bit ns domain are clamped into the top bucket (so
  // quantiles stay usable) and counted, so a clamped tail is distinguishable
  // from a genuinely measured one. Regression for the silent-clamp era:
  // saturated() must move in lockstep with out-of-domain records only.
  LatencyHistogram h;
  h.record(LatencyHistogram::kMaxValue);  // in-domain: not a saturation
  EXPECT_EQ(h.saturated(), 0u);
  h.record(LatencyHistogram::kMaxValue + 1);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.saturated(), 2u);
  EXPECT_EQ(h.count(), 3u);
  // All three landed in the top bucket; the counter is the only way to tell
  // them apart.
  EXPECT_EQ(h.percentile(50), LatencyHistogram::bucket_upper(
                                  LatencyHistogram::kBuckets - 1));
  // merge() carries the saturation count along with the buckets.
  LatencyHistogram other;
  other.record(LatencyHistogram::kMaxValue + 5);
  h.merge(other);
  EXPECT_EQ(h.saturated(), 3u);
  // The metrics document surfaces it per histogram.
  JsonWriter w;
  obs::append_histogram(w, h);
  EXPECT_NE(w.str().find("\"saturated\":3"), std::string::npos);
}

// -------------------------------------------------------------------- trace

TEST(TraceRingTest, WraparoundKeepsLatestWindow) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.push({i, TraceEventKind::kPoint, 0, false});
  }
  EXPECT_EQ(ring.pushed(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 12 + i);  // oldest first, latest window
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(0).capacity(), 1u);
  TraceRing r(3);
  r.push({1, TraceEventKind::kPoint, 0, false});
  EXPECT_EQ(r.snapshot().size(), 1u);
  EXPECT_EQ(r.dropped(), 0u);
}

Event cas_event(unsigned tid, CasStep s, bool ok) {
  return {EventKind::kCas, static_cast<std::uint8_t>(s), ok, nullptr, tid};
}

Event point_event(unsigned tid, HookPoint p) {
  return {EventKind::kPoint, static_cast<std::uint8_t>(p), false, nullptr, tid};
}

TEST(TraceRegistryTest, DropsEventsWithoutUsableTid) {
  TraceRegistry reg(2, 8);
  reg.on_event(cas_event(kNoTid, CasStep::kIFlag, true));
  reg.on_event(cas_event(7, CasStep::kIFlag, true));  // out of range
  EXPECT_EQ(reg.dropped_no_tid(), 2u);
  EXPECT_TRUE(reg.snapshot(0).empty());
  EXPECT_TRUE(reg.snapshot(1).empty());
  EXPECT_TRUE(reg.snapshot(7).empty());  // out-of-range snapshot is empty too
}

TEST(TraceRegistryTest, ChromeExportOrderedAndWellFormed) {
  TraceRegistry reg(2, 16);
  reg.record_op_begin(0, TraceOp::kInsert);
  reg.on_event(cas_event(0, CasStep::kIFlag, true));
  reg.on_event(point_event(0, HookPoint::kBeforeHelp));
  reg.on_event(cas_event(0, CasStep::kIChild, false));
  reg.on_event(point_event(0, HookPoint::kAfterHelp));
  reg.record_op_end(0, TraceOp::kInsert, true);
  reg.record_op_begin(1, TraceOp::kErase);
  reg.record_op_end(1, TraceOp::kErase, false);

  // Per-ring snapshots preserve push order with monotone timestamps.
  const auto events = reg.snapshot(0);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kOpBegin);
  EXPECT_EQ(events[2].kind, TraceEventKind::kHelpEnter);
  EXPECT_EQ(events[4].kind, TraceEventKind::kHelpExit);
  EXPECT_EQ(events[5].kind, TraceEventKind::kOpEnd);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }

  const std::string json = reg.chrome_trace_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("cas:iflag:ok"), std::string::npos);
  EXPECT_NE(json.find("cas:ichild:fail"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  // Export walks rings in order and each ring oldest-first: tid 0's op-begin
  // "insert" precedes its first CAS, which precedes tid 1's "erase".
  const auto pos_insert = json.find("\"insert\"");
  const auto pos_cas = json.find("cas:iflag:ok");
  const auto pos_erase = json.find("\"erase\"");
  ASSERT_NE(pos_insert, std::string::npos);
  ASSERT_NE(pos_erase, std::string::npos);
  EXPECT_LT(pos_insert, pos_cas);
  EXPECT_LT(pos_cas, pos_erase);
}

TEST(TraceTraitsTest, TracedTreeEmitsProtocolCasEvents) {
  // Rings must be large enough that this run's ~400 events (CAS + hook
  // points per op) don't wrap — wraparound keeps only the latest window.
  TraceRegistry reg(8, 1024);
  const obs::Instruments instruments{.trace = &reg};
  obs::ObsTraits::attach(&instruments);
  {
    EfrbTreeSet<std::uint64_t, std::less<std::uint64_t>, EpochReclaimer,
                obs::ObsTraits>
        t;
    auto h = t.handle();
    for (std::uint64_t k = 0; k < 32; ++k) h.insert(k);
    for (std::uint64_t k = 0; k < 32; k += 2) h.erase(k);
  }
  obs::ObsTraits::detach();

  std::uint64_t cas_ok = 0;
  for (unsigned tid = 0; tid < reg.max_tids(); ++tid) {
    for (const TraceEvent& e : reg.snapshot(tid)) {
      if (e.kind == TraceEventKind::kCas && e.ok) ++cas_ok;
    }
  }
  // 32 inserts (iflag+ichild+iunflag) + 16 deletes (dflag+mark+dchild+
  // dunflag), uncontended: every protocol CAS succeeds and is traced.
  EXPECT_GE(cas_ok, 32u * 3 + 16u * 4);
}

TEST(TraceTraitsTest, UninstalledRegistryIsIgnored) {
  // Events must be safe no-ops with nothing attached, and with an
  // Instruments that carries no sinks.
  const Event cas{EventKind::kCas, static_cast<std::uint8_t>(CasStep::kIFlag),
                  true, nullptr, 0};
  const Event point{EventKind::kPoint,
                    static_cast<std::uint8_t>(HookPoint::kAfterSearch)};
  obs::ObsTraits::detach();
  obs::ObsTraits::on_event(cas);
  obs::ObsTraits::on_event(point);
  const obs::Instruments empty;
  obs::ObsTraits::attach(&empty);
  obs::ObsTraits::on_event(cas);
  obs::ObsTraits::on_event(point);
  obs::ObsTraits::detach();
}

TEST(TraceTraitsTest, EverySinkSeesEachCasExactlyOnce) {
  // A 2-thread ObsTraits run with the trace attached through Instruments
  // and a flight recorder over it: each CAS is one event in one ring, so
  // the ring and its dump hold exactly as many kCas records as the
  // per-step stats counted. The rings are sized so nothing wraps.
  constexpr std::size_t kRing = std::size_t{1} << 15;
  TraceRegistry reg(4, kRing);
  const obs::FlightRecorder flight(reg);
  const obs::Instruments instruments{.trace = &reg};
  obs::ObsTraits::attach(&instruments);
  EfrbTreeSet<std::uint64_t, std::less<std::uint64_t>, EpochReclaimer,
              obs::ObsTraits>
      t;
  run_threads(2, [&](std::size_t tid) {
    auto h = t.handle();
    Xoshiro256 rng(tid + 11);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t k = rng.next_below(32);  // hot: force helping
      if (rng.next_below(2) == 0) {
        h.insert(k);
      } else {
        h.erase(k);
      }
    }
  });
  obs::ObsTraits::detach();

  const TreeStats s = t.stats();
  std::uint64_t stats_cas = 0;
  for (std::size_t i = 0; i < kNumCasSteps; ++i) stats_cas += s.cas_attempts[i];
  const std::string path = ::testing::TempDir() + "obs_exactly_once.bin";
  ASSERT_TRUE(flight.dump_to_path(path.c_str()));
  obs::FlightDump dump;
  ASSERT_TRUE(obs::FlightDump::read_file(path, &dump));
  std::remove(path.c_str());
  std::uint64_t trace_cas = 0;
  std::uint64_t flight_cas = 0;
  for (unsigned tid = 0; tid < reg.max_tids(); ++tid) {
    const std::vector<TraceEvent> traced = reg.snapshot(tid);
    ASSERT_LT(traced.size(), kRing) << "trace ring wrapped";
    for (const TraceEvent& e : traced) {
      trace_cas += e.kind == TraceEventKind::kCas ? 1 : 0;
    }
    const std::vector<TraceEvent> flown = dump.events(tid);
    ASSERT_EQ(flown.size(), traced.size()) << "dump differs from ring";
    for (const TraceEvent& e : flown) {
      flight_cas += e.kind == TraceEventKind::kCas ? 1 : 0;
    }
  }
  EXPECT_GT(stats_cas, 0u);
  EXPECT_EQ(trace_cas, flight_cas);
  EXPECT_EQ(trace_cas, stats_cas);
  EXPECT_EQ(reg.dropped_no_tid(), 0u);
}

TEST(TraceRingTest, LiveSnapshotNeverTearsAnEvent) {
  // One writer pushes events whose fields are all functions of the same
  // sequence number (code and ok derive from ts); two readers snapshot the
  // whole time. A torn read — fields from two different events mixed in one
  // slot — would break the cross-field invariant. The tiny ring makes the
  // readers race a wraparound on nearly every push; under TSan this doubles
  // as the data-race witness for the packed single-word slots.
  TraceRing ring(32);
  constexpr std::uint64_t kPushes = 100000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> events_checked{0};
  run_threads(3, [&](std::size_t id) {
    if (id == 0) {
      for (std::uint64_t i = 1; i <= kPushes; ++i) {
        ring.push({i, TraceEventKind::kPoint,
                   static_cast<std::uint8_t>(i & 0xFF), (i & 1) != 0});
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    std::uint64_t checked = 0;
    do {
      for (const TraceEvent& e : ring.snapshot()) {
        ASSERT_EQ(e.kind, TraceEventKind::kPoint);
        ASSERT_EQ(e.code, static_cast<std::uint8_t>(e.ts_ns & 0xFF));
        ASSERT_EQ(e.ok, (e.ts_ns & 1) != 0);
        ++checked;
      }
    } while (!stop.load(std::memory_order_acquire));
    events_checked.fetch_add(checked, std::memory_order_relaxed);
  });
  EXPECT_GT(events_checked.load(std::memory_order_relaxed), 0u);
  // At quiescence the snapshot is exact: the latest window, in order.
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), ring.capacity());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, kPushes - ring.capacity() + 1 + i);
  }
}

TEST(TraceRegistryTest, LiveExportWhileWritersStillRecord) {
  // The export contract from the header: snapshot()/chrome_trace_json() may
  // race live recorders and every exported event is still well-formed (a
  // valid kind, an in-range code) with JSON that parses shape-wise. Three
  // writers hammer their own rings while the fourth thread exports in a
  // loop until all writers are done.
  TraceRegistry reg(4, 64);
  constexpr int kWriters = 3;
  std::atomic<int> writers_done{0};
  run_threads(4, [&](std::size_t id) {
    if (id < kWriters) {
      const auto tid = static_cast<unsigned>(id);
      for (std::uint64_t i = 0; i < 20000; ++i) {
        reg.on_event(cas_event(tid, static_cast<CasStep>(i % kNumCasSteps),
                               (i & 1) != 0));
        if ((i & 7) == 0) {
          reg.on_event(point_event(tid, HookPoint::kBeforeHelp));
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
      return;
    }
    do {
      for (unsigned tid = 0; tid < reg.max_tids(); ++tid) {
        for (const TraceEvent& e : reg.snapshot(tid)) {
          ASSERT_LE(static_cast<unsigned>(e.kind),
                    static_cast<unsigned>(TraceEventKind::kOpEnd));
          if (e.kind == TraceEventKind::kCas) {
            ASSERT_LT(e.code, kNumCasSteps);
          }
        }
      }
      const std::string json = reg.chrome_trace_json();
      ASSERT_FALSE(json.empty());
      ASSERT_EQ(json.front(), '{');
      ASSERT_EQ(json.back(), '}');
    } while (writers_done.load(std::memory_order_acquire) < kWriters);
  });
  // Quiescent: every writer ring wrapped many times and kept the window.
  for (unsigned tid = 0; tid < kWriters; ++tid) {
    EXPECT_EQ(reg.snapshot(tid).size(), 64u);
  }
  EXPECT_EQ(reg.dropped_no_tid(), 0u);
}

// ------------------------------------------------------------------- gauges

TEST(GaugeTest, MonotoneAcrossEpochReclaimCycle) {
  EfrbTreeSet<std::uint64_t> t(std::less<std::uint64_t>{},
                               EpochReclaimer(8, 4));
  const ReclaimGauges g0 = t.reclaimer().gauges();
  EXPECT_EQ(g0.retired_total, 0u);
  EXPECT_EQ(g0.freed_total, 0u);

  ReclaimGauges prev = g0;
  for (int round = 0; round < 3; ++round) {
    auto h = t.handle();
    for (std::uint64_t k = 0; k < 256; ++k) h.insert(k);
    for (std::uint64_t k = 0; k < 256; ++k) h.erase(k);
    const ReclaimGauges g = t.reclaimer().gauges();
    // Counters are monotone, levels stay consistent.
    EXPECT_GE(g.retired_total, prev.retired_total);
    EXPECT_GE(g.freed_total, prev.freed_total);
    EXPECT_GE(g.pins, prev.pins);
    EXPECT_GE(g.unpins, prev.unpins);
    EXPECT_GE(g.epoch, prev.epoch);
    EXPECT_GE(g.retired_total, g.freed_total);
    EXPECT_EQ(g.backlog(), g.retired_total - g.freed_total);
    prev = g;
  }
  // 768 deletes retired nodes; with batch 4 the epoch advanced and sweeps
  // actually freed. At quiescence every pin has been matched by an unpin.
  EXPECT_GT(prev.retired_total, 0u);
  EXPECT_GT(prev.freed_total, 0u);
  EXPECT_GT(prev.epoch, g0.epoch);
  EXPECT_GT(prev.pins, 0u);
  EXPECT_EQ(prev.pins, prev.unpins);
  EXPECT_EQ(prev.orphan_depth, 0u);
}

TEST(GaugeTest, LeakyReclaimerReportsAllZero) {
  LeakyReclaimer leaky;
  const ReclaimGauges g = leaky.gauges();
  EXPECT_EQ(g.retired_total, 0u);
  EXPECT_EQ(g.freed_total, 0u);
  EXPECT_EQ(g.pins, 0u);
  EXPECT_EQ(g.backlog(), 0u);
}

// ------------------------------------------------------------- json writer

TEST(JsonWriterTest, EscapesAndNestsCorrectly) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("s").value("q\"\\\n\t");
  w.key("c").value(std::string_view("\x01", 1));
  w.key("arr").begin_array().value(true).null().value(2.5).end_array();
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.key("nan").value(std::nan(""));
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"s\":\"q\\\"\\\\\\n\\t\",\"c\":\"\\u0001\","
            "\"arr\":[true,null,2.5],\"inf\":null,\"nan\":null}");
}

TEST(JsonWriterTest, EmptyScopesAndCompleteness) {
  JsonWriter w;
  w.begin_object();
  w.key("empty_obj").begin_object().end_object();
  w.key("empty_arr").begin_array().end_array();
  EXPECT_FALSE(w.complete());  // object still open
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(w.str(), "{\"empty_obj\":{},\"empty_arr\":[]}");
}

// ------------------------------------------------- metrics document / runner

TEST(MetricsTest, DocumentCarriesSchemaAndCells) {
  WorkloadConfig cfg;
  WorkloadResult res;
  res.finds = 10;
  res.inserts = 5;
  res.erases = 5;
  res.seconds = 1.0;
  obs::MetricsDocument doc("obs_test");
  doc.add_cell("cell-one", cfg, res);
  const std::string json = doc.finish();
  EXPECT_NE(json.find("\"schema\":\"efrb-metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cell-one\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ops\":20"), std::string::npos);
}

TEST(RunnerTest, LatencySamplingCountsEveryOperation) {
  EfrbTreeSet<std::uint64_t> t;
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.key_range = 256;
  cfg.mix = kUpdateHeavy;
  cfg.duration = std::chrono::milliseconds(40);
  prefill(t, cfg.key_range, cfg.prefill_fraction, cfg.seed);

  LatencySamples lat;
  const obs::Instruments instruments{.latency = &lat};
  const WorkloadResult res = run_workload(t, cfg, &instruments);
  EXPECT_GT(res.total_ops(), 0u);
  // Every operation lands in exactly one of the per-op histograms.
  EXPECT_EQ(lat.find.count(), res.finds);
  EXPECT_EQ(lat.insert.count(), res.inserts);
  EXPECT_EQ(lat.erase.count(), res.erases);
  EXPECT_EQ(lat.total_count(), res.total_ops());
  // Sampled latencies are plausible op durations, not clock garbage.
  EXPECT_GT(lat.insert.percentile(50), 0u);
  EXPECT_LT(lat.insert.percentile(99), std::uint64_t{1} << 34);
}

// ----------------------------------------------------------- json parser

TEST(JsonParseTest, ParsesScalarsAndContainers) {
  std::string err;
  std::optional<JsonValue> v = obs::parse_json(
      R"({"a": 1.5, "b": [true, false, null], "c": {"d": -2e3}})", &err);
  ASSERT_TRUE(v.has_value()) << err;
  EXPECT_DOUBLE_EQ(v->number_at("a", 0), 1.5);
  const JsonValue* b = v->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_FALSE(b->array[1].boolean);
  EXPECT_TRUE(b->array[2].is_null());
  EXPECT_DOUBLE_EQ(v->number_at("c.d", 0), -2000.0);
  EXPECT_DOUBLE_EQ(v->number_at("missing.path", 7.0), 7.0);
}

TEST(JsonParseTest, DecodesEscapesAndSurrogatePairs) {
  std::string err;
  std::optional<JsonValue> v = obs::parse_json(
      R"({"s": "a\"b\\c\ndA😀"})", &err);
  ASSERT_TRUE(v.has_value()) << err;
  EXPECT_EQ(v->string_at("s"), "a\"b\\c\ndA\xF0\x9F\x98\x80");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(obs::parse_json("{\"a\": 1} trailing", &err).has_value());
  EXPECT_NE(err.find("trailing"), std::string::npos);
  EXPECT_FALSE(obs::parse_json("{\"a\": 01}").has_value());   // leading zero
  EXPECT_FALSE(obs::parse_json("{\"a\": 1.}").has_value());   // bad fraction
  EXPECT_FALSE(obs::parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(obs::parse_json("{\"a\" 1}").has_value());     // no colon
  EXPECT_FALSE(obs::parse_json(R"({"s":"\q"})").has_value()); // bad escape
  EXPECT_FALSE(obs::parse_json(R"({"s":"\uD800"})").has_value());  // lone hi
  EXPECT_FALSE(obs::parse_json("\"unterminated").has_value());
  EXPECT_FALSE(obs::parse_json("").has_value());
}

TEST(JsonParseTest, DepthCapStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  std::string err;
  EXPECT_FALSE(obs::parse_json(deep, &err).has_value());
  EXPECT_NE(err.find("deep"), std::string::npos);
}

}  // namespace
}  // namespace efrb
