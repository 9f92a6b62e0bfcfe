// The machine-readable metrics document: a stable, schema-versioned JSON
// bundle of everything a benchmark run knows — workload configuration,
// throughput result, protocol step counters, latency histograms, and
// reclaimer gauges — so the bench binaries' --json output, the archived
// snapshots under bench/history/ and any external tooling share one
// self-describing format instead of scraping text tables. It is the repo's
// only machine-readable metrics export.
//
// Document shape (kMetricsSchemaVersion = 4):
//   {
//     "schema": "efrb-metrics",
//     "schema_version": 4,
//     "tool": "<bench binary name>",
//     "meta": { hostname, cpu_model, ... },  // optional, archive-only
//     "cells": [
//       {
//         "name": "...",                 // structure / cell label
//         "config": { threads, key_range, mix, duration_ms, ... },
//         "result": { finds, inserts, ..., seconds, mops },
//         "tree_stats": { ... },         // optional, when counted
//         "gauges": { ... },             // optional, when exposed
//         "latency": {                   // optional, when sampled; each
//           "find": { histogram }, ...   // histogram carries "saturated"
//         },
//         "timeseries": {                // optional, when a poller ran
//           "samples": [...], "windows": [...]
//         },
//         "heatmap": { ... },            // optional, when a heatmap fed
//         "causality": { ... },          // optional, when causal-traced
//         "profile": { ... },            // optional, when a profiler ran
//         "watchdog": { ... }            // optional, when a watchdog ran
//       }, ...
//     ]
//   }
// v1 -> v2: histograms gained the "saturated" count (records clamped into
// the top bucket), and cells gained the optional "timeseries" (windowed-rate
// series from obs/timeseries.hpp) and "heatmap" (key-space contention from
// obs/heatmap.hpp) sections. Consumers MUST ignore unknown keys; producers
// bump kMetricsSchemaVersion only on breaking changes (removing/renaming
// keys or changing meanings — the v2 bump marks the "saturated" semantics
// change: the top bucket now separates measured tail from clamp artifacts).
// v2 -> v3: cells gained the optional "causality" section (the help-chain
// attribution matrix from obs/causal.hpp) and the "latency" section gained
// the self_completed / helper_completed histogram pair. The version bump
// marks the latency semantics change: with a causal registry attached, the
// per-type histograms no longer describe purely self-completed work — the
// split pair is the authoritative decomposition. docs/OBSERVABILITY.md is
// the schema's prose home.
// v3 -> v4: cells gained the optional "profile" section (per-phase cost
// attribution and hardware counters from obs/profile.hpp / obs/perfctr.hpp),
// and documents may carry an optional top-level "meta" object (host, CPU
// model, governor, perf_event_paranoid). Only the archived snapshots under
// bench/history/ carry it; no producer writes it, and readers ignore it
// like any other unknown key. The version bump marks a semantics commitment,
// not a key change: inside "profile", hardware-derived sections ("hw",
// "sw", "derived") are ABSENT — never zero-filled — when the backing
// counters were unavailable, so consumers can distinguish "measured zero"
// from "not measured".
// v4, additive: cells gained the optional "watchdog" section
// (stalled_ops, stall_events_total from obs/watchdog.hpp). A new optional
// key is not a breaking change, so the version stays 4.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "core/op_context.hpp"
#include "obs/causal.hpp"
#include "obs/heatmap.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "reclaim/reclaimer.hpp"
#include "workload/runner.hpp"

namespace efrb::obs {

inline constexpr int kMetricsSchemaVersion = 4;

inline void append_config(JsonWriter& w, const WorkloadConfig& cfg) {
  w.begin_object();
  w.key("threads").value(static_cast<std::uint64_t>(cfg.threads));
  w.key("key_range").value(cfg.key_range);
  w.key("mix").value(mix_name(cfg.mix));
  w.key("insert_pct").value(cfg.mix.insert_pct);
  w.key("erase_pct").value(cfg.mix.erase_pct);
  w.key("duration_ms").value(static_cast<std::int64_t>(cfg.duration.count()));
  w.key("prefill_fraction").value(cfg.prefill_fraction);
  w.key("seed").value(cfg.seed);
  w.key("zipf").value(cfg.zipf);
  if (cfg.zipf) w.key("zipf_theta").value(cfg.zipf_theta);
  w.end_object();
}

inline void append_result(JsonWriter& w, const WorkloadResult& r) {
  w.begin_object();
  w.key("finds").value(r.finds);
  w.key("inserts").value(r.inserts);
  w.key("erases").value(r.erases);
  w.key("ok_finds").value(r.ok_finds);
  w.key("ok_inserts").value(r.ok_inserts);
  w.key("ok_erases").value(r.ok_erases);
  w.key("total_ops").value(r.total_ops());
  w.key("seconds").value(r.seconds);
  w.key("mops").value(r.mops());
  w.end_object();
}

inline void append_tree_stats(JsonWriter& w, const TreeStats& s) {
  w.begin_object();
  w.key("insert_attempts").value(s.insert_attempts);
  w.key("insert_retries").value(s.insert_retries);
  w.key("delete_attempts").value(s.delete_attempts);
  w.key("delete_retries").value(s.delete_retries);
  w.key("helps").value(s.helps);
  w.key("backtracks").value(s.backtracks);
  // Balance telemetry (PR 7): committed rebalancing transformations and the
  // descent-depth distribution (zero everywhere for structures that do not
  // sample them, e.g. the unbalanced EFRB tree reports rotations == 0).
  w.key("rotations").value(s.rotations);
  w.key("cleanup_abandoned").value(s.cleanup_abandoned);
  w.key("depth").begin_object();
  w.key("samples").value(s.depth_samples);
  w.key("avg").value(s.depth_avg());
  w.key("max").value(s.depth_max);
  w.end_object();
  w.key("cas").begin_object();
  for (std::size_t i = 0; i < kNumCasSteps; ++i) {
    w.key(to_string(static_cast<CasStep>(i))).begin_object();
    w.key("attempts").value(s.cas_attempts[i]);
    w.key("failures").value(s.cas_failures[i]);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

inline void append_gauges(JsonWriter& w, const ReclaimGauges& g) {
  w.begin_object();
  w.key("retired_total").value(g.retired_total);
  w.key("freed_total").value(g.freed_total);
  w.key("backlog").value(g.backlog());
  w.key("orphan_depth").value(g.orphan_depth);
  w.key("pins").value(g.pins);
  w.key("unpins").value(g.unpins);
  w.key("epoch").value(g.epoch);
  w.end_object();
}

/// Histogram summary + sparse bucket dump (only non-empty buckets; lower
/// bound and count per bucket, upper bounds reconstructible from the bucket
/// math documented in docs/OBSERVABILITY.md).
inline void append_histogram(JsonWriter& w, const LatencyHistogram& h) {
  w.begin_object();
  w.key("count").value(h.count());
  w.key("mean_ns").value(h.mean());
  w.key("min_ns").value(h.min_estimate());
  w.key("max_ns").value(h.max_estimate());
  w.key("p50_ns").value(h.percentile(50));
  w.key("p90_ns").value(h.percentile(90));
  w.key("p99_ns").value(h.percentile(99));
  w.key("p999_ns").value(h.percentile(99.9));
  w.key("saturated").value(h.saturated());
  w.key("buckets").begin_array();
  h.for_each_bucket([&w](std::uint64_t lo, std::uint64_t /*hi*/,
                         std::uint64_t count) {
    w.begin_array().value(lo).value(count).end_array();
  });
  w.end_array();
  w.end_object();
}

inline void append_latency(JsonWriter& w, const LatencySamples& lat) {
  w.begin_object();
  w.key("find");
  append_histogram(w, lat.find);
  w.key("insert");
  append_histogram(w, lat.insert);
  w.key("erase");
  append_histogram(w, lat.erase);
  w.key("retried");
  append_histogram(w, lat.retried);
  // The v3 causal split (empty histograms unless the run attached a
  // CausalRegistry — see run_workload's `causal` parameter).
  w.key("self_completed");
  append_histogram(w, lat.self_completed);
  w.key("helper_completed");
  append_histogram(w, lat.helper_completed);
  w.end_object();
}

/// Causality section (v3): the helper x owner attribution matrix and
/// per-tid help totals from obs/causal.hpp.
inline void append_causality(JsonWriter& w, const CausalRegistry& c) {
  c.append_json(w);
}

/// Watchdog section: stalled ops at the last poll and stalled-op
/// observations across all polls.
inline void append_watchdog(JsonWriter& w, const LivenessWatchdog& wd) {
  w.begin_object();
  w.key("stalled_ops").value(wd.stalled_now());
  w.key("stall_events_total").value(wd.stall_events_total());
  w.end_object();
}

/// Time-series section: the raw cumulative samples (so consumers can rebin
/// or recompute) plus the derived windowed rates, both oldest first.
inline void append_timeseries(JsonWriter& w,
                              const std::vector<PollSample>& samples) {
  w.begin_object();
  w.key("samples").begin_array();
  for (const PollSample& s : samples) {
    w.begin_object();
    w.key("t_ns").value(s.t_ns);
    w.key("ops").value(s.ops);
    w.key("cas_attempts").value(s.cas_attempts_total());
    w.key("cas_failures").value(s.cas_failures_total());
    w.key("helps").value(s.stats.helps);
    w.key("retries").value(s.stats.insert_retries + s.stats.delete_retries);
    w.key("retired").value(s.gauges.retired_total);
    w.key("freed").value(s.gauges.freed_total);
    w.key("backlog").value(s.gauges.backlog());
    w.end_object();
  }
  w.end_array();
  w.key("windows").begin_array();
  for (const WindowRates& r : window_rates(samples)) {
    w.begin_object();
    w.key("t_ns").value(r.t_ns);
    w.key("window_s").value(r.window_s);
    w.key("ops_per_s").value(r.ops_per_s);
    w.key("cas_failure_rate").value(r.cas_failure_rate);
    w.key("helps_per_s").value(r.helps_per_s);
    w.key("retries_per_s").value(r.retries_per_s);
    w.key("retired_per_s").value(r.retired_per_s);
    w.key("freed_per_s").value(r.freed_per_s);
    w.key("backlog_slope").value(r.backlog_slope);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// Heatmap section: bucket geometry plus one [attempts, cas_failures, helps,
/// retries] row per key-range bucket (dense — bucket index is the array
/// position), and the ASCII strip for humans paging through raw JSON.
inline void append_heatmap(JsonWriter& w, const KeyHeatmap& h) {
  const std::vector<HeatBucket> buckets = h.snapshot();
  w.begin_object();
  w.key("key_range").value(h.key_range());
  w.key("buckets").value(static_cast<std::uint64_t>(h.buckets()));
  w.key("dropped").value(h.dropped());
  // Width-normalized strip (rounded-up bucketing leaves the last populated
  // bucket narrower, and possibly dead trailing buckets, when the range does
  // not divide evenly — raw counts would render those artificially cool).
  w.key("strip").value(h.strip(buckets));
  w.key("widths").begin_array();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    w.value(h.bucket_width(i));
  }
  w.end_array();
  w.key("cells").begin_array();
  for (const HeatBucket& b : buckets) {
    w.begin_array()
        .value(b.attempts)
        .value(b.cas_failures)
        .value(b.helps)
        .value(b.retries)
        .end_array();
  }
  w.end_array();
  w.end_object();
}

/// Profile section (v4): per-phase cost attribution plus whatever hardware/
/// software counters the host granted. The "hw", "sw" and "derived"
/// sub-objects are emitted only when their backing counters were collected
/// (and inside "hw" each counter key appears only when its fd opened) — an
/// unavailable rate is absent, never zero. "cycles" fields are in
/// cycle_stamp() units; "source" names that clock ("tsc" on x86-64).
inline void append_profile(JsonWriter& w, const ProfileSnapshot& p) {
  w.begin_object();
  w.key("available").value(p.available);
  w.key("sw_available").value(p.sw_available);
  w.key("source").value(std::string_view(p.source));
  if (!p.available) {
    w.key("unavailable_reason").value(std::string_view(p.unavailable_reason));
  }
  w.key("paranoid").value(static_cast<std::int64_t>(p.paranoid));
  w.key("ops").value(p.ops);
  w.key("cycles").value(p.cycles);
  w.key("span_cycles").value(p.span_cycles);
  w.key("cycles_per_op").value(p.cycles_per_op());
  w.key("phase_cycles_sum").value(p.phase_cycles_sum());
  w.key("events_outside_op").value(p.events_outside_op);
  w.key("dropped").value(p.dropped);
  w.key("phases").begin_object();
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    w.key(to_string(static_cast<Phase>(i))).begin_object();
    w.key("cycles").value(p.phases[i].cycles);
    w.key("enters").value(p.phases[i].enters);
    w.key("share").value(p.phase_share(i));
    double est = 0;
    if (p.phase_cycles_est(i, &est)) w.key("hw_cycles_est").value(est);
    w.end_object();
  }
  w.end_object();
  if (p.available) {
    w.key("hw").begin_object();
    w.key("threads").value(static_cast<std::uint64_t>(p.hw_threads));
    if (p.hw.cycles_ok) w.key("cycles").value(p.hw.cycles);
    if (p.hw.instructions_ok) w.key("instructions").value(p.hw.instructions);
    if (p.hw.cache_references_ok) {
      w.key("cache_references").value(p.hw.cache_references);
    }
    if (p.hw.cache_misses_ok) w.key("cache_misses").value(p.hw.cache_misses);
    if (p.hw.branch_misses_ok) {
      w.key("branch_misses").value(p.hw.branch_misses);
    }
    w.key("time_enabled_ns").value(p.hw.time_enabled_ns);
    w.key("time_running_ns").value(p.hw.time_running_ns);
    w.end_object();
  }
  if (p.sw_available) {
    w.key("sw").begin_object();
    if (p.hw.task_clock_ok) w.key("task_clock_ns").value(p.hw.task_clock_ns);
    if (p.hw.context_switches_ok) {
      w.key("context_switches").value(p.hw.context_switches);
    }
    w.end_object();
  }
  if (p.available) {
    w.key("derived").begin_object();
    double v = 0;
    if (p.hw_cycles_per_op(&v)) w.key("hw_cycles_per_op").value(v);
    if (p.ipc(&v)) w.key("ipc").value(v);
    if (p.cache_miss_rate(&v)) w.key("cache_miss_rate").value(v);
    if (p.branch_miss_per_kinstr(&v)) {
      w.key("branch_miss_per_kinstr").value(v);
    }
    if (p.multiplex_scale(&v)) w.key("multiplex_scale").value(v);
    w.end_object();
  }
  w.end_object();
}

/// Builder for one metrics document. Cells are added as pre-serialized JSON
/// fragments (via the append_* helpers above or the all-in-one add_cell), so
/// callers with exotic payloads can still participate.
class MetricsDocument {
 public:
  explicit MetricsDocument(std::string tool) : tool_(std::move(tool)) {
    w_.begin_object();
    w_.key("schema").value("efrb-metrics");
    w_.key("schema_version").value(kMetricsSchemaVersion);
    w_.key("tool").value(std::string_view(tool_));
    w_.key("cells").begin_array();
  }

  /// Open a cell object; caller writes members via writer() (starting with
  /// any of the append_* helpers, each preceded by writer().key(...)), then
  /// calls end_cell().
  JsonWriter& begin_cell(std::string_view name) {
    w_.begin_object();
    w_.key("name").value(name);
    return w_;
  }
  void end_cell() { w_.end_object(); }

  /// The common whole cell: config + result, plus stats/gauges/latency/
  /// timeseries/heatmap/causality/profile/watchdog when provided.
  void add_cell(std::string_view name, const WorkloadConfig& cfg,
                const WorkloadResult& res, const TreeStats* stats = nullptr,
                const ReclaimGauges* gauges = nullptr,
                const LatencySamples* latency = nullptr,
                const std::vector<PollSample>* timeseries = nullptr,
                const KeyHeatmap* heatmap = nullptr,
                const CausalRegistry* causal = nullptr,
                const ProfileSnapshot* profile = nullptr,
                const LivenessWatchdog* watchdog = nullptr) {
    begin_cell(name);
    w_.key("config");
    append_config(w_, cfg);
    w_.key("result");
    append_result(w_, res);
    if (stats != nullptr) {
      w_.key("tree_stats");
      append_tree_stats(w_, *stats);
    }
    if (gauges != nullptr) {
      w_.key("gauges");
      append_gauges(w_, *gauges);
    }
    if (latency != nullptr) {
      w_.key("latency");
      append_latency(w_, *latency);
    }
    if (timeseries != nullptr) {
      w_.key("timeseries");
      append_timeseries(w_, *timeseries);
    }
    if (heatmap != nullptr) {
      w_.key("heatmap");
      append_heatmap(w_, *heatmap);
    }
    if (causal != nullptr) {
      w_.key("causality");
      append_causality(w_, *causal);
    }
    if (profile != nullptr) {
      w_.key("profile");
      append_profile(w_, *profile);
    }
    if (watchdog != nullptr) {
      w_.key("watchdog");
      append_watchdog(w_, *watchdog);
    }
    end_cell();
  }

  JsonWriter& writer() noexcept { return w_; }

  /// Close the document and return the JSON text. Call once.
  std::string finish() {
    w_.end_array();
    w_.end_object();
    return w_.take();
  }

  /// finish() + write to `path`; returns false on I/O failure.
  bool write(const std::string& path) { return write_file(path, finish()); }

 private:
  std::string tool_;
  JsonWriter w_;
};

}  // namespace efrb::obs
