// Snapshot comparison for efrb-metrics documents: the engine behind
// tools/efrb_perfdiff, kept in a header so the logic is unit-testable.
//
// Two BENCH_*.json documents (schema "efrb-metrics", version >= 2) are
// loaded, cells are matched by identity (name + threads + mix + key_range +
// zipf), and for each matched cell the comparable metrics are diffed:
//
//   result.mops                 higher is better
//   latency.<op>.p50_ns/p99_ns  lower is better   (when both cells carry it)
//   profile.cycles_per_op       lower is better   (when both cells carry it)
//
// A delta counts as a regression only when it clears BOTH a relative
// threshold and an absolute floor — the floors keep microscopic absolute
// swings on tiny values (a 0.001 -> 0.0013 mops cell) from tripping the
// relative gate.
//
// Cross-host refusal: comparing cycle counts across different machines is
// noise by construction, so when BOTH documents carry a meta.hostname and
// they differ, the comparison refuses (PerfDiffReport::cross_host_refused)
// unless opts.allow_cross_host. Documents without meta (benchmark binaries
// write none; scripts/bench_json.sh injects it) compare without the guard.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_parse.hpp"

namespace efrb::obs {

struct PerfDiffOptions {
  double rel_threshold = 0.15;   // fraction; 0.15 = 15%
  double mops_floor = 0.01;      // Mops/s absolute floor
  double ns_floor = 50.0;        // nanoseconds absolute floor
  double cycles_floor = 25.0;    // cycles/op absolute floor
  bool allow_cross_host = false;
};

struct MetricDelta {
  std::string cell;     // "name t=<threads> mix=<mix>"
  std::string metric;   // e.g. "result.mops"
  double baseline = 0;  // value in document A
  double candidate = 0; // value in document B
  double rel_change = 0;  // signed, positive = candidate worse
  bool regression = false;
  bool improvement = false;  // cleared the same gates in the good direction
};

struct PerfDiffReport {
  bool ok = false;  // inputs parsed and were comparable (regardless of deltas)
  std::string error;  // set when !ok
  bool cross_host_refused = false;
  std::string host_a;
  std::string host_b;
  double threshold = 0;  // the relative gate applied (opts.rel_threshold)
  std::vector<MetricDelta> deltas;
  std::vector<std::string> notes;  // unmatched cells, config drift, ...

  std::size_t regressions() const noexcept {
    std::size_t n = 0;
    for (const MetricDelta& d : deltas) n += d.regression ? 1 : 0;
    return n;
  }
  std::size_t improvements() const noexcept {
    std::size_t n = 0;
    for (const MetricDelta& d : deltas) n += d.improvement ? 1 : 0;
    return n;
  }
};

namespace perfdiffdetail {

inline std::string cell_key(const JsonValue& cell) {
  std::string key(cell.string_at("name"));
  key += "|t=";
  key += std::to_string(
      static_cast<std::int64_t>(cell.number_at("config.threads", -1)));
  key += "|mix=";
  key += cell.string_at("config.mix");
  key += "|range=";
  key += std::to_string(
      static_cast<std::int64_t>(cell.number_at("config.key_range", -1)));
  const JsonValue* zipf = cell.find_path("config.zipf");
  if (zipf != nullptr && zipf->is_bool() && zipf->boolean) key += "|zipf";
  return key;
}

inline std::string cell_label(const JsonValue& cell) {
  std::string label(cell.string_at("name"));
  label += " t=";
  label += std::to_string(
      static_cast<std::int64_t>(cell.number_at("config.threads", -1)));
  label += " mix=";
  label += cell.string_at("config.mix");
  return label;
}

/// One comparable metric: dotted path + direction.
struct MetricSpec {
  const char* path;
  bool higher_better;
  double abs_floor(const PerfDiffOptions& o) const noexcept {
    const std::string_view p(path);
    if (p == "result.mops") return o.mops_floor;
    if (p.find("_ns") != std::string_view::npos) return o.ns_floor;
    return o.cycles_floor;
  }
};

inline const MetricSpec kMetrics[] = {
    {"result.mops", true},
    {"latency.find.p50_ns", false},
    {"latency.find.p99_ns", false},
    {"latency.insert.p50_ns", false},
    {"latency.insert.p99_ns", false},
    {"latency.erase.p50_ns", false},
    {"latency.erase.p99_ns", false},
    {"profile.cycles_per_op", false},
};

}  // namespace perfdiffdetail

/// Compare two parsed efrb-metrics documents. `a` is the baseline, `b` the
/// candidate.
inline PerfDiffReport perfdiff(const JsonValue& a, const JsonValue& b,
                               const PerfDiffOptions& opts = {}) {
  using namespace perfdiffdetail;
  PerfDiffReport rep;

  for (const auto* doc : {&a, &b}) {
    if (doc->string_at("schema") != "efrb-metrics") {
      rep.error = "not an efrb-metrics document (schema key mismatch)";
      return rep;
    }
    if (doc->number_at("schema_version", 0) < 2) {
      rep.error = "schema_version < 2 (no saturated/timeseries semantics); "
                  "regenerate the snapshot";
      return rep;
    }
  }

  rep.host_a = a.string_at("meta.hostname");
  rep.host_b = b.string_at("meta.hostname");
  if (!rep.host_a.empty() && !rep.host_b.empty() && rep.host_a != rep.host_b) {
    if (!opts.allow_cross_host) {
      rep.cross_host_refused = true;
      rep.error = "snapshots come from different hosts ('" + rep.host_a +
                  "' vs '" + rep.host_b +
                  "'); cycle comparisons across machines are noise — rerun on "
                  "one host or pass --allow-cross-host";
      return rep;
    }
    rep.notes.push_back("cross-host comparison forced ('" + rep.host_a +
                        "' vs '" + rep.host_b + "'): treat deltas as noise");
  }

  rep.threshold = opts.rel_threshold;

  const JsonValue* cells_a = a.find("cells");
  const JsonValue* cells_b = b.find("cells");
  if (cells_a == nullptr || !cells_a->is_array() || cells_b == nullptr ||
      !cells_b->is_array()) {
    rep.error = "missing cells array";
    return rep;
  }

  std::size_t matched = 0;
  for (const JsonValue& ca : cells_a->array) {
    const std::string key = cell_key(ca);
    const JsonValue* cb = nullptr;
    for (const JsonValue& candidate : cells_b->array) {
      if (cell_key(candidate) == key) {
        cb = &candidate;
        break;
      }
    }
    if (cb == nullptr) {
      rep.notes.push_back("cell only in baseline: " + cell_label(ca));
      continue;
    }
    ++matched;

    // Config drift worth a note (still compared): seed or duration changed.
    const double seed_a = ca.number_at("config.seed", -1);
    const double seed_b = cb->number_at("config.seed", -1);
    if (seed_a != seed_b) {
      rep.notes.push_back("seed differs for " + cell_label(ca) +
                          " (different op streams; deltas are statistical)");
    }
    const double dur_a = ca.number_at("config.duration_ms", -1);
    const double dur_b = cb->number_at("config.duration_ms", -1);
    if (dur_a != dur_b) {
      rep.notes.push_back("duration differs for " + cell_label(ca) + " (" +
                          std::to_string(static_cast<long>(dur_a)) + "ms vs " +
                          std::to_string(static_cast<long>(dur_b)) + "ms)");
    }

    for (const MetricSpec& spec : kMetrics) {
      const JsonValue* va = ca.find_path(spec.path);
      const JsonValue* vb = cb->find_path(spec.path);
      if (va == nullptr || vb == nullptr || !va->is_number() ||
          !vb->is_number()) {
        continue;  // metric absent on one side — not comparable, not an error
      }
      MetricDelta d;
      d.cell = cell_label(ca);
      d.metric = spec.path;
      d.baseline = va->number;
      d.candidate = vb->number;
      if (d.baseline <= 0) continue;  // empty histogram / zero-op cell
      // Positive rel_change = candidate worse, whatever the direction.
      const double change = (d.candidate - d.baseline) / d.baseline;
      d.rel_change = spec.higher_better ? -change : change;
      const double abs_delta = std::fabs(d.candidate - d.baseline);
      const bool significant = std::fabs(d.rel_change) >
                                   rep.threshold &&
                               abs_delta > spec.abs_floor(opts);
      d.regression = significant && d.rel_change > 0;
      d.improvement = significant && d.rel_change < 0;
      rep.deltas.push_back(std::move(d));
    }
  }
  for (const JsonValue& cb : cells_b->array) {
    const std::string key = cell_key(cb);
    bool found = false;
    for (const JsonValue& ca : cells_a->array) {
      if (cell_key(ca) == key) {
        found = true;
        break;
      }
    }
    if (!found) {
      rep.notes.push_back("cell only in candidate: " + cell_label(cb));
    }
  }

  if (matched == 0) {
    rep.error = "no cells matched between the two documents";
    return rep;
  }
  rep.ok = true;
  return rep;
}

/// Render the report as an aligned text table: regressions first, then
/// improvements, then (with `verbose`) the unchanged rows; notes last.
inline std::string render_perfdiff(const PerfDiffReport& rep,
                                   bool verbose = false) {
  std::string out;
  char line[256];
  auto emit = [&out, &line](const MetricDelta& d, const char* tag) {
    std::snprintf(line, sizeof(line), "%-10s %-42s %-24s %14.4g %14.4g %+8.1f%%\n",
                  tag, d.cell.c_str(), d.metric.c_str(), d.baseline,
                  d.candidate,
                  // Signed change in the metric's own direction (positive =
                  // the number went up).
                  100.0 * (d.candidate - d.baseline) /
                      (d.baseline != 0 ? d.baseline : 1));
    out += line;
  };
  std::snprintf(line, sizeof(line), "%-10s %-42s %-24s %14s %14s %9s\n", "",
                "cell", "metric", "baseline", "candidate", "change");
  out += line;
  for (const MetricDelta& d : rep.deltas) {
    if (d.regression) emit(d, "REGRESSED");
  }
  for (const MetricDelta& d : rep.deltas) {
    if (d.improvement) emit(d, "improved");
  }
  if (verbose) {
    for (const MetricDelta& d : rep.deltas) {
      if (!d.regression && !d.improvement) emit(d, "");
    }
  }
  std::snprintf(line, sizeof(line),
                "%zu metric(s) compared, %zu regression(s), %zu "
                "improvement(s), threshold %.0f%%\n",
                rep.deltas.size(), rep.regressions(), rep.improvements(),
                100.0 * rep.threshold);
  out += line;
  for (const std::string& n : rep.notes) {
    out += "note: ";
    out += n;
    out += "\n";
  }
  return out;
}

}  // namespace efrb::obs
