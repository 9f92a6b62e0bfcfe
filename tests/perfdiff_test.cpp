// Tests for the perf-regression pipeline (PR 10): the dependency-free JSON
// parser (escapes, surrogate pairs, strict number grammar, depth cap,
// trailing-garbage rejection) and the snapshot comparison engine behind
// tools/efrb_perfdiff — identical snapshots compare clean, a doctored 2x
// regression is flagged, improvements are tracked separately, absolute
// floors suppress microscopic swings, cross-host comparisons refuse unless
// forced, and an archived meta.repeats field leaves the gate unchanged.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "obs/json_parse.hpp"
#include "obs/perfdiff.hpp"

namespace efrb {
namespace {

using obs::JsonValue;
using obs::MetricDelta;
using obs::PerfDiffOptions;
using obs::PerfDiffReport;

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

// ------------------------------------------------------- perfdiff engine

/// A one-cell efrb-metrics document with tweakable knobs. `host` empty =
/// no meta block (what freshly-run binaries emit).
std::string make_doc(double mops, double p99 = 800.0,
                     double cycles_per_op = 450.0,
                     const std::string& host = "", int seed = 42) {
  std::string s = R"({"schema":"efrb-metrics","schema_version":4,"tool":"t",)";
  if (!host.empty()) s += "\"meta\":{\"hostname\":\"" + host + "\"},";
  s += R"("cells":[{"name":"efrb-tree/bench","config":{"threads":4,)";
  s += "\"mix\":\"balanced\",\"key_range\":1024,\"seed\":" +
       std::to_string(seed) + ",\"duration_ms\":100},";
  s += "\"result\":{\"mops\":" + std::to_string(mops) + "},";
  s += "\"latency\":{\"find\":{\"p50_ns\":300,\"p99_ns\":" +
       std::to_string(p99) + "}},";
  s += "\"profile\":{\"cycles_per_op\":" + std::to_string(cycles_per_op) +
       "}}]}";
  return s;
}

JsonValue parse_ok(const std::string& text) {
  std::string err;
  std::optional<JsonValue> v = obs::parse_json(text, &err);
  EXPECT_TRUE(v.has_value()) << err;
  return v.has_value() ? *v : JsonValue{};
}

TEST(PerfDiffTest, IdenticalSnapshotsCompareClean) {
  const JsonValue doc = parse_ok(make_doc(5.0));
  const PerfDiffReport rep = obs::perfdiff(doc, doc);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.regressions(), 0u);
  EXPECT_EQ(rep.improvements(), 0u);
  EXPECT_FALSE(rep.deltas.empty());  // metrics compared, all inside the band
}

TEST(PerfDiffTest, DoctoredTwoXRegressionIsFlagged) {
  const JsonValue base = parse_ok(make_doc(5.0, 800.0, 450.0));
  // Candidate: throughput halved, p99 doubled, cycles/op doubled.
  const JsonValue cand = parse_ok(make_doc(2.5, 1600.0, 900.0));
  const PerfDiffReport rep = obs::perfdiff(base, cand);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.regressions(), 3u);
  bool saw_mops = false;
  for (const MetricDelta& d : rep.deltas) {
    if (d.metric == "result.mops") {
      saw_mops = true;
      EXPECT_TRUE(d.regression);
      EXPECT_NEAR(d.rel_change, 0.5, 1e-9);  // mops halved = 50% worse
    }
  }
  EXPECT_TRUE(saw_mops);
  const std::string table = obs::render_perfdiff(rep);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
  EXPECT_NE(table.find("result.mops"), std::string::npos);
}

TEST(PerfDiffTest, ImprovementsAreTrackedNotFlagged) {
  const JsonValue base = parse_ok(make_doc(2.5, 1600.0, 900.0));
  const JsonValue cand = parse_ok(make_doc(5.0, 800.0, 450.0));
  const PerfDiffReport rep = obs::perfdiff(base, cand);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.regressions(), 0u);
  EXPECT_EQ(rep.improvements(), 3u);
}

TEST(PerfDiffTest, AbsoluteFloorsSuppressMicroscopicSwings) {
  // 0.002 -> 0.001 mops is 50% relative but far below the 0.01 Mops floor.
  const JsonValue base = parse_ok(make_doc(0.002));
  const JsonValue cand = parse_ok(make_doc(0.001));
  const PerfDiffReport rep = obs::perfdiff(base, cand);
  ASSERT_TRUE(rep.ok) << rep.error;
  for (const MetricDelta& d : rep.deltas) {
    if (d.metric == "result.mops") {
      EXPECT_FALSE(d.regression);
    }
  }
}

TEST(PerfDiffTest, CrossHostRefusesUnlessForced) {
  const JsonValue a = parse_ok(make_doc(5.0, 800, 450, "host-a"));
  const JsonValue b = parse_ok(make_doc(5.0, 800, 450, "host-b"));
  const PerfDiffReport refused = obs::perfdiff(a, b);
  EXPECT_FALSE(refused.ok);
  EXPECT_TRUE(refused.cross_host_refused);
  EXPECT_NE(refused.error.find("host"), std::string::npos);

  PerfDiffOptions opts;
  opts.allow_cross_host = true;
  const PerfDiffReport forced = obs::perfdiff(a, b, opts);
  ASSERT_TRUE(forced.ok) << forced.error;
  bool noted = false;
  for (const std::string& n : forced.notes) {
    if (n.find("cross-host") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(PerfDiffTest, MissingMetaSkipsTheHostGuard) {
  // Fresh runs carry no meta (bench_json.sh injects it); same-host and
  // no-meta documents must compare without refusal.
  const JsonValue bare = parse_ok(make_doc(5.0));
  const JsonValue hosted = parse_ok(make_doc(5.0, 800, 450, "host-a"));
  EXPECT_TRUE(obs::perfdiff(bare, bare).ok);
  EXPECT_TRUE(obs::perfdiff(bare, hosted).ok);
  EXPECT_TRUE(obs::perfdiff(hosted, hosted).ok);
}

TEST(PerfDiffTest, ArchivedRepeatsFieldDoesNotTightenTheGate) {
  // Archived snapshots still carry meta.repeats. No bench binary repeats
  // anything, so the field must not change the gate: a 12% drop stays
  // inside a 20% threshold whatever it claims.
  const auto archived = [](double mops) {
    std::string doc = make_doc(mops, 800, 450, "h");
    doc.insert(doc.find("\"hostname\""), "\"repeats\":5,");
    return parse_ok(doc);
  };
  PerfDiffOptions opts;
  opts.rel_threshold = 0.2;
  const PerfDiffReport rep = obs::perfdiff(archived(5.0), archived(4.4), opts);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_DOUBLE_EQ(rep.threshold, 0.2);
  EXPECT_EQ(rep.regressions(), 0u);
}

TEST(PerfDiffTest, UnmatchedCellsBecomeNotesAndNoMatchIsAnError) {
  const JsonValue a = parse_ok(make_doc(5.0));
  std::string other = make_doc(5.0);
  // Rename the cell so nothing matches.
  const std::size_t at = other.find("efrb-tree/bench");
  other.replace(at, 15, "other-tree/cell");
  const JsonValue b = parse_ok(other);
  const PerfDiffReport rep = obs::perfdiff(a, b);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("no cells matched"), std::string::npos);
}

TEST(PerfDiffTest, SeedDriftIsNotedButStillCompared) {
  const JsonValue a = parse_ok(make_doc(5.0, 800, 450, "", 42));
  const JsonValue b = parse_ok(make_doc(5.0, 800, 450, "", 43));
  const PerfDiffReport rep = obs::perfdiff(a, b);
  ASSERT_TRUE(rep.ok) << rep.error;
  bool noted = false;
  for (const std::string& n : rep.notes) {
    if (n.find("seed differs") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(PerfDiffTest, SchemaGuardRejectsForeignOrAncientDocuments) {
  const JsonValue good = parse_ok(make_doc(5.0));
  const JsonValue foreign = parse_ok(R"({"schema":"other","cells":[]})");
  EXPECT_FALSE(obs::perfdiff(good, foreign).ok);
  const JsonValue ancient = parse_ok(
      R"({"schema":"efrb-metrics","schema_version":1,"cells":[]})");
  EXPECT_FALSE(obs::perfdiff(good, ancient).ok);
  EXPECT_FALSE(obs::perfdiff(ancient, good).ok);
}

TEST(PerfDiffTest, MetricsAbsentOnEitherSideAreSkippedSilently) {
  const JsonValue full = parse_ok(make_doc(5.0));
  // A document whose cell has only the result (no latency, no profile).
  const JsonValue lean = parse_ok(
      R"({"schema":"efrb-metrics","schema_version":4,"tool":"t","cells":[)"
      R"({"name":"efrb-tree/bench","config":{"threads":4,"mix":"balanced",)"
      R"("key_range":1024,"seed":42,"duration_ms":100},)"
      R"("result":{"mops":5.0}}]})");
  const PerfDiffReport rep = obs::perfdiff(full, lean);
  ASSERT_TRUE(rep.ok) << rep.error;
  for (const MetricDelta& d : rep.deltas) {
    EXPECT_EQ(d.metric, "result.mops");  // the only shared metric
  }
  EXPECT_EQ(rep.regressions(), 0u);
}

}  // namespace
}  // namespace efrb
