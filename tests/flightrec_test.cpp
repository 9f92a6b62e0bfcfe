// Flight recorder (obs/flightrec.hpp): record -> dump -> decode roundtrip,
// gauge and progress-table capture, ring wraparound retention, corrupt-dump
// rejection, and the crash path itself — a death test whose child aborts
// with the signal handler installed, after which the parent parses the dump
// the dying child left behind.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "core/op_context.hpp"
#include "obs/flightrec.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "reclaim/epoch.hpp"

namespace efrb {
namespace {

using obs::FlightDump;
using obs::FlightRecorder;
using obs::TraceEvent;
using obs::TraceEventKind;

// Deliberately pid-free: the threadsafe death tests re-exec the test binary,
// so the child must compute the SAME path the parent will read after it dies.
std::string temp_dump_path(const char* tag) {
  return ::testing::TempDir() + "flightrec_" + tag + ".bin";
}

std::vector<std::uint64_t> dump_words(const FlightRecorder& rec) {
  const std::string path = temp_dump_path("words");
  EXPECT_TRUE(rec.dump_to_path(path.c_str()));
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size() % sizeof(std::uint64_t), 0u);
  std::vector<std::uint64_t> words(bytes.size() / sizeof(std::uint64_t));
  std::memcpy(words.data(), bytes.data(), bytes.size());
  return words;
}

// ------------------------------------------------------------- roundtrip

TEST(FlightRecTest, DumpRoundTripsEventsGaugesAndProgress) {
  FlightRecorder rec(/*max_tids=*/4, /*ring_capacity=*/64);
  std::atomic<std::uint64_t> retired{17};
  std::atomic<std::uint64_t> freed{5};
  rec.add_gauge("reclaim_retired", &retired);
  rec.add_gauge("reclaim_freed", &freed);

  ProgressTable table;
  rec.attach_progress(&table);
  ProgressSlot* slot = table.acquire(2);
  slot->op_key.store(99, std::memory_order_relaxed);
  slot->last_step.store(static_cast<std::uint32_t>(CasStep::kDFlag),
                        std::memory_order_relaxed);
  slot->op_seq.store(1, std::memory_order_release);  // in flight

  rec.record(0, TraceEventKind::kCas,
             static_cast<std::uint8_t>(CasStep::kIFlag), true);
  rec.record(0, TraceEventKind::kPoint,
             static_cast<std::uint8_t>(HookPoint::kAfterSearch), false);
  rec.record(1, TraceEventKind::kHelpEnter,
             static_cast<std::uint8_t>(HookPoint::kBeforeHelp), false);
  rec.record_help_owner(1, pack_owner(2, 41));
  rec.record_help_owner(1, kNoOwner);  // must be dropped, not recorded

  const std::string path = temp_dump_path("roundtrip");
  ASSERT_TRUE(rec.dump_to_path(path.c_str()));

  FlightDump dump;
  ASSERT_TRUE(FlightDump::read_file(path, &dump));
  std::remove(path.c_str());

  EXPECT_EQ(dump.version, obs::kFlightVersion);
  EXPECT_EQ(dump.max_tids, 4u);
  EXPECT_EQ(dump.ring_cap, 64u);

  ASSERT_EQ(dump.gauges.size(), 2u);
  EXPECT_EQ(dump.gauges[0].name, "reclaim_retired");
  EXPECT_EQ(dump.gauges[0].value, 17u);
  EXPECT_EQ(dump.gauges[1].name, "reclaim_freed");
  EXPECT_EQ(dump.gauges[1].value, 5u);

  ASSERT_EQ(dump.slots.size(), ProgressTable::kMaxHandles);
  std::size_t in_flight = 0;
  for (const obs::FlightSlot& s : dump.slots) {
    if (s.tid == kNoTid) continue;
    EXPECT_TRUE(s.in_flight());
    EXPECT_EQ(s.tid, 2u);
    EXPECT_EQ(s.op_key, 99u);
    EXPECT_EQ(static_cast<CasStep>(s.last_step), CasStep::kDFlag);
    ++in_flight;
  }
  EXPECT_EQ(in_flight, 1u);

  const std::vector<TraceEvent> t0 = dump.events(0);
  ASSERT_EQ(t0.size(), 2u);
  EXPECT_EQ(t0[0].kind, TraceEventKind::kCas);
  EXPECT_EQ(static_cast<CasStep>(t0[0].code), CasStep::kIFlag);
  EXPECT_TRUE(t0[0].ok);
  EXPECT_EQ(t0[1].kind, TraceEventKind::kPoint);

  const std::vector<TraceEvent> t1 = dump.events(1);
  ASSERT_EQ(t1.size(), 2u);  // help-enter + owner slot; kNoOwner dropped
  EXPECT_EQ(t1[0].kind, TraceEventKind::kHelpEnter);
  EXPECT_EQ(t1[1].kind, TraceEventKind::kHelpOwner);
  EXPECT_EQ(t1[1].code, 2u);      // owner tid
  EXPECT_EQ(t1[1].ts_ns, 41u);    // owner op_seq rides the ts field
  EXPECT_TRUE(dump.events(2).empty());
  EXPECT_TRUE(dump.events(99).empty());

  ProgressTable::release(slot);
}

TEST(FlightRecTest, RingRetainsNewestEventsAfterWraparound) {
  FlightRecorder rec(/*max_tids=*/1, /*ring_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    rec.record(0, TraceEventKind::kCas, static_cast<std::uint8_t>(i & 7),
               (i & 1) != 0);
  }
  const std::string path = temp_dump_path("wrap");
  ASSERT_TRUE(rec.dump_to_path(path.c_str()));
  FlightDump dump;
  ASSERT_TRUE(FlightDump::read_file(path, &dump));
  std::remove(path.c_str());

  const std::vector<TraceEvent> events = dump.events(0);
  ASSERT_EQ(events.size(), 8u);  // capacity bounds retention
  // Oldest retained is record #12, newest #19.
  EXPECT_EQ(events.front().code, 12u & 7u);
  EXPECT_EQ(events.back().code, 19u & 7u);
}

TEST(FlightRecTest, GaugeTableIsBoundedAndRecordsIgnoreBadTids) {
  FlightRecorder rec(/*max_tids=*/2, /*ring_capacity=*/8);
  std::atomic<std::uint64_t> v{1};
  for (std::size_t i = 0; i < FlightRecorder::kMaxGauges + 10; ++i) {
    rec.add_gauge("g", &v);  // registrations past the cap are ignored
  }
  rec.add_gauge(nullptr, &v);
  rec.add_gauge("null-value", nullptr);
  rec.record(kNoTid, TraceEventKind::kCas, 0, true);  // dropped
  rec.record(7, TraceEventKind::kCas, 0, true);       // out of range

  FlightDump dump;
  ASSERT_TRUE(FlightDump::parse(dump_words(rec), &dump));
  EXPECT_EQ(dump.gauges.size(), FlightRecorder::kMaxGauges);
  EXPECT_TRUE(dump.events(0).empty());
  EXPECT_TRUE(dump.events(1).empty());
}

// ------------------------------------------------------- corrupt rejection

TEST(FlightRecTest, ParseRejectsCorruptAndTruncatedDumps) {
  FlightRecorder rec(/*max_tids=*/2, /*ring_capacity=*/8);
  rec.record(0, TraceEventKind::kCas, 1, true);
  const std::vector<std::uint64_t> words = dump_words(rec);
  FlightDump dump;
  ASSERT_TRUE(FlightDump::parse(words, &dump));

  {  // bad magic
    std::vector<std::uint64_t> w = words;
    w[0] ^= 1;
    EXPECT_FALSE(FlightDump::parse(w, &dump));
  }
  {  // unknown version
    std::vector<std::uint64_t> w = words;
    w[1] = 999;
    EXPECT_FALSE(FlightDump::parse(w, &dump));
  }
  {  // truncated body
    std::vector<std::uint64_t> w(words.begin(), words.end() - 3);
    EXPECT_FALSE(FlightDump::parse(w, &dump));
  }
  {  // absurd ring capacity (not a power of two)
    std::vector<std::uint64_t> w = words;
    w[3] = 7;
    EXPECT_FALSE(FlightDump::parse(w, &dump));
  }
  {  // absurd gauge count
    std::vector<std::uint64_t> w = words;
    w[4] = FlightRecorder::kMaxGauges + 1;
    EXPECT_FALSE(FlightDump::parse(w, &dump));
  }
  EXPECT_FALSE(FlightDump::parse({}, &dump));
  EXPECT_FALSE(FlightDump::read_file("/nonexistent/flight.bin", &dump));
}

// ----------------------------------------------------------- crash path
//
// The child installs the handler, records traffic through a real ObsTraits
// tree with the recorder attached, then aborts. EXPECT_DEATH observes SIGABRT (the handler
// re-raises), and the parent — same process, after the child died — decodes
// the dump the child's signal handler wrote.

using FlightTree =
    EfrbTreeSet<int, std::less<int>, EpochReclaimer, obs::ObsTraits>;

TEST(FlightRecDeathTest, AbortHandlerWritesDecodableDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_dump_path("crash");
  std::remove(path.c_str());

  EXPECT_DEATH(
      {
        FlightRecorder rec(/*max_tids=*/8, /*ring_capacity=*/256);
        const obs::Instruments instruments{.flight = &rec};
        obs::ObsTraits::attach(&instruments);
        FlightTree t;
        rec.attach_progress(&t.progress_table());
        obs::install_flight_handler(&rec, path.c_str());
        auto h = t.handle();
        for (int i = 0; i < 100; ++i) {
          h.insert(i);
          h.erase(i / 2);
        }
        std::abort();
      },
      "");

  FlightDump dump;
  ASSERT_TRUE(FlightDump::read_file(path, &dump))
      << "signal handler left no decodable dump at " << path;
  EXPECT_EQ(dump.version, obs::kFlightVersion);
  EXPECT_EQ(dump.max_tids, 8u);
  ASSERT_EQ(dump.slots.size(), ProgressTable::kMaxHandles);
  // The child's traffic ran through the attached recorder: tid 0's ring must
  // hold protocol events.
  EXPECT_FALSE(dump.events(0).empty());
  bool saw_cas = false;
  for (const TraceEvent& e : dump.events(0)) {
    saw_cas |= e.kind == TraceEventKind::kCas;
  }
  EXPECT_TRUE(saw_cas);
  std::remove(path.c_str());
}

// Uninstall restores the previous disposition: after install + uninstall an
// abort must NOT write a dump.

TEST(FlightRecDeathTest, UninstallStopsDumping) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_dump_path("uninstalled");
  std::remove(path.c_str());

  EXPECT_DEATH(
      {
        FlightRecorder rec(2, 8);
        obs::install_flight_handler(&rec, path.c_str());
        obs::uninstall_flight_handler();
        std::abort();
      },
      "");

  FlightDump dump;
  EXPECT_FALSE(FlightDump::read_file(path, &dump));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace efrb
