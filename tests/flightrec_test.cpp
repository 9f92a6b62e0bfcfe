// Flight recorder (obs/flightrec.hpp): trace -> dump -> decode roundtrip,
// gauge and progress-table capture, the dropped-tid gauge, the single-ring
// contract (the dump is the trace registry's rings, help-owner slots
// included), corrupt-dump rejection, and the crash path itself — a death
// test whose child aborts with the signal handler installed, after which
// the parent parses the dump the dying child left behind.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/efrb_tree.hpp"
#include "core/op_context.hpp"
#include "inject/fault_plan.hpp"
#include "inject/fault_scheduler.hpp"
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
using obs::TraceRegistry;

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

Event cas_event(unsigned tid, CasStep s, bool ok) {
  return {EventKind::kCas, static_cast<std::uint8_t>(s), ok, nullptr, tid};
}

Event point_event(unsigned tid, HookPoint p) {
  return {EventKind::kPoint, static_cast<std::uint8_t>(p), false, nullptr, tid};
}

Event help_entry(unsigned tid, std::uint64_t owner) {
  return {EventKind::kHelp,
          static_cast<std::uint8_t>(HookPoint::kBeforeHelp),
          false,
          nullptr,
          tid,
          kNoKey,
          owner};
}

/// The dumped value of gauge `name`, or nullptr when it is absent.
const obs::FlightGauge* find_gauge(const FlightDump& dump, const char* name) {
  for (const obs::FlightGauge& g : dump.gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

// ------------------------------------------------------------- roundtrip

TEST(FlightRecTest, DumpRoundTripsEventsGaugesAndProgress) {
  TraceRegistry reg(/*max_tids=*/4, /*ring_capacity=*/64);
  FlightRecorder rec(reg);
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

  reg.record_op_begin(0, obs::TraceOp::kInsert);
  reg.on_event(cas_event(0, CasStep::kIFlag, true));
  reg.on_event(point_event(0, HookPoint::kAfterSearch));
  reg.record_op_end(0, obs::TraceOp::kInsert, true);
  reg.on_event(help_entry(1, pack_owner(2, 41)));
  reg.on_event(help_entry(1, kNoOwner));  // no owner: no companion slot

  const std::string path = temp_dump_path("roundtrip");
  ASSERT_TRUE(rec.dump_to_path(path.c_str()));

  FlightDump dump;
  ASSERT_TRUE(FlightDump::read_file(path, &dump));
  std::remove(path.c_str());

  EXPECT_EQ(dump.version, obs::kFlightVersion);
  EXPECT_EQ(dump.max_tids, 4u);
  EXPECT_EQ(dump.ring_cap, 64u);

  // The registry's drop counter is always the first gauge.
  ASSERT_EQ(dump.gauges.size(), 3u);
  EXPECT_EQ(dump.gauges[0].name, "trace_dropped_no_tid");
  EXPECT_EQ(dump.gauges[0].value, 0u);
  EXPECT_EQ(dump.gauges[1].name, "reclaim_retired");
  EXPECT_EQ(dump.gauges[1].value, 17u);
  EXPECT_EQ(dump.gauges[2].name, "reclaim_freed");
  EXPECT_EQ(dump.gauges[2].value, 5u);

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

  // Op markers ride in the same ring as the protocol events.
  const std::vector<TraceEvent> t0 = dump.events(0);
  ASSERT_EQ(t0.size(), 4u);
  EXPECT_EQ(t0[0].kind, TraceEventKind::kOpBegin);
  EXPECT_EQ(static_cast<obs::TraceOp>(t0[0].code), obs::TraceOp::kInsert);
  EXPECT_EQ(t0[1].kind, TraceEventKind::kCas);
  EXPECT_EQ(static_cast<CasStep>(t0[1].code), CasStep::kIFlag);
  EXPECT_TRUE(t0[1].ok);
  EXPECT_EQ(t0[2].kind, TraceEventKind::kPoint);
  EXPECT_EQ(t0[3].kind, TraceEventKind::kOpEnd);
  EXPECT_TRUE(t0[3].ok);

  const std::vector<TraceEvent> t1 = dump.events(1);
  ASSERT_EQ(t1.size(), 3u);  // help-enter + owner slot, then a bare entry
  EXPECT_EQ(t1[0].kind, TraceEventKind::kHelpEnter);
  EXPECT_EQ(t1[1].kind, TraceEventKind::kHelpOwner);
  EXPECT_EQ(t1[1].code, 2u);      // owner tid
  EXPECT_EQ(t1[1].ts_ns, 41u);    // owner op_seq rides the ts field
  EXPECT_EQ(t1[2].kind, TraceEventKind::kHelpEnter);
  EXPECT_TRUE(dump.events(2).empty());
  EXPECT_TRUE(dump.events(99).empty());

  ProgressTable::release(slot);
}

TEST(FlightRecTest, RingRetainsNewestEventsAfterWraparound) {
  // TraceRingTest covers the ring itself; this pins the decoder's window
  // reconstruction from a wrapped ring's raw head and slot words.
  TraceRegistry reg(/*max_tids=*/1, /*ring_capacity=*/8);
  FlightRecorder rec(reg);
  for (int i = 0; i < 20; ++i) {
    reg.on_event(cas_event(0, static_cast<CasStep>(i & 7), (i & 1) != 0));
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
  TraceRegistry reg(/*max_tids=*/2, /*ring_capacity=*/8);
  FlightRecorder rec(reg);
  std::atomic<std::uint64_t> v{1};
  for (std::size_t i = 0; i < FlightRecorder::kMaxGauges + 10; ++i) {
    rec.add_gauge("g", &v);  // registrations past the cap are ignored
  }
  rec.add_gauge(nullptr, &v);
  rec.add_gauge("null-value", nullptr);
  reg.on_event(cas_event(kNoTid, CasStep::kIFlag, true));  // dropped
  reg.on_event(cas_event(7, CasStep::kIFlag, true));       // out of range

  FlightDump dump;
  ASSERT_TRUE(FlightDump::parse(dump_words(rec), &dump));
  EXPECT_EQ(dump.gauges.size(), FlightRecorder::kMaxGauges);
  EXPECT_TRUE(dump.events(0).empty());
  EXPECT_TRUE(dump.events(1).empty());
  const obs::FlightGauge* dropped = find_gauge(dump, "trace_dropped_no_tid");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value, 2u);
}

// ------------------------------------------------------ dropped tids

using FlightTree =
    EfrbTreeSet<int, std::less<int>, EpochReclaimer, obs::ObsTraits>;

TEST(FlightRecTest, HandlesPastMaxTidsAreCountedInTheDump) {
  // Handle tids are creation-ordered and never reused, so a tree's third
  // handle falls outside a two-ring registry. Its events are counted, and
  // the count reaches the dump as the trace_dropped_no_tid gauge.
  TraceRegistry reg(/*max_tids=*/2, /*ring_capacity=*/64);
  FlightRecorder rec(reg);
  const obs::Instruments instruments{.trace = &reg};
  obs::ObsTraits::attach(&instruments);
  FlightTree t;
  auto h0 = t.handle();
  auto h1 = t.handle();
  auto h2 = t.handle();
  ASSERT_EQ(h2.tid(), 2u);
  for (int i = 0; i < 8; ++i) {
    h0.insert(i);
    h1.insert(i + 8);
    h2.insert(i + 16);
  }
  obs::ObsTraits::detach();

  FlightDump dump;
  ASSERT_TRUE(FlightDump::parse(dump_words(rec), &dump));
  const obs::FlightGauge* dropped = find_gauge(dump, "trace_dropped_no_tid");
  ASSERT_NE(dropped, nullptr);
  EXPECT_GT(dropped->value, 0u);
  EXPECT_EQ(dropped->value, reg.dropped_no_tid());
  EXPECT_FALSE(dump.events(0).empty());
  EXPECT_FALSE(dump.events(1).empty());
}

// ------------------------------------------------------ the single ring
//
// A forced help on a tree whose only sink is the trace registry: the dump
// must be exactly the registry's rings, and the helper's ring must carry the
// kHelpOwner companion slot although no CausalRegistry is attached.

struct StallTraits : inject::InjectTraits {
  static constexpr bool kCausalTrace = true;
  static constexpr bool kTrackKeys = true;

  static void on_event(const Event& e) {
    obs::ObsTraits::on_event(e);
    inject::InjectTraits::on_event(e);  // stall gates
  }
};

using StallTree = EfrbTreeSet<int, std::less<int>, EpochReclaimer, StallTraits>;

TEST(FlightRecTest, DumpIsTheTraceRingsIncludingHelpOwners) {
  TraceRegistry reg(/*max_tids=*/4, /*ring_capacity=*/1024);
  FlightRecorder rec(reg);
  const obs::Instruments instruments{.trace = &reg};
  obs::ObsTraits::attach(&instruments);

  StallTree t;
  for (int k : {10, 30, 50, 70}) ASSERT_TRUE(t.insert(k));

  inject::FaultPlan plan;
  inject::FaultAction stall;
  stall.kind = inject::FaultKind::kStall;
  stall.tid = 0;
  stall.point = static_cast<int>(HookPoint::kAfterDFlag);
  stall.occurrence = 1;
  plan.actions.push_back(stall);
  inject::FaultScheduler sched(plan);

  // The victim's handle is created first, so it owns tid 0.
  bool victim_ret = false;
  std::thread victim([&] {
    inject::FaultScheduler::ThreadScope scope(sched, 0);
    auto h = t.handle();
    victim_ret = h.erase(30);
  });
  ASSERT_TRUE(sched.wait_until_stalled(0));
  unsigned helper_tid = kNoTid;
  {
    // A second deleter of the key finds the flagged grandparent and helps.
    inject::FaultScheduler::ThreadScope scope(sched, 1);
    auto h = t.handle();
    helper_tid = h.tid();
    EXPECT_FALSE(h.erase(30));
  }
  sched.release(0);
  victim.join();
  obs::ObsTraits::detach();
  EXPECT_TRUE(victim_ret);
  ASSERT_EQ(helper_tid, 1u);

  FlightDump dump;
  ASSERT_TRUE(FlightDump::parse(dump_words(rec), &dump));
  ASSERT_EQ(dump.max_tids, reg.max_tids());
  for (unsigned tid = 0; tid < reg.max_tids(); ++tid) {
    const std::vector<TraceEvent> dumped = dump.events(tid);
    const std::vector<TraceEvent> traced = reg.snapshot(tid);
    ASSERT_EQ(dumped.size(), traced.size()) << "tid " << tid;
    for (std::size_t i = 0; i < dumped.size(); ++i) {
      EXPECT_EQ(dumped[i].pack(), traced[i].pack())
          << "tid " << tid << " event " << i;
    }
  }
  bool saw_owner_slot = false;
  for (const TraceEvent& e : dump.events(helper_tid)) {
    if (e.kind == TraceEventKind::kHelpOwner) {
      saw_owner_slot = true;
      EXPECT_EQ(e.code, 0u);  // the victim's tid
    }
  }
  EXPECT_TRUE(saw_owner_slot);
}

// ------------------------------------------------------- corrupt rejection

TEST(FlightRecTest, ParseRejectsCorruptAndTruncatedDumps) {
  TraceRegistry reg(/*max_tids=*/2, /*ring_capacity=*/8);
  FlightRecorder rec(reg);
  reg.on_event(cas_event(0, CasStep::kIFlag, true));
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
// tree with the trace registry attached, then aborts. EXPECT_DEATH observes
// SIGABRT (the handler re-raises), and the parent — same process, after the
// child died — decodes the dump the child's signal handler wrote.

TEST(FlightRecDeathTest, AbortHandlerWritesDecodableDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_dump_path("crash");
  std::remove(path.c_str());

  EXPECT_DEATH(
      {
        TraceRegistry reg(/*max_tids=*/8, /*ring_capacity=*/256);
        FlightRecorder rec(reg);
        const obs::Instruments instruments{.trace = &reg};
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
  // The child's traffic ran through the attached registry: tid 0's ring
  // must hold protocol events.
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
        TraceRegistry reg(2, 8);
        FlightRecorder rec(reg);
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
