// Protocol event tracing: per-thread bounded ring buffers of timestamped
// events, fed from the event seam (core/debug_hooks.hpp), exported as
// Chrome trace-event JSON (loadable in chrome://tracing and Perfetto).
//
// Pieces:
//   * TraceEvent / TraceRing — a fixed-capacity, allocation-free-after-
//     construction ring. Single writer (the owning thread); when full, the
//     oldest events are overwritten, so a trace always holds the *latest*
//     window of activity and a long run cannot exhaust memory.
//   * TraceRegistry — one ring per thread id (the per-handle tid carried by
//     every hook emission), plus the shared monotonic clock epoch. Events
//     with kNoTid (tree-level convenience calls) or an out-of-range tid are
//     dropped and counted, never recorded racily.
//   * TraceRegistry::on_event — the sink: obs::ObsTraits hands it every
//     event when the registry is attached through obs::Instruments
//     (obs/instruments.hpp), and each help entry of an owner-stamping tree
//     leaves a kHelpOwner companion slot. NoopTraits builds are untouched —
//     tracing compiles to zero overhead unless the tree is instantiated
//     with an event sink.
//   * The rings are also the flight recorder's (obs/flightrec.hpp): its
//     crash dump reads them through TraceRing's raw accessors.
//
// Event vocabulary: every protocol CAS (step + outcome), every hook point,
// help entry/exit (HookPoint::kBeforeHelp / kAfterHelp mapped to a Chrome
// B/E span), and op begin/end markers emitted by the workload runner's
// opt-in instrumentation. Timestamps are steady_clock nanoseconds relative
// to the registry's construction.
//
// Export contract: events are packed into single atomic words (see
// TraceEvent::pack), so snapshot()/chrome_trace_json() may run while writers
// are still recording — a live export never reads a torn event. Racing a
// wraparound can mix window generations (some slots one lap newer than
// their neighbours) and a span can open with an unmatched "E" event;
// Perfetto tolerates both (docs/OBSERVABILITY.md documents it). At
// quiescence (workers joined) the export is exact — the normal benchmark
// flow.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/debug_hooks.hpp"
#include "obs/json.hpp"
#include "util/cacheline.hpp"

namespace efrb::obs {

enum class TraceEventKind : std::uint8_t {
  kCas,        // protocol CAS executed; code = CasStep, ok = outcome
  kPoint,      // hook point passed; code = HookPoint
  kHelpEnter,  // help dispatch entered (HookPoint::kBeforeHelp)
  kHelpExit,   // help dispatch returned (HookPoint::kAfterHelp)
  kOpBegin,    // dictionary op started; code = TraceOp
  kOpEnd,      // dictionary op finished; code = TraceOp, ok = result
  kHelpOwner,  // companion to kHelpEnter: code = owner tid, ts = owner op_seq
};

/// Operation identity for op begin/end markers (the runner's vocabulary,
/// kept here so obs does not depend on the workload layer).
enum class TraceOp : std::uint8_t { kFind, kInsert, kErase, kOther };

inline const char* to_string(TraceOp op) noexcept {
  switch (op) {
    case TraceOp::kFind: return "find";
    case TraceOp::kInsert: return "insert";
    case TraceOp::kErase: return "erase";
    case TraceOp::kOther: return "op";
  }
  return "?";
}

/// Ring-record kind of a CAS or point event: the help entry/exit points
/// become a Chrome B/E span, every other point is an instant marker. Phase
/// events have no ring record.
inline TraceEventKind trace_kind(const Event& e) noexcept {
  if (e.kind == EventKind::kCas) return TraceEventKind::kCas;
  if (e.point() == HookPoint::kBeforeHelp) return TraceEventKind::kHelpEnter;
  if (e.point() == HookPoint::kAfterHelp) return TraceEventKind::kHelpExit;
  return TraceEventKind::kPoint;
}

struct TraceEvent {
  std::uint64_t ts_ns;  // nanoseconds since the registry's epoch
  TraceEventKind kind;
  std::uint8_t code;  // CasStep / HookPoint / TraceOp, per kind
  bool ok;            // CAS outcome or op result; unused otherwise

  /// One-word packing: ts in the low 48 bits (~3.2 days of ns resolution;
  /// longer runs saturate the timestamp, never corrupt the event), code in
  /// 48..55, kind in 56..59, ok in bit 60. A packed event fits a single
  /// atomic word, which is what makes live export torn-read-free: a reader
  /// racing a wraparound sees the old event or the new one, never a hybrid
  /// of both.
  static constexpr std::uint64_t kTsMask = (std::uint64_t{1} << 48) - 1;

  std::uint64_t pack() const noexcept {
    return (ts_ns > kTsMask ? kTsMask : ts_ns) |
           (static_cast<std::uint64_t>(code) << 48) |
           (static_cast<std::uint64_t>(kind) << 56) |
           (static_cast<std::uint64_t>(ok ? 1 : 0) << 60);
  }

  /// The kHelpOwner companion record. Reuses the packed-word layout: the
  /// owner's op_seq rides in the timestamp field (low 48 bits) and the
  /// owner's tid in the code byte, so a decoder can reconstruct the
  /// helper -> owner edge without a second ring.
  static TraceEvent help_owner(std::uint64_t owner) noexcept {
    return {owner_seq(owner), TraceEventKind::kHelpOwner,
            static_cast<std::uint8_t>(owner_tid(owner) & 0xFF), false};
  }

  static TraceEvent unpack(std::uint64_t w) noexcept {
    return {w & kTsMask,
            static_cast<TraceEventKind>((w >> 56) & 0xF),
            static_cast<std::uint8_t>((w >> 48) & 0xFF),
            ((w >> 60) & 1) != 0};
  }
};

/// Fixed-capacity single-writer ring of packed events. All storage is
/// allocated at construction; push() is one relaxed atomic store plus a
/// release increment of the head. Because every slot is a single atomic
/// word, snapshot() may run concurrently with the writer and will read each
/// event whole — a race with wraparound can mix window generations (some
/// slots one lap newer), but never tears an individual event. obs_test's
/// export-under-write witness pins this down under TSan.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 4096)
      : slots_(capacity == 0 ? 1 : std::bit_ceil(capacity)) {}

  /// Moves happen only while the registry builds its ring vector, before any
  /// writer exists — a plain value transfer, no concurrency to respect.
  TraceRing(TraceRing&& other) noexcept
      : slots_(std::move(other.slots_)),
        head_(other.head_.load(std::memory_order_relaxed)) {}
  TraceRing& operator=(TraceRing&&) = delete;

  void push(const TraceEvent& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & (slots_.size() - 1)].store(e.pack(), std::memory_order_relaxed);
    // Release so a reader that acquires the new head also sees the slot.
    head_.store(h + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Raw words for the flight recorder's async-signal-safe dump: relaxed
  /// loads of the head and of slot `i` in index order, no allocation.
  std::uint64_t raw_head() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t raw_slot(std::size_t i) const noexcept {
    return slots_[i].load(std::memory_order_relaxed);
  }
  /// Total events ever pushed (monotone; exceeds capacity after wraparound).
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Events lost to wraparound.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t h = pushed();
    return h > slots_.size() ? h - slots_.size() : 0;
  }

  /// Retained events, oldest first. Safe against a concurrent writer (see
  /// the class comment); at quiescence the snapshot is exact.
  std::vector<TraceEvent> snapshot() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::vector<TraceEvent> out;
    const std::uint64_t n = head < slots_.size()
                                ? head
                                : static_cast<std::uint64_t>(slots_.size());
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head - n; i < head; ++i) {
      out.push_back(TraceEvent::unpack(
          slots_[i & (slots_.size() - 1)].load(std::memory_order_relaxed)));
    }
    return out;
  }

 private:
  std::vector<std::atomic<std::uint64_t>> slots_;
  std::atomic<std::uint64_t> head_{0};
};

static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t),
              "packed trace slots must be plain words");

class TraceRegistry {
 public:
  explicit TraceRegistry(std::size_t max_tids = 64,
                         std::size_t ring_capacity = 4096)
      : t0_(std::chrono::steady_clock::now()) {
    rings_.reserve(max_tids);
    for (std::size_t i = 0; i < max_tids; ++i) {
      rings_.emplace_back(ring_capacity);
    }
  }

  std::size_t max_tids() const noexcept { return rings_.size(); }
  /// Capacity of every ring (all are built alike).
  std::size_t ring_capacity() const noexcept {
    return rings_.empty() ? 1 : rings_[0].value.capacity();
  }
  /// The ring of `tid`; requires tid < max_tids().
  const TraceRing& ring(unsigned tid) const noexcept {
    return rings_[tid].value;
  }

  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  /// The event sink: CAS and point events; phase edges are the profiler's.
  /// A help entry that carries its owner's stamp is followed by a
  /// kHelpOwner companion slot (see TraceEvent::help_owner), skipped by the
  /// Chrome export (flow arrows come from CausalRegistry, which keeps
  /// full-width timestamps) and consumed by tools/efrb_postmortem.
  void on_event(const Event& e) noexcept {
    if (e.kind != EventKind::kCas && !e.at_point()) return;
    if (TraceRing* r = ring_for(e.tid)) {
      r->push({now_ns(), trace_kind(e), e.code, e.ok});
      if (e.help_entry() && e.owner != kNoOwner) {
        r->push(TraceEvent::help_owner(e.owner));
      }
    }
  }

  void record_op_begin(unsigned tid, TraceOp op) noexcept {
    if (TraceRing* r = ring_for(tid)) {
      r->push({now_ns(), TraceEventKind::kOpBegin,
               static_cast<std::uint8_t>(op), false});
    }
  }

  void record_op_end(unsigned tid, TraceOp op, bool ok) noexcept {
    if (TraceRing* r = ring_for(tid)) {
      r->push({now_ns(), TraceEventKind::kOpEnd,
               static_cast<std::uint8_t>(op), ok});
    }
  }

  /// Retained events for one thread, oldest first (quiescent snapshot).
  std::vector<TraceEvent> snapshot(unsigned tid) const {
    return tid < rings_.size() ? rings_[tid].value.snapshot()
                               : std::vector<TraceEvent>{};
  }

  /// Events dropped for a kNoTid or out-of-range tid (handle tids are never
  /// reused, so a tree's handles past max_tids land here).
  std::uint64_t dropped_no_tid() const noexcept {
    return dropped_no_tid_.load(std::memory_order_relaxed);
  }
  /// The live counter word, for the flight recorder's gauge table.
  const std::atomic<std::uint64_t>& dropped_no_tid_counter() const noexcept {
    return dropped_no_tid_;
  }

  /// Chrome trace-event JSON (the "JSON object format": {"traceEvents":
  /// [...]}), one Chrome tid per ring, pid 0. Call at quiescence.
  std::string chrome_trace_json() const {
    JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").begin_array();
    for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
      for (const TraceEvent& e : rings_[tid].value.snapshot()) {
        append_chrome_event(w, static_cast<unsigned>(tid), e);
      }
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

  bool write_chrome_trace(const std::string& path) const {
    return write_file(path, chrome_trace_json());
  }

  /// Renders one event as a Chrome trace-event object. Public so composed
  /// exporters (obs/causal.hpp merges flow arrows into the same stream) can
  /// reuse the exact vocabulary instead of re-deriving it.
  static void append_chrome_event(JsonWriter& w, unsigned tid,
                                  const TraceEvent& e) {
    // Chrome's ts field is microseconds; keep ns resolution as a fraction.
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    std::string name;
    const char* ph = "i";
    switch (e.kind) {
      case TraceEventKind::kCas:
        name = std::string("cas:") + to_string(static_cast<CasStep>(e.code));
        name += e.ok ? ":ok" : ":fail";
        break;
      case TraceEventKind::kPoint:
        name = to_string(static_cast<HookPoint>(e.code));
        break;
      case TraceEventKind::kHelpEnter:
        name = "help";
        ph = "B";
        break;
      case TraceEventKind::kHelpExit:
        name = "help";
        ph = "E";
        break;
      case TraceEventKind::kOpBegin:
        name = to_string(static_cast<TraceOp>(e.code));
        ph = "B";
        break;
      case TraceEventKind::kOpEnd:
        name = to_string(static_cast<TraceOp>(e.code));
        ph = "E";
        break;
      case TraceEventKind::kHelpOwner:
        return;  // decoder-only metadata; flow arrows come from CausalRegistry
    }
    w.begin_object();
    w.key("name").value(name);
    w.key("ph").value(ph);
    w.key("ts").value(ts_us);
    w.key("pid").value(0);
    w.key("tid").value(tid);
    if (ph[0] == 'i') w.key("s").value("t");  // instant scope: thread
    if (e.kind == TraceEventKind::kCas || e.kind == TraceEventKind::kOpEnd) {
      w.key("args").begin_object().key("ok").value(e.ok).end_object();
    }
    w.end_object();
  }

 private:
  TraceRing* ring_for(unsigned tid) noexcept {
    if (tid == kNoTid || tid >= rings_.size()) {
      dropped_no_tid_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    return &rings_[tid].value;
  }

  std::chrono::steady_clock::time_point t0_;
  std::vector<CachePadded<TraceRing>> rings_;
  std::atomic<std::uint64_t> dropped_no_tid_{0};
};

}  // namespace efrb::obs
