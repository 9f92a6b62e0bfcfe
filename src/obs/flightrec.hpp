// Flight recorder: the async-signal-safe crash dump of the trace rings.
//
// Traces and metrics answer "what happened during the run I instrumented";
// the flight recorder answers "what was happening when the process aborted"
// — an EFRB_ASSERT tripping, a SIGSEGV in a client, a watchdog-triggered
// abort. It owns no ring of its own: it is built over the TraceRegistry the
// run already feeds (obs/trace.hpp), so every protocol event, help-owner
// companion slot and op begin/end marker is recorded exactly once and the
// dump carries all of them. The dump path uses only operations the POSIX
// async-signal-safety list allows: relaxed atomic loads, stack buffers,
// open(2)/write(2)/close(2).
//
// Pieces:
//   * FlightRecorder — two bounded side tables over the registry's rings:
//     named gauges (pointers to live atomic counters, e.g. the reclaimer's
//     ReclaimGauges words; the registry's dropped_no_tid counter is always
//     registered first, as "trace_dropped_no_tid") and an optional
//     ProgressTable pointer so the dump carries the in-flight-op stall
//     table. dump_to_fd() is the signal-safe core; dump_to_path() is the
//     convenience wrapper.
//   * install_flight_handler() — sigaction for SIGABRT/SIGSEGV/SIGBUS that
//     dumps to a configured path, restores the previous handler, and
//     re-raises so the process still dies with the original disposition
//     (core dumps, test death-assertions, and exit codes all keep working).
//   * FlightDump — the decoder-side parse of the binary format, shared by
//     tools/efrb_postmortem and the tests so the format has exactly one
//     reader and one writer.
//
// Binary format (little-endian u64 words, "EFRBFLT1" magic):
//   header:  magic, version, max_tids, ring_cap, gauge_count, slot_count
//   gauges:  gauge_count x { name[24] (3 words, NUL-padded), value }
//   slots:   slot_count x { tid, op_seq, op_key, start_ns, retries,
//                           last_step, help_depth }   (tid == kNoTid: free)
//   rings:   max_tids x { head, ring_cap raw slot words in index order }
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/debug_hooks.hpp"
#include "core/op_context.hpp"
#include "obs/trace.hpp"

namespace efrb::obs {

inline constexpr std::uint64_t kFlightMagic = 0x31544C4642524645ULL;  // "EFRBFLT1"
inline constexpr std::uint64_t kFlightVersion = 1;
inline constexpr std::size_t kFlightGaugeNameWords = 3;  // 24 bytes

class FlightRecorder {
 public:
  static constexpr std::size_t kMaxGauges = 32;

  /// Dumps `trace`'s rings; the registry must outlive the recorder.
  explicit FlightRecorder(const TraceRegistry& trace) noexcept
      : trace_(trace) {
    add_gauge("trace_dropped_no_tid", &trace.dropped_no_tid_counter());
  }
  FlightRecorder(const TraceRegistry&&) = delete;  // would dangle

  /// Registers a live gauge; `value` must outlive the recorder (the dump
  /// reads it at crash time). `name` is truncated to 23 bytes. Bounded at
  /// kMaxGauges; further registrations are ignored (a crash dump missing a
  /// gauge beats a crash-path allocation).
  void add_gauge(const char* name,
                 const std::atomic<std::uint64_t>* value) noexcept {
    const std::size_t i = gauge_count_.load(std::memory_order_relaxed);
    if (i >= kMaxGauges || name == nullptr || value == nullptr) return;
    std::memset(gauges_[i].name, 0, sizeof(gauges_[i].name));
    std::strncpy(gauges_[i].name, name, sizeof(gauges_[i].name) - 1);
    gauges_[i].value = value;
    gauge_count_.store(i + 1, std::memory_order_release);
  }

  /// Attaches the progress table of a kCausalTrace tree so the dump carries
  /// the in-flight-op table; the table must outlive the recorder.
  void attach_progress(const ProgressTable* table) noexcept {
    progress_.store(table, std::memory_order_release);
  }

  /// Async-signal-safe dump: relaxed atomic loads into a stack buffer,
  /// flushed with write(2). Returns false if any write failed short.
  bool dump_to_fd(int fd) const noexcept {
    WordBuf buf(fd);
    const ProgressTable* table = progress_.load(std::memory_order_acquire);
    const std::uint64_t gauge_count =
        gauge_count_.load(std::memory_order_acquire);
    const std::uint64_t slot_count =
        table != nullptr ? table->slots.size() : 0;
    buf.put(kFlightMagic);
    buf.put(kFlightVersion);
    buf.put(trace_.max_tids());
    buf.put(trace_.ring_capacity());
    buf.put(gauge_count);
    buf.put(slot_count);
    for (std::uint64_t i = 0; i < gauge_count; ++i) {
      std::uint64_t words[kFlightGaugeNameWords] = {0, 0, 0};
      std::memcpy(words, gauges_[i].name, sizeof(words));
      for (std::uint64_t w : words) buf.put(w);
      buf.put(gauges_[i].value->load(std::memory_order_relaxed));
    }
    if (table != nullptr) {
      for (const auto& padded : table->slots) {
        const ProgressSlot& s = padded.value;
        buf.put(s.tid.load(std::memory_order_relaxed));
        buf.put(s.op_seq.load(std::memory_order_relaxed));
        buf.put(s.op_key.load(std::memory_order_relaxed));
        buf.put(s.start_ns.load(std::memory_order_relaxed));
        buf.put(s.retries.load(std::memory_order_relaxed));
        buf.put(s.last_step.load(std::memory_order_relaxed));
        buf.put(s.help_depth.load(std::memory_order_relaxed));
      }
    }
    for (unsigned tid = 0; tid < trace_.max_tids(); ++tid) {
      const TraceRing& r = trace_.ring(tid);
      buf.put(r.raw_head());
      for (std::size_t i = 0; i < r.capacity(); ++i) buf.put(r.raw_slot(i));
    }
    return buf.flush();
  }

  /// Convenience (NOT signal-safe — uses open with mode flags fine, but call
  /// it from normal code): creates/truncates `path` and dumps.
  bool dump_to_path(const char* path) const noexcept {
    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-vararg)
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    const bool ok = dump_to_fd(fd);
    ::close(fd);
    return ok;
  }

 private:
  struct Gauge {
    char name[kFlightGaugeNameWords * 8] = {};
    const std::atomic<std::uint64_t>* value = nullptr;
  };

  /// Stack-buffered writer around write(2); everything it touches is
  /// async-signal-safe.
  class WordBuf {
   public:
    explicit WordBuf(int fd) noexcept : fd_(fd) {}
    void put(std::uint64_t w) noexcept {
      words_[n_++] = w;
      if (n_ == kCap) drain();
    }
    bool flush() noexcept {
      drain();
      return ok_;
    }

   private:
    static constexpr std::size_t kCap = 256;
    void drain() noexcept {
      const char* p = reinterpret_cast<const char*>(words_);
      std::size_t left = n_ * sizeof(std::uint64_t);
      while (left > 0 && ok_) {
        const ssize_t written = ::write(fd_, p, left);
        if (written <= 0) {
          ok_ = false;
          break;
        }
        p += written;
        left -= static_cast<std::size_t>(written);
      }
      n_ = 0;
    }
    int fd_;
    std::uint64_t words_[kCap];
    std::size_t n_ = 0;
    bool ok_ = true;
  };

  const TraceRegistry& trace_;
  Gauge gauges_[kMaxGauges];
  std::atomic<std::uint64_t> gauge_count_{0};
  std::atomic<const ProgressTable*> progress_{nullptr};
};

// --- signal plumbing ------------------------------------------------------
//
// One process-global recorder + dump path, installed explicitly. The
// handler writes the dump, restores the signal's previous disposition, and
// re-raises — so an EFRB_ASSERT abort still aborts (death tests and exit
// codes unchanged), it just leaves a black box behind first.

namespace flight_detail {

struct SignalState {
  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline const FlightRecorder* recorder = nullptr;
  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline char path[256] = {};
  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline struct sigaction old_abrt {};
  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline struct sigaction old_segv {};
  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline struct sigaction old_bus {};
};

inline void dump_and_reraise(int sig) noexcept {
  const FlightRecorder* rec = SignalState::recorder;
  if (rec != nullptr && SignalState::path[0] != '\0') {
    // open(2) and write(2) are on the async-signal-safe list.
    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-vararg)
    const int fd =
        ::open(SignalState::path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      rec->dump_to_fd(fd);
      ::close(fd);
    }
  }
  // Restore the previous disposition and re-raise so the process still dies
  // the way it would have without us.
  const struct sigaction* old = sig == SIGABRT   ? &SignalState::old_abrt
                                : sig == SIGSEGV ? &SignalState::old_segv
                                                 : &SignalState::old_bus;
  ::sigaction(sig, old, nullptr);
  ::raise(sig);
}

}  // namespace flight_detail

/// Installs the crash-dump handler for SIGABRT / SIGSEGV / SIGBUS. The
/// recorder (and everything registered into it) must outlive the process's
/// crashing moment — in practice: install on main-scope objects. Re-entrant
/// installs just retarget the recorder/path.
inline void install_flight_handler(const FlightRecorder* recorder,
                                   const char* dump_path) noexcept {
  using flight_detail::SignalState;
  SignalState::recorder = recorder;
  std::memset(SignalState::path, 0, sizeof(SignalState::path));
  if (dump_path != nullptr) {
    std::strncpy(SignalState::path, dump_path, sizeof(SignalState::path) - 1);
  }
  struct sigaction sa {};
  sa.sa_handler = &flight_detail::dump_and_reraise;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGABRT, &sa, &SignalState::old_abrt);
  ::sigaction(SIGSEGV, &sa, &SignalState::old_segv);
  ::sigaction(SIGBUS, &sa, &SignalState::old_bus);
}

/// Restores the pre-install dispositions and detaches the recorder.
inline void uninstall_flight_handler() noexcept {
  using flight_detail::SignalState;
  ::sigaction(SIGABRT, &SignalState::old_abrt, nullptr);
  ::sigaction(SIGSEGV, &SignalState::old_segv, nullptr);
  ::sigaction(SIGBUS, &SignalState::old_bus, nullptr);
  SignalState::recorder = nullptr;
  SignalState::path[0] = '\0';
}

// --- decoder side ---------------------------------------------------------

struct FlightGauge {
  std::string name;
  std::uint64_t value = 0;
};

struct FlightSlot {
  std::uint64_t tid = kNoTid;
  std::uint64_t op_seq = 0;
  std::uint64_t op_key = kNoKey;
  std::uint64_t start_ns = 0;
  std::uint64_t retries = 0;
  std::uint64_t last_step = kNoStep;
  std::uint64_t help_depth = 0;

  bool in_flight() const noexcept { return (op_seq & 1) != 0; }
};

/// Parsed flight-recorder dump. The single reader of the binary format —
/// tools/efrb_postmortem and the tests both go through here.
struct FlightDump {
  std::uint64_t version = 0;
  std::uint64_t max_tids = 0;
  std::uint64_t ring_cap = 0;
  std::vector<FlightGauge> gauges;
  std::vector<FlightSlot> slots;
  struct RawRing {
    std::uint64_t head = 0;
    std::vector<std::uint64_t> words;  // raw slot array, index order
  };
  std::vector<RawRing> rings;

  /// Retained events for one tid, oldest first (mirrors TraceRing::snapshot
  /// over the dumped words).
  std::vector<TraceEvent> events(std::size_t tid) const {
    std::vector<TraceEvent> out;
    if (tid >= rings.size() || rings[tid].words.empty()) return out;
    const RawRing& r = rings[tid];
    const std::uint64_t cap = r.words.size();
    const std::uint64_t n = r.head < cap ? r.head : cap;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = r.head - n; i < r.head; ++i) {
      out.push_back(TraceEvent::unpack(
          r.words[static_cast<std::size_t>(i & (cap - 1))]));
    }
    return out;
  }

  static bool parse(const std::vector<std::uint64_t>& words, FlightDump* out) {
    std::size_t i = 0;
    auto next = [&](std::uint64_t* w) {
      if (i >= words.size()) return false;
      *w = words[i++];
      return true;
    };
    std::uint64_t magic = 0, gauge_count = 0, slot_count = 0;
    if (!next(&magic) || magic != kFlightMagic) return false;
    if (!next(&out->version) || out->version != kFlightVersion) return false;
    if (!next(&out->max_tids) || !next(&out->ring_cap)) return false;
    if (!next(&gauge_count) || !next(&slot_count)) return false;
    // Reject absurd headers before reserving (a truncated/corrupt file must
    // fail cleanly, not bad_alloc or an overflowed size computation).
    if (gauge_count > FlightRecorder::kMaxGauges) return false;
    if (slot_count > (1u << 20) || out->max_tids > (1u << 16)) return false;
    if (out->ring_cap == 0 || out->ring_cap > (1u << 24) ||
        !std::has_single_bit(out->ring_cap)) {
      return false;
    }
    const std::uint64_t need = gauge_count * (kFlightGaugeNameWords + 1) +
                               slot_count * 7 +
                               out->max_tids * (out->ring_cap + 1);
    if (words.size() - i < need) return false;
    out->gauges.clear();
    for (std::uint64_t g = 0; g < gauge_count; ++g) {
      char name[kFlightGaugeNameWords * 8 + 1] = {};
      std::memcpy(name, &words[i], kFlightGaugeNameWords * 8);
      i += kFlightGaugeNameWords;
      FlightGauge fg;
      fg.name = name;
      fg.value = words[i++];
      out->gauges.push_back(std::move(fg));
    }
    out->slots.clear();
    for (std::uint64_t s = 0; s < slot_count; ++s) {
      FlightSlot fs;
      fs.tid = words[i++];
      fs.op_seq = words[i++];
      fs.op_key = words[i++];
      fs.start_ns = words[i++];
      fs.retries = words[i++];
      fs.last_step = words[i++];
      fs.help_depth = words[i++];
      out->slots.push_back(fs);
    }
    out->rings.clear();
    for (std::uint64_t t = 0; t < out->max_tids; ++t) {
      RawRing r;
      r.head = words[i++];
      r.words.assign(words.begin() + static_cast<std::ptrdiff_t>(i),
                     words.begin() +
                         static_cast<std::ptrdiff_t>(i + out->ring_cap));
      i += out->ring_cap;
      out->rings.push_back(std::move(r));
    }
    return true;
  }

  static bool read_file(const std::string& path, FlightDump* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (bytes.size() % sizeof(std::uint64_t) != 0) return false;
    std::vector<std::uint64_t> words(bytes.size() / sizeof(std::uint64_t));
    std::memcpy(words.data(), bytes.data(), bytes.size());
    return parse(words, out);
  }
};

}  // namespace efrb::obs
