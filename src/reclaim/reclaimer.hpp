// Reclamation policy interface + the trivial leaky policy.
//
// The paper (§4.1) assumes nodes and Info records "are always allocated new
// memory locations" and defers reclamation to a safe-GC environment (§6). In
// C++ we must supply that substrate. Data structures in this library are
// parameterized on a Reclaimer policy with this contract:
//
//   * guard = reclaimer.pin()    — RAII region; every shared-memory traversal
//                                  must happen inside a pinned region.
//   * reclaimer.retire<T>(p)     — hand over an object that has been made
//                                  unreachable from the structure's roots; the
//                                  policy frees it once no pinned region that
//                                  could still reach it remains.
//
// The safety obligation matches the paper's condition verbatim: "a memory
// location is not reallocated while any process could reach that location by
// following a chain of pointers."
#pragma once

#include <concepts>
#include <cstdint>

namespace efrb {

/// The type-erased disposer stored with every retired entry. One
/// instantiation per retired type, so the destructor call is exact. A type
/// retired through a base pointer with no virtual destructor specializes
/// it (the EFRB Info records: core/layout.hpp).
template <typename T>
inline void dispose_retired(void* p) noexcept {
  delete static_cast<T*>(p);
}

/// Point-in-time snapshot of a reclaimer's internal state, for the
/// observability layer (obs/metrics.hpp) and for tests asserting reclamation
/// progress. Counters are monotone over the reclaimer's lifetime (snapshots
/// taken later never report smaller values); `orphan_depth` and `epoch` are
/// instantaneous levels. Policies without a given notion report 0 — e.g.
/// LeakyReclaimer reports all-zero so the E4 leaky-ceiling ablation stays
/// free of bookkeeping cost.
struct ReclaimGauges {
  std::uint64_t retired_total = 0;  // objects handed to retire()
  std::uint64_t freed_total = 0;    // objects actually deleted
  std::uint64_t orphan_depth = 0;   // entries parked in the orphan store
  std::uint64_t pins = 0;           // outermost pin() regions entered
  std::uint64_t unpins = 0;         // outermost pin() regions exited
  std::uint64_t epoch = 0;          // global epoch / grace round, if any

  /// Retired-but-not-yet-freed backlog (includes orphans).
  std::uint64_t backlog() const noexcept {
    return retired_total >= freed_total ? retired_total - freed_total : 0;
  }
};

// clang-format off
template <typename R>
concept ReclaimerPolicy = requires(R r) {
  { r.pin() };                       // returns a movable RAII guard
  { r.template retire<int>(static_cast<int*>(nullptr)) };
  { r.flush() };                     // drain the calling thread's backlog
};

// Extension of ReclaimerPolicy for policies with explicit per-thread
// registration: attach() hands out a movable, thread-affine Attachment whose
// pin()/retire() skip the thread_local registry lookup entirely. This is the
// fast path behind EfrbTreeMap::Handle; the implicit thread_local lease
// remains the fallback behind the policy-level pin()/retire().
//
// The attach()/detach()/retire()/flush() spelling is the one unified surface
// every reclamation backend in this repository exposes — the three
// ReclaimerPolicy types below/in reclaim/, and HazardPointerDomain (which is
// not a ReclaimerPolicy, having no blanket pin(), but models exactly this
// attachment sub-surface) — so OpContext and the structure handles never
// special-case a backend.
template <typename R>
concept AttachableReclaimerPolicy = ReclaimerPolicy<R> &&
    requires(R r, typename R::Attachment a) {
  { r.attach() } -> std::same_as<typename R::Attachment>;
  { a.pin() };
  { a.template retire<int>(static_cast<int*>(nullptr)) };
  { a.attached() } -> std::convertible_to<bool>;
  { a.detach() };
  { a.flush() };
};
// clang-format on

/// Never frees anything. This is the paper's own memory model ("assume fresh
/// allocations") and the baseline for reclamation-cost ablations (E4). Only
/// suitable for bounded runs; memory use grows with the number of updates.
class LeakyReclaimer {
 public:
  class Guard {
   public:
    Guard() = default;
  };

  /// State-free Attachment so leaky trees still expose the handle API; there
  /// is no slot to register, so all members are no-ops.
  class Attachment {
   public:
    Attachment() = default;
    bool attached() const noexcept { return attached_; }
    void detach() noexcept { attached_ = false; }
    Guard pin() noexcept { return Guard{}; }
    template <typename T>
    void retire(T* /*p*/) noexcept {}
    void flush() noexcept {}

   private:
    friend class LeakyReclaimer;
    explicit Attachment(bool attached) noexcept : attached_(attached) {}
    bool attached_ = false;
  };

  Guard pin() noexcept { return Guard{}; }

  Attachment attach() noexcept { return Attachment{true}; }

  template <typename T>
  void retire(T* /*p*/) noexcept {
    // Intentionally leaked; freed only when the process exits.
  }

  void flush() noexcept {}

  /// All-zero by design: counting would put a shared fetch_add on the retire
  /// path and pollute the leaky-ceiling ablation this policy exists for.
  ReclaimGauges gauges() const noexcept { return ReclaimGauges{}; }
};

static_assert(ReclaimerPolicy<LeakyReclaimer>);
static_assert(AttachableReclaimerPolicy<LeakyReclaimer>);

}  // namespace efrb
