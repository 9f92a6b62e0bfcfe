// Instrumentation traits for the EFRB tree and the LLX/SCX trees.
//
// The trees are parameterized on a Traits type. Instrumented Traits expose
// one static event sink:
//
//   Traits::on_event(const Event& e)
//     — invoked after every protocol CAS (with its outcome), at named pause
//       points between protocol steps, at help entry/exit (with the helped
//       operation's owner stamp), and at explicit phase scope edges. Tests
//       use it to verify that the update-field state machine follows
//       exactly the edges of the paper's Figure 4, and to pause a thread
//       mid-operation (via thread_local state in the sink) to drive
//       deterministic interleavings: forcing helping branches (lines 51, 61,
//       77, 78, 85 of the pseudocode), the backtrack path (line 98), and the
//       Figure 3 schedules. The obs layer fans the same events out to its
//       sinks (obs/instruments.hpp).
//
// The default (NoopTraits) has no sink and compiles every emission to
// nothing; instrumented builds pay only inside their own instantiation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace efrb {

/// The CAS step kinds of the two commit protocols sharing this layer: the
/// eight EFRB steps (paper §3, Fig. 4) plus the two SCX steps of the
/// Brown–Ellen–Ruppert general technique (core/llx_scx.hpp), which fold the
/// flag/mark/child-swing edges into freeze + child-swap.
enum class CasStep : std::uint8_t {
  kIFlag,      // Insert: flag the parent (line 56)
  kIChild,     // Insert: swing the parent's child pointer (line 66 / 115/117)
  kIUnflag,    // Insert: clean the parent (line 67)
  kDFlag,      // Delete: flag the grandparent (line 81)
  kMark,       // Delete: mark the parent (line 91)
  kDChild,     // Delete: splice the parent out (line 105)
  kDUnflag,    // Delete: clean the grandparent (line 106)
  kBacktrack,  // Delete: remove the flag after a failed mark (line 98)
  kFreeze,     // SCX: freeze one V-node's info word onto the ScxRecord
  kScxChild,   // SCX: swing the target child pointer old -> new
};

/// Number of CasStep values; sizes the per-step counter arrays in
/// op_context.hpp.
inline constexpr std::size_t kNumCasSteps = 10;

inline const char* to_string(CasStep s) noexcept {
  switch (s) {
    case CasStep::kIFlag: return "iflag";
    case CasStep::kIChild: return "ichild";
    case CasStep::kIUnflag: return "iunflag";
    case CasStep::kDFlag: return "dflag";
    case CasStep::kMark: return "mark";
    case CasStep::kDChild: return "dchild";
    case CasStep::kDUnflag: return "dunflag";
    case CasStep::kBacktrack: return "backtrack";
    case CasStep::kFreeze: return "freeze";
    case CasStep::kScxChild: return "scx-child";
  }
  return "?";
}

/// Pause points between protocol steps.
enum class HookPoint : std::uint8_t {
  kAfterSearch,      // Search returned (Insert/Delete/Find attempt)
  kAfterIFlag,       // successful iflag, before HelpInsert
  kBeforeIChild,     // inside HelpInsert, before the ichild CAS
  kBeforeIUnflag,    // inside HelpInsert, before the iunflag CAS
  kAfterDFlag,       // successful dflag, before HelpDelete
  kBeforeMark,       // inside HelpDelete, before the mark CAS
  kBeforeDChild,     // inside HelpMarked, before the dchild CAS
  kBeforeDUnflag,    // inside HelpMarked, before the dunflag CAS
  kBeforeBacktrack,  // inside HelpDelete, failed mark, before backtrack CAS
  kBeforeHelp,       // about to help another operation
  kInsertRetry,      // Insert attempt failed; looping
  kDeleteRetry,      // Delete attempt failed; looping
  kAfterHelp,        // help dispatch returned; pairs with kBeforeHelp
  // SCX pause points (core/llx_scx.hpp / core/chromatic.hpp). A thread
  // stalled at any of them leaves an SCX record mid-commit, which every
  // other operation must be able to help past.
  kBeforeFreeze,     // inside help_scx, before one freeze CAS
  kBeforeScxChild,   // inside help_scx, all V frozen, before the child CAS
  kBeforeScxCommit,  // inside help_scx, before the state InProgress->Committed
  kScxRetry,         // an LLX/SCX transaction failed; operation looping
  kBeforeRebalance,  // cleanup found a violation, before its fixing SCX
};

/// Number of HookPoint values; sizes the per-point tables in src/inject/.
inline constexpr std::size_t kNumHookPoints = 18;

inline const char* to_string(HookPoint p) noexcept {
  switch (p) {
    case HookPoint::kAfterSearch: return "after-search";
    case HookPoint::kAfterIFlag: return "after-iflag";
    case HookPoint::kBeforeIChild: return "before-ichild";
    case HookPoint::kBeforeIUnflag: return "before-iunflag";
    case HookPoint::kAfterDFlag: return "after-dflag";
    case HookPoint::kBeforeMark: return "before-mark";
    case HookPoint::kBeforeDChild: return "before-dchild";
    case HookPoint::kBeforeDUnflag: return "before-dunflag";
    case HookPoint::kBeforeBacktrack: return "before-backtrack";
    case HookPoint::kBeforeHelp: return "before-help";
    case HookPoint::kInsertRetry: return "insert-retry";
    case HookPoint::kDeleteRetry: return "delete-retry";
    case HookPoint::kAfterHelp: return "after-help";
    case HookPoint::kBeforeFreeze: return "before-freeze";
    case HookPoint::kBeforeScxChild: return "before-scx-child";
    case HookPoint::kBeforeScxCommit: return "before-scx-commit";
    case HookPoint::kScxRetry: return "scx-retry";
    case HookPoint::kBeforeRebalance: return "before-rebalance";
  }
  return "?";
}

/// Cost-attribution phases of one operation, the vocabulary of the profiling
/// layer (obs/profile.hpp). A PhaseProfiler partitions each operation's
/// measured time across these buckets: the first four are inferred from the
/// HookPoint stream (kAfterSearch closes descent, kBeforeHelp/kAfterHelp
/// bracket helping, kBeforeRebalance opens rebalance work, the retry points
/// reset to descent); the last two are explicit scopes emitted by the
/// protocol around allocation and retirement clusters via hooks::PhaseScope.
enum class Phase : std::uint8_t {
  kDescent,           // Search/find_path traversal down the tree
  kCasProtocol,       // flag/mark/child-swing CAS steps of the op's own commit
  kHelping,           // completing another operation's pending Info/ScxRecord
  kRebalanceCleanup,  // chromatic violation cleanup (fixing SCXs)
  kReclamation,       // retiring nodes/records into the reclaimer
  kPoolAlloc,         // node/record allocation (operator new)
};

/// Number of Phase values; sizes the per-phase accumulator arrays in
/// obs/profile.hpp.
inline constexpr std::size_t kNumPhases = 6;

inline const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kDescent: return "descent";
    case Phase::kCasProtocol: return "cas_protocol";
    case Phase::kHelping: return "helping";
    case Phase::kRebalanceCleanup: return "rebalance_cleanup";
    case Phase::kReclamation: return "reclamation";
    case Phase::kPoolAlloc: return "pool_alloc";
  }
  return "?";
}

/// Thread identity carried by hook emissions: the per-handle id assigned by
/// the owning structure, or kNoTid on the tree-level (thread_local lease)
/// path, which has no stable per-thread identity to report.
inline constexpr unsigned kNoTid = ~0u;

/// Key identity carried by hook emissions: the operation's key projected to
/// uint64 by OpContext::set_op_key (key-space attribution for the contention
/// heatmap, obs/heatmap.hpp), or kNoKey when the context does not track keys
/// (the default — tracking is enabled per Traits via kTrackKeys) or the key
/// type has no integral projection.
inline constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// Owner identity stamped into Info/ScxRecord records when the instantiating
/// Traits enable kCausalTrace: the creating thread's id in the high 16 bits
/// and its per-handle operation sequence number in the low 48, packed into
/// one word so the stamp is a single plain store before the record's
/// publishing CAS. kNoOwner means "not stamped" (trait off, or a tree-level
/// op with no handle identity).
inline constexpr std::uint64_t kNoOwner = ~std::uint64_t{0};

inline constexpr std::uint64_t pack_owner(unsigned tid,
                                          std::uint64_t op_seq) noexcept {
  return (static_cast<std::uint64_t>(tid & 0xffffu) << 48) |
         (op_seq & ((std::uint64_t{1} << 48) - 1));
}
inline constexpr unsigned owner_tid(std::uint64_t owner) noexcept {
  return static_cast<unsigned>(owner >> 48);
}
inline constexpr std::uint64_t owner_seq(std::uint64_t owner) noexcept {
  return owner & ((std::uint64_t{1} << 48) - 1);
}

/// What an Event reports; `code` holds the matching enum value.
enum class EventKind : std::uint8_t {
  kCas,         // a protocol CAS executed: code = CasStep, ok, node
  kPoint,       // a pause point passed: code = HookPoint
  kHelp,        // kBeforeHelp / kAfterHelp: code = HookPoint, owner
  kPhaseEnter,  // an explicit phase scope opened: code = Phase
  kPhaseExit,   // an explicit phase scope closed: code = Phase
};

/// One observation from the protocol: the full site identity (what, which
/// thread, which operation key) plus the kind-specific payload. `key` is
/// kNoKey unless the OpContext tracks keys (Traits::kTrackKeys, see
/// op_context.hpp); `owner` is the packed stamp of the helped operation on
/// kHelp events of a kCausalTrace tree, kNoOwner otherwise.
struct Event {
  EventKind kind;
  std::uint8_t code;
  bool ok = false;              // CAS outcome (kCas)
  const void* node = nullptr;   // CAS target (kCas)
  unsigned tid = kNoTid;
  std::uint64_t key = kNoKey;
  std::uint64_t owner = kNoOwner;

  CasStep step() const noexcept { return static_cast<CasStep>(code); }
  HookPoint point() const noexcept { return static_cast<HookPoint>(code); }
  Phase phase() const noexcept { return static_cast<Phase>(code); }
  /// kPoint or kHelp: the event names a HookPoint.
  bool at_point() const noexcept {
    return kind == EventKind::kPoint || kind == EventKind::kHelp;
  }
  /// The help entry (kBeforeHelp), the event that carries the owner stamp.
  bool help_entry() const noexcept {
    return kind == EventKind::kHelp && point() == HookPoint::kBeforeHelp;
  }
};

// ---------------------------------------------------------------------------
// The event seam. Every emission site in core/ calls hooks::emit, which
// builds an Event and hands it to Traits::on_event(const Event&) — only if
// the Traits has that member. NoopTraits has none, so default trees build no
// Event and every emission compiles to nothing. PhaseScope brackets the
// allocation and retirement clusters with phase enter/exit events.
//
// allow_cas is the fault-injection gate, kept apart because it is a veto,
// not an observation: a Traits exposing allow_cas(step, node, tid) -> bool
// may veto a protocol CAS, which the call site then treats exactly like a
// CAS that lost its race (the fault model of src/inject/). Traits without
// the member compile to `true` and the branch folds away.
// ---------------------------------------------------------------------------
namespace hooks {

/// Whether a Traits type receives events at all.
template <typename Traits>
inline constexpr bool event_sink_v =
    requires(const Event& e) { Traits::on_event(e); };

/// A protocol CAS on `node` and its outcome, from the operation in `ctx`.
template <typename Traits, typename Ctx>
inline void emit([[maybe_unused]] const Ctx& ctx, [[maybe_unused]] CasStep s,
                 [[maybe_unused]] bool ok, [[maybe_unused]] const void* node) {
  if constexpr (event_sink_v<Traits>) {
    Traits::on_event(Event{EventKind::kCas, static_cast<std::uint8_t>(s), ok,
                           node, ctx.tid(), ctx.op_key()});
  }
}

/// A pause point. The help points carry the owner stamp read off the
/// Info/ScxRecord the helper dispatched on and become kHelp events.
template <typename Traits, typename Ctx>
inline void emit([[maybe_unused]] const Ctx& ctx, [[maybe_unused]] HookPoint p,
                 [[maybe_unused]] std::uint64_t owner = kNoOwner) {
  if constexpr (event_sink_v<Traits>) {
    const bool help = p == HookPoint::kBeforeHelp || p == HookPoint::kAfterHelp;
    Traits::on_event(Event{help ? EventKind::kHelp : EventKind::kPoint,
                           static_cast<std::uint8_t>(p), false, nullptr,
                           ctx.tid(), ctx.op_key(), owner});
  }
}

/// RAII phase bracket: a kPhaseEnter event on construction, kPhaseExit on
/// destruction. Marks the regions whose cost the HookPoint stream cannot
/// infer (reclamation, pool_alloc); with a sink-less Traits both edges fold
/// to nothing.
template <typename Traits>
class PhaseScope {
 public:
  PhaseScope(Phase ph, unsigned tid) noexcept : ph_(ph), tid_(tid) {
    edge(EventKind::kPhaseEnter);
  }
  ~PhaseScope() { edge(EventKind::kPhaseExit); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  void edge([[maybe_unused]] EventKind kind) const {
    if constexpr (event_sink_v<Traits>) {
      Traits::on_event(Event{kind, static_cast<std::uint8_t>(ph_), false,
                             nullptr, tid_});
    }
  }

  [[maybe_unused]] Phase ph_;
  [[maybe_unused]] unsigned tid_;
};

template <typename Traits>
inline bool allow_cas(CasStep s, const void* node, unsigned tid) {
  if constexpr (requires { Traits::allow_cas(s, node, tid); }) {
    return static_cast<bool>(Traits::allow_cas(s, node, tid));
  } else {
    (void)s;
    (void)node;
    (void)tid;
    return true;
  }
}

// Optional Traits flags, detected by the facade (absence = default).

/// kTrackKeys (default false) — stamp each operation's key into its
/// OpContext so every Event carries it (key-space attribution for the
/// contention heatmap, obs/heatmap.hpp).
template <typename Traits>
inline constexpr bool track_keys_v = [] {
  if constexpr (requires { Traits::kTrackKeys; }) {
    return static_cast<bool>(Traits::kTrackKeys);
  } else {
    return false;
  }
}();

/// kCausalTrace (default false) — stamp every Info/ScxRecord with its
/// creator's {tid, op_seq} owner word, maintain per-handle progress words
/// (op_seq/key/retries/step/help depth, core/op_context.hpp) for the
/// liveness watchdog, and carry the owner in the kBeforeHelp/kAfterHelp
/// events so causality consumers (obs/causal.hpp) can attribute helping.
template <typename Traits>
inline constexpr bool causal_trace_v = [] {
  if constexpr (requires { Traits::kCausalTrace; }) {
    return static_cast<bool>(Traits::kCausalTrace);
  } else {
    return false;
  }
}();

}  // namespace hooks

/// Zero-cost default: no event sink and statistics are disabled.
/// kSearchHelpsMarked selects the paper's §6 Search variant: a Search that
/// encounters a marked internal node helps complete the deletion's dchild
/// CAS (splicing the node out) and restarts. The paper proposes this
/// modification as the precondition for hazard-pointer reclamation — a
/// marked-but-linked node must not outlive the deleter indefinitely. The
/// trade-off: Find is no longer read-only under this variant.
struct NoopTraits {
  static constexpr bool kCountStats = false;
  static constexpr bool kSearchHelpsMarked = false;
};

/// §6 variant: searches splice out marked nodes they encounter.
struct HelpingSearchTraits : NoopTraits {
  static constexpr bool kSearchHelpsMarked = true;
};

/// Test traits: CAS and point events dispatch to (re)settable global
/// std::functions. Distinct template instantiations do not interfere with
/// trees using NoopTraits; gtest runs test bodies serially, so tests
/// install/reset these around themselves.
struct CallbackTraits : NoopTraits {
  static constexpr bool kCountStats = true;

  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline std::function<void(CasStep, bool, const void*)> on_cas_fn;
  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline std::function<void(HookPoint)> at_fn;

  static void on_event(const Event& e) {
    if (e.kind == EventKind::kCas) {
      if (on_cas_fn) on_cas_fn(e.step(), e.ok, e.node);
    } else if (e.at_point() && at_fn) {
      at_fn(e.point());
    }
  }

  static void reset() {
    on_cas_fn = nullptr;
    at_fn = nullptr;
  }
};

/// Statistics-only traits for benchmarks (E5): counters on, no event sink.
struct StatsTraits : NoopTraits {
  static constexpr bool kCountStats = true;
};

}  // namespace efrb
