// The LLX/SCX primitive layer (Brown–Ellen–Ruppert, "A General Technique
// for Non-blocking Trees", PODC 2014; "Pragmatic Primitives for Non-blocking
// Data Structures", PODC 2013).
//
// Two things live here, and both are shared seams rather than one tree's
// private machinery:
//
//  1. TaggedInfoWord / AtomicInfoWord — the (state tag, record pointer)
//     single-CAS-word packing. The EFRB update word of core/layout.hpp is the
//     four-state specialization (`Update = TaggedInfoWord<UpdateState, Info>`)
//     and the SCX info word below is the two-state one (mark bit + ScxRecord
//     pointer). Equality of words is equality of (state, record) pairs, which
//     is what gives both protocols their "values never repeat" property.
//
//  2. The LLX/SCX engine. A Data-record (here: a binary tree node with an
//     `scx` info word; an internal one also has `left` and `right`, a leaf
//     has no mutable field at all — see the ScxLayout concept) is
//     read with llx(), which returns a consistent snapshot of the mutable
//     fields plus the witnessed info word, or FAILED/FINALIZED. An update is
//     committed with scx(): freeze every node in V by CASing its info word
//     onto a freshly allocated ScxRecord, mark the finalize-set R, swing one
//     child pointer old -> new, and commit. Helping is embedded: any thread
//     that runs into a frozen node re-executes help_scx() on the record it
//     found there, exactly like the EFRB Help dispatch re-executes
//     HelpInsert/HelpDelete from an Info record. The EFRB eight-step protocol
//     is the hand-specialized instance of this pattern (flag == freeze of one
//     node, mark == freeze + finalize, child CAS == the SCX field swing);
//     core/chromatic.hpp is the first algorithm written directly against the
//     generic form.
//
// Record reclamation. A committed/aborted ScxRecord stays reachable through
// the info words of the nodes it froze (llx() dereferences rec->state), so
// records are released by reference counting the *published* info-word
// references: the unique winner of each freeze CAS increments the new
// record's count and decrements the displaced record's; the unique commit
// winner releases the references held by finalized (marked, spliced-out)
// nodes, and retires those nodes. The count is raised *before* each freeze
// attempt and rolled back on failure, so it never undercounts the published
// references; whoever observes it at zero claims the record (single claim
// bit) and retires it through the operation's OpContext, so the Epoch,
// Hazard and HP-domain reclaimers all work unchanged. Stale helpers
// may touch a drained record after it is retired — they were pinned before
// the displacement that drained it, so every reclaimer defers the free past
// them.
//
// Memory-order audit (mirrors the core/protocol.hpp discipline):
//   * info-word loads are acquire; the llx() double-read relies on read-read
//     coherence: once the child loads (acquire) observe a later record's
//     field swing (release), the second info load cannot read the older word.
//   * freeze CAS is acq_rel / acquire — it publishes the record's payload to
//     helpers and orders the displaced record's retirement.
//   * the field swing is release on success (publishes the new subtree's
//     initialization) / relaxed on failure (losers discard the witness).
//   * state / all_frozen stores are release, loads acquire: a helper that
//     observes Committed also observes the committed child swing.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>

#include "core/debug_hooks.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace efrb {

// ---------------------------------------------------------------------------
// The shared tagged-word seam.
// ---------------------------------------------------------------------------

/// Immutable snapshot of an info word: (state tag, record pointer) packed
/// into one CAS word. StateT is an enum whose numeric values fit in the two
/// low pointer bits (records must be aligned >= 4).
template <typename StateT, typename RecordT>
class TaggedInfoWord {
 public:
  constexpr TaggedInfoWord() noexcept : bits_(0) {}  // {StateT{0}, nullptr}

  static TaggedInfoWord make(StateT s, RecordT* rec) noexcept {
    const auto p = reinterpret_cast<std::uintptr_t>(rec);
    EFRB_DCHECK((p & kTagMask) == 0);
    return TaggedInfoWord(p | static_cast<std::uintptr_t>(s));
  }

  static constexpr TaggedInfoWord from_bits(std::uintptr_t bits) noexcept {
    return TaggedInfoWord(bits);
  }

  StateT state() const noexcept { return static_cast<StateT>(bits_ & kTagMask); }

  RecordT* info() const noexcept {
    return reinterpret_cast<RecordT*>(bits_ & ~kTagMask);
  }

  std::uintptr_t bits() const noexcept { return bits_; }

  friend bool operator==(TaggedInfoWord a, TaggedInfoWord b) noexcept {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(TaggedInfoWord a, TaggedInfoWord b) noexcept {
    return a.bits_ != b.bits_;
  }

 private:
  explicit constexpr TaggedInfoWord(std::uintptr_t bits) noexcept
      : bits_(bits) {}
  static constexpr std::uintptr_t kTagMask = 0x3;
  std::uintptr_t bits_;
};

/// The atomic info field holding a TaggedInfoWord.
template <typename Word>
class AtomicInfoWord {
 public:
  AtomicInfoWord() noexcept : bits_(0) {}

  Word load(std::memory_order order = std::memory_order_acquire) const noexcept {
    return Word::from_bits(bits_.load(order));
  }

  void store(Word w,
             std::memory_order order = std::memory_order_release) noexcept {
    bits_.store(w.bits(), order);
  }

  /// Single-word CAS; on failure `expected` is refreshed with the witnessed
  /// value (which callers hand to the help dispatch of their protocol).
  bool compare_exchange(
      Word& expected, Word desired,
      std::memory_order success = std::memory_order_acq_rel,
      std::memory_order failure = std::memory_order_acquire) noexcept {
    std::uintptr_t exp = expected.bits();
    const bool ok =
        bits_.compare_exchange_strong(exp, desired.bits(), success, failure);
    expected = Word::from_bits(exp);
    return ok;
  }

 private:
  std::atomic<std::uintptr_t> bits_;
};

// ---------------------------------------------------------------------------
// SCX records and info words.
// ---------------------------------------------------------------------------

/// SCX info-word tag: a single mark bit. A marked node is finalized — it has
/// been (or is irrevocably about to be) spliced out of the structure.
enum class ScxMark : std::uintptr_t {
  kUnmarked = 0,
  kMarked = 1,
};

/// Lifecycle of one SCX transaction.
enum class ScxState : std::uint8_t {
  kInProgress = 0,
  kCommitted = 1,
  kAborted = 2,
};

template <typename Node, bool kTraced = false>
struct ScxRecordOf;

// Info words point at the untraced record, whose fields every record has.
template <typename Node>
using ScxWord = TaggedInfoWord<ScxMark, ScxRecordOf<Node>>;

template <typename Node>
using AtomicScxWord = AtomicInfoWord<ScxWord<Node>>;

/// One SCX transaction descriptor: the nodes to freeze (V), the info words
/// llx() witnessed for them, which of them are finalized (R, as a bitmask
/// over V), and the single child-pointer swing that commits the update.
/// Immutable after scx() starts except for the atomic lifecycle fields, so
/// helpers can re-execute help_scx() idempotently from the record alone.
/// Precondition on every record: `new_child` is freshly allocated and has
/// never been linked into the structure before — the child swing's
/// ABA-freedom depends on it (see the note in help_scx()).
///
/// The byte-wide fields sit next to `refs`, so the untraced record is 104 B
/// (glibc's 112 B chunk class); only a traced one carries an owner word (the
/// specialization below).
template <typename Node, bool kTraced>
struct ScxRecordOf {
  static constexpr std::size_t kMaxNodes = 4;

  Node* nodes[kMaxNodes] = {};
  ScxWord<Node> infos[kMaxNodes] = {};
  std::atomic<Node*>* field = nullptr;
  Node* old_child = nullptr;
  Node* new_child = nullptr;
  std::uint8_t num_nodes = 0;
  std::uint8_t finalize_mask = 0;
  std::atomic<ScxState> state{ScxState::kInProgress};
  std::atomic<bool> all_frozen{false};
  // Published info-word references (see the reclamation note in the header).
  std::atomic<std::int32_t> refs{0};
  std::atomic<bool> claimed{false};
};

/// The record of a kCausalTrace instantiation: the shared fields plus the
/// causal owner stamp, pack_owner(tid, op_seq) of the creating operation.
/// The creator writes it before scx() publishes the record through the first
/// freeze CAS (acq_rel), and helpers read it only after an acquire load of a
/// frozen info word, so a plain word is race-free. Info words hold the
/// untraced base; every record of one tree has the tree's one record type,
/// so the engine casts the base back down to it.
template <typename Node>
struct ScxRecordOf<Node, true> : ScxRecordOf<Node, false> {
  std::uint64_t owner = kNoOwner;
};

/// Requirements on the node types usable with this engine. A Data-record
/// (Node) carries the packed (mark, ScxRecord*) info word and, in its
/// immutable header, its kind: the layout's is_leaf(). Only an Internal has
/// mutable fields, its two child pointers; a leaf has none, so llx() reads
/// no children of a leaf and its snapshot reports both as null. Algorithms
/// with other mutable fields (the "third tree type" seam, see docs/API.md)
/// would generalize the snapshot and the freeze loop; everything else —
/// records, helping, reclamation — is already field-agnostic.
template <typename L>
concept ScxLayout =
    std::derived_from<typename L::Internal, typename L::Node> &&
    requires(typename L::Node* n, typename L::Internal* in) {
      { L::is_leaf(n) } -> std::same_as<bool>;
      { in->left } -> std::same_as<std::atomic<typename L::Node*>&>;
      { in->right } -> std::same_as<std::atomic<typename L::Node*>&>;
      { n->scx } -> std::same_as<AtomicScxWord<typename L::Node>&>;
    };

/// llx() result. `ok` distinguishes a usable snapshot; `finalized` reports a
/// node that is being (or has been) spliced out, which callers treat as "the
/// search path is stale — retry from the root".
template <typename Node>
struct LlxResult {
  ScxRecordOf<Node>* info = nullptr;  // witnessed decided record (freeze expected)
  Node* left = nullptr;
  Node* right = nullptr;
  bool ok = false;
  bool finalized = false;
};

// ---------------------------------------------------------------------------
// The engine. Traits supplies the hook surface (core/debug_hooks.hpp); Ctx is
// an OpContext binding the reclaimer, allocator, stats shard and thread/key
// identity — the same object the EFRB protocol threads through its steps.
// ---------------------------------------------------------------------------
template <ScxLayout Layout, typename Traits, typename Ctx>
struct LlxScx {
  using Node = typename Layout::Node;
  using Internal = typename Layout::Internal;
  /// The record type this instantiation allocates (owner word iff traced).
  using Rec = ScxRecordOf<Node, hooks::causal_trace_v<Traits>>;
  using Word = ScxWord<Node>;

  static_assert(sizeof(ScxRecordOf<Node>) <= 104,
                "untraced SCX record outgrew glibc's 112 B chunk class");
  static_assert(kPlainNewAligned<Rec>,
                "over-aligned SCX record: every heap `new` would take "
                "aligned operator new (glibc memalign, no tcache) on the "
                "update path");

  /// Load-link-extended (paper Fig. 1): witness the info word, confirm the
  /// record is decided and the node unmarked, read the mutable fields, and
  /// confirm the word did not change. Helps any in-progress SCX it runs into.
  /// A leaf has no mutable fields: the witnessed word is its whole snapshot.
  static LlxResult<Node> llx(Ctx& ctx, Node* n) {
    LlxResult<Node> r;
    const Word m = n->scx.load(std::memory_order_acquire);
    Rec* rinfo = static_cast<Rec*>(m.info());
    const ScxState st = rinfo == nullptr
                            ? ScxState::kCommitted
                            : rinfo->state.load(std::memory_order_acquire);
    if (m.state() == ScxMark::kMarked) {
      // Marking happens only after all_frozen, so this removal is guaranteed
      // to commit; push it over the line before reporting FINALIZED.
      if (st == ScxState::kInProgress) help_other(ctx, rinfo);
      r.finalized = true;
      return r;
    }
    if (st != ScxState::kInProgress) {
      if (Layout::is_leaf(n)) {
        r.info = rinfo;
        r.ok = true;
        return r;
      }
      const Internal* in = static_cast<const Internal*>(n);
      Node* l = in->left.load(std::memory_order_acquire);
      Node* rt = in->right.load(std::memory_order_acquire);
      if (n->scx.load(std::memory_order_acquire) == m) {
        r.info = rinfo;
        r.left = l;
        r.right = rt;
        r.ok = true;
        return r;
      }
    } else {
      help_other(ctx, rinfo);
    }
    return r;  // FAILED
  }

  /// Helps another operation's in-progress transaction through, bracketed by
  /// the help events. The owner stamp of the helped transaction exists and
  /// is loaded only in kCausalTrace instantiations (see the help() note in
  /// protocol.hpp).
  static void help_other(Ctx& ctx, Rec* rinfo) {
    std::uint64_t owner = kNoOwner;
    if constexpr (hooks::causal_trace_v<Traits>) owner = rinfo->owner;
    hooks::emit<Traits>(ctx, HookPoint::kBeforeHelp, owner);
    ctx.count_help();
    ctx.help_enter();
    help_scx(ctx, rinfo);
    ctx.help_exit();
    hooks::emit<Traits>(ctx, HookPoint::kAfterHelp, owner);
  }

  /// Store-conditional-extended: run the transaction described by `rec`
  /// (freshly allocated with `new Rec` and fully filled in by the caller).
  /// The caller must not touch `rec` after this returns — ownership passes to
  /// the refcount drain either way (a record whose first freeze lost drains
  /// to zero through its own rollback and is claimed right there).
  static bool scx(Ctx& ctx, Rec* rec) {
    EFRB_DCHECK(rec->num_nodes >= 1 && rec->num_nodes <= Rec::kMaxNodes);
    if constexpr (hooks::causal_trace_v<Traits>) {
      rec->owner = ctx.owner();  // plain store precedes the first freeze CAS
    }
    return help_scx(ctx, rec);
  }

  /// The idempotent helping core (paper Fig. 5). Every helper (and the
  /// creator) processes V in the same fixed order against the same expected
  /// words stored in the record — which is what makes a post-decision freeze
  /// success impossible and the refcount drain sound (see header).
  static bool help_scx(Ctx& ctx, Rec* rec) {
    // Freeze each V-node in order by CASing its info word onto rec. The
    // reference is counted *before* the CAS and rolled back on failure, so
    // refs never undercounts the published references.
    const Word desired = Word::make(ScxMark::kUnmarked, rec);
    for (std::uint8_t i = 0; i < rec->num_nodes; ++i) {
      Node* v = rec->nodes[i];
      Word cur = v->scx.load(std::memory_order_acquire);
      if (cur.info() == rec) {
        continue;  // already frozen (or marked) for rec by another helper
      }
      hooks::emit<Traits>(ctx, HookPoint::kBeforeFreeze);
      Word expected = rec->infos[i];
      rec->refs.fetch_add(1, std::memory_order_acq_rel);
      const bool ok =
          hooks::allow_cas<Traits>(CasStep::kFreeze, v, ctx.tid()) &&
          v->scx.compare_exchange(expected, desired,
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire);
      hooks::emit<Traits>(ctx, CasStep::kFreeze, ok, v);
      ctx.count_cas(CasStep::kFreeze, ok);
      if (ok) {
        // Unique freeze winner releases the displaced record's reference.
        release_ref(ctx, static_cast<Rec*>(rec->infos[i].info()));
        continue;
      }
      release_ref(ctx, rec);  // roll back the speculative count
      cur = v->scx.load(std::memory_order_acquire);
      if (cur.info() == rec) {
        continue;  // lost the freeze race to another helper of rec
      }
      // v is frozen for someone else (or moved on). If rec already reached
      // all_frozen, the transaction is committed regardless — the release /
      // acquire chain through v's newer info word guarantees we see it.
      if (rec->all_frozen.load(std::memory_order_acquire)) return true;
      ScxState exp = ScxState::kInProgress;
      rec->state.compare_exchange_strong(exp, ScxState::kAborted,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
      return false;
    }
    rec->all_frozen.store(true, std::memory_order_release);

    // Finalize R: mark each spliced-out node. Plain store — every helper
    // writes the identical word over (unmarked, rec), and no later freeze can
    // target a frozen node until rec is decided.
    for (std::uint8_t i = 0; i < rec->num_nodes; ++i) {
      if ((rec->finalize_mask >> i) & 1u) {
        rec->nodes[i]->scx.store(Word::make(ScxMark::kMarked, rec),
                                 std::memory_order_release);
      }
    }

    // Swing the child pointer. Losing the CAS means another helper already
    // performed it, or the field moved on after this record was decided.
    // ABA-freedom precondition (on the algorithm, not enforced here): every
    // record's new_child is freshly allocated and never previously linked,
    // so a child field never holds the same value twice and this CAS can
    // succeed at most once per record — even when old_child itself stays
    // reachable after displacement (e.g. the chromatic insert fast path
    // keeps the displaced leaf alive below the new internal). Re-linking an
    // existing node as new_child would break exactly this: a stalled helper
    // holding the displaced value as its expected old_child could fire again
    // and resurrect a retired subtree.
    hooks::emit<Traits>(ctx, HookPoint::kBeforeScxChild);
    Node* old_c = rec->old_child;
    const bool cok =
        hooks::allow_cas<Traits>(CasStep::kScxChild, rec->field, ctx.tid()) &&
        rec->field->compare_exchange_strong(old_c, rec->new_child,
                                            std::memory_order_release,
                                            std::memory_order_relaxed);
    hooks::emit<Traits>(ctx, CasStep::kScxChild, cok, rec->field);
    ctx.count_cas(CasStep::kScxChild, cok);

    // Commit. The unique winner of the state CAS retires the finalized nodes
    // and releases the references their (marked, rec) words hold — those
    // words are never displaced, so nobody else would.
    hooks::emit<Traits>(ctx, HookPoint::kBeforeScxCommit);
    ScxState exp = ScxState::kInProgress;
    if (rec->state.compare_exchange_strong(exp, ScxState::kCommitted,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      for (std::uint8_t i = 0; i < rec->num_nodes; ++i) {
        if ((rec->finalize_mask >> i) & 1u) {
          ctx.template retire<Node>(rec->nodes[i]);
          release_ref(ctx, rec);
        }
      }
    }
    return true;
  }

  /// Drop one reference; whoever observes zero claims and retires the
  /// record. Because every increment precedes its paired decrement (a
  /// speculative count precedes the freeze CAS it covers, and a displacement
  /// can only follow the displaced record's publication), the count is an
  /// upper bound on the published references — zero really means drained.
  static void release_ref(Ctx& ctx, Rec* r) {
    if (r == nullptr) return;
    r->refs.fetch_sub(1, std::memory_order_acq_rel);
    maybe_retire(ctx, r);
  }

  static void maybe_retire(Ctx& ctx, Rec* r) {
    if (r->refs.load(std::memory_order_acquire) != 0) return;
    if (!r->claimed.exchange(true, std::memory_order_acq_rel)) {
      ctx.template retire<Rec>(r);
    }
  }
};

}  // namespace efrb
