// A balanced chromatic tree over the LLX/SCX substrate (core/llx_scx.hpp) —
// the first algorithm in this repo written directly against the generic
// Data-record seam rather than the hand-specialized EFRB protocol.
//
// A chromatic tree (Nurmi & Soisalon-Soininen; Boyar & Larsen) is a
// relaxed-balance red-black tree: every node carries a weight (0 = red,
// 1 = black, >= 2 = overweight), and the hard invariant — maintained by every
// transformation here — is that all root-to-leaf paths through the real
// subtree have equal weighted sums. Balance violations (red-red: a weight-0
// node with a weight-0 parent; overweight: weight >= 2) are tolerated
// transiently and repaired by a decoupled cleanup phase, so each update is a
// small O(1)-node LLX/SCX transaction instead of a root-locked rebalance.
//
// Structure: leaf-oriented, like EFRB (Fig. 6 of the 2010 paper): real keys
// live in leaves, internal keys route (left subtree < key <= right subtree),
// and the sentinel spine ∞₁ < ∞₂ removes the empty/one-key special cases.
// Leaves and internals are different types over one header (ChromaticLayout,
// the shape of the EFRB NodeLayout): a leaf holds the value and has no
// mutable field, an internal holds the two child pointers, and the header's
// immutable kind bit says which one a node is.
//
// Every mutation is one SCX: freeze the O(1)-node window V by CASing its info
// words onto a fresh ScxRecord, mark the replaced set R, swing one child
// pointer, commit. Helping, abort-on-conflict, and record reclamation are
// entirely the engine's; this file only describes windows:
//
//   insert  V={p}          R={}        p's child l -> internal(new, l)
//           (l reused by pointer; when l is overweight its copy changes
//            weight, so the slow shape V={p,l} R={l} copies it instead)
//   assign  V={p,l}        R={l}       p's child l -> copy(l, new value)
//   erase   V={gp,p,l,s}   R={p,l,s}   gp's child p -> copy(s) absorbing
//           w(p)+w(s) (always a fresh copy, never the sibling by pointer —
//           see the ABA note in erase())
//   cleanup V⊆{p3,p2,p1,u,sibling}     one balance transformation (below)
//
// Rebalancing transformations (each preserves the weighted path-sum
// invariant exactly; weights in parentheses):
//
//   BLK    red-red at u, uncle red: recolor — p2(w-1)[p1(1), uncle(1)]
//   RB1    red-red at u outer, uncle black: single rotation, p1 up
//   RB2    red-red at u inner, uncle black: double rotation, u up
//   relabel red (or overweight) top of the real subtree: copy at weight 1
//   W_ROT  overweight at u, red sibling: rotate the sibling above p1
//   PUSH   overweight at u, black sibling: w(u)-1, w(s)-1, w(p1)+1
//
// Rebalancing is on demand. The walk that locates an update's window also
// counts the violations on k's search path; after the SCX commits, the update
// adds the violations its own window created and calls cleanup(k) only when
// the total exceeds kLazyViolations (the relaxed trigger of Brown, Ellen &
// Ruppert, "A General Technique for Non-blocking Trees"). An insert changes
// only its own path (the displaced leaf's sibling path carries the same
// count), so insert-only histories keep every path at <= kLazyViolations. An
// erase swings in a copy of the sibling, whose subtree the walk never saw, so
// erase histories bound only the erased key's path, not every path.
//
// One repairer at a time. Triggering updates on a sorted stream all walk the
// same right edge, and concurrent passes there freeze and abort each other's
// windows. So a trigger repairs only if it takes the tree's repairer flag;
// while another thread holds the flag it returns and leaves its path to that
// pass or to a later trigger (cleanup is best-effort work any update can
// redo). Nobody ever waits on the flag, so every operation stays lock-free.
// The hatch: a path above kHatchViolations (4 * kLazyViolations) is repaired
// whether or not its updater holds the flag, so a preempted or stalled
// repairer leaves other paths at about that many violations, never an
// unbounded number. A single thread always gets the flag, so the
// insert-only bound above holds for it unchanged; under concurrency a path
// can stay between the two thresholds until its next trigger.
//
// cleanup(k) walks the search path for k from the root, fixes the topmost
// violation it meets with one SCX, and restarts, up to a bounded number of
// rounds. The cap makes the cost strictly bounded; when it is hit the pass
// counts a TreeStats::cleanup_abandoned and parks the key in a one-deep
// stash (ParkedViolation) that the next mutating op drains, so a violation
// PUSHed off every future search path is still repaired eventually. The
// path-sum invariant and linearizability are never at risk either way.
// Brown's per-violation responsibility hand-off remains the stronger scheme
// and is noted in ROADMAP.md.
//
// Reclamation, stats, hooks and fault injection all arrive through the same
// OpContext the EFRB core uses: retired nodes and drained ScxRecords go
// through ctx.retire (Epoch/Hazard/HP-domain reclaimers),
// descent depths feed TreeStats::depth_*, committed transformations bump
// TreeStats::rotations, and every freeze/child CAS is gated and emitted via
// core/debug_hooks.hpp (CasStep::kFreeze / kScxChild).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bounded_key.hpp"
#include "core/debug_hooks.hpp"
#include "core/llx_scx.hpp"
#include "core/op_context.hpp"
#include "core/protocol.hpp"  // InsertOutcome (shared with the EFRB core)
#include "core/tree_map.hpp"
#include "reclaim/epoch.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace efrb {

/// Structural validation outcome for chromatic trees (quiescent trees); see
/// ChromaticCore::validate. `ok` covers the hard invariants only — balance
/// violations are legal transient states and are reported as counts.
struct ChromaticValidation {
  bool ok = true;
  std::string error;
  std::size_t real_leaves = 0;
  std::size_t internals = 0;
  std::size_t height = 0;         // max depth over all nodes (root = 1)
  std::size_t red_red = 0;        // weight-0 nodes with weight-0 parents
  std::size_t overweight = 0;     // nodes with weight >= 2
  std::size_t max_path_violations = 0;  // most red-red + overweight nodes
                                        // on one root-to-leaf path
};

/// One-deep stash for the search key of a cleanup pass that hit the round
/// cap with a violation still on its path. The bounded cleanup loop makes
/// every op's rebalancing cost strictly finite, but giving up can PUSH a
/// red-red pair off every future search path, where no trigger ever revisits
/// it — the key remembers which path to resume on. Losing a stash under a
/// concurrent overwrite is benign (the stash is a repair hint, not a
/// correctness obligation; abandonments are also counted in TreeStats), so
/// the slot is deliberately single-entry and last-writer-wins. Only capped
/// passes stash: a trigger that skips its repair because another thread holds
/// the repairer flag (ChromaticCore::cleanup) stashes nothing, since its
/// violations stay on its own path, where the next trigger there meets them.
///
/// Storage: keys with an integral round-trip go through a pair of atomics
/// (lock-free; take() may pair a key from one stash with another's armed
/// flag under a race, which just resumes a different valid path). Other key
/// types fall back to a tiny mutex that is touched only when a stash exists
/// — never on the clean-path fast exit, which checks `armed_` alone.
template <typename Key>
class ParkedViolation {
  static constexpr bool kAtomicKey =
      std::is_integral_v<Key> && sizeof(Key) <= sizeof(std::uint64_t);

 public:
  bool armed() const noexcept {
    return armed_.load(std::memory_order_acquire);
  }

  void stash(const Key& k) {
    if constexpr (kAtomicKey) {
      key_.store(static_cast<std::uint64_t>(k), std::memory_order_relaxed);
    } else {
      const std::lock_guard<std::mutex> lock(mu_);
      slot_ = k;
    }
    armed_.store(true, std::memory_order_release);
  }

  std::optional<Key> take() {
    if (!armed_.exchange(false, std::memory_order_acq_rel)) {
      return std::nullopt;
    }
    if constexpr (kAtomicKey) {
      return static_cast<Key>(key_.load(std::memory_order_relaxed));
    } else {
      const std::lock_guard<std::mutex> lock(mu_);
      std::optional<Key> out = std::move(slot_);
      slot_.reset();
      return out;
    }
  }

 private:
  struct Empty {};

  std::atomic<bool> armed_{false};
  [[no_unique_address]] std::conditional_t<kAtomicKey,
                                           std::atomic<std::uint64_t>,
                                           Empty> key_{};
  [[no_unique_address]] std::conditional_t<kAtomicKey, Empty, std::mutex> mu_;
  [[no_unique_address]] std::conditional_t<kAtomicKey, Empty,
                                           std::optional<Key>> slot_;
};

/// The chromatic node types, the same shape as the EFRB NodeLayout: a leaf
/// holds the data and no mutable field, an internal routes through two child
/// pointers, and both are Data-records of the LLX/SCX engine (ScxLayout).
/// The header's kind and weight are immutable — reweighting replaces the
/// node, which is what lets llx() treat everything except an internal's
/// children and the info word as constant.
template <typename Key, typename Value>
struct ChromaticLayout {
  using key_type = Key;
  using mapped_type = Value;
  using BKey = BoundedKey<Key>;

  struct Leaf;
  struct Internal;

  // The kind and the weight sit in the key's tail padding
  // (BoundedKey<uint64_t> is a word and a one-byte class), so the header
  // with its info word is 24 B: Leaf 32 B and Internal 40 B for
  // <uint64_t, uint64_t>, both in glibc's 48 B chunk class.
  struct Node {
    [[no_unique_address]] const BKey key;
    const bool is_internal;
    const std::int32_t weight;  // 0 = red, 1 = black, >= 2 overweight
    AtomicScxWord<Node> scx;

    Node(BKey k, bool internal, std::int32_t w)
        : key(std::move(k)), is_internal(internal), weight(w) {}

    // No vptr: `delete` through a Node* (a retired node, a tree being
    // destroyed, a discarded copy) destroys and frees the node as the kind
    // its header names, so a Leaf's Value destructor always runs.
    void operator delete(Node* n, std::destroying_delete_t) noexcept {
      if (n->is_internal) {
        delete static_cast<Internal*>(n);
      } else {
        delete static_cast<Leaf*>(n);
      }
    }
  };

  // The kinds' own (plain) operator delete hides Node's dispatching one, so
  // `delete` on a Leaf* or an Internal* skips the kind test.
  struct Leaf final : Node {
    [[no_unique_address]] Value value;
    Leaf(BKey k, Value v, std::int32_t w)
        : Node(std::move(k), false, w), value(std::move(v)) {}
    static void operator delete(void* p, std::size_t size) noexcept {
      ::operator delete(p, size);
    }
  };

  struct Internal final : Node {
    std::atomic<Node*> left;
    std::atomic<Node*> right;
    Internal(BKey k, std::int32_t w, Node* l, Node* r)
        : Node(std::move(k), true, w), left(l), right(r) {}
    static void operator delete(void* p, std::size_t size) noexcept {
      ::operator delete(p, size);
    }
  };

  static_assert(kPlainNewAligned<Leaf, Internal>,
                "over-aligned node: every heap `new` would take aligned "
                "operator new (glibc memalign, no tcache) on the update path");

  // Navigation seam of the ordered walks (ordered.hpp) and of the LLX/SCX
  // engine: the leaf test, child loads (internal nodes only) and a leaf's
  // value.
  static bool is_leaf(const Node* n) noexcept { return !n->is_internal; }
  static const Node* left(const Node* n) noexcept {
    return static_cast<const Internal*>(n)->left.load(
        std::memory_order_acquire);
  }
  static const Node* right(const Node* n) noexcept {
    return static_cast<const Internal*>(n)->right.load(
        std::memory_order_acquire);
  }
  static const Value& value(const Node* n) noexcept {
    return static_cast<const Leaf*>(n)->value;
  }

  /// Copy `n` as its own kind with a new weight: a leaf keeps its value, an
  /// internal takes the given (snapshot) children.
  static Node* clone(const Node* n, std::int32_t w, Node* l, Node* r) {
    if (is_leaf(n)) {
      EFRB_DCHECK(l == nullptr && r == nullptr);
      return new Leaf(n->key, value(n), w);
    }
    return new Internal(n->key, w, l, r);
  }
};

/// The chromatic tree core: dictionary operations, the cleanup phase and the
/// validator, all over ChromaticLayout nodes and the LlxScx engine. The
/// ordered queries are the shared walks in ordered.hpp, and the facade is
/// the shared TreeMap (core/tree_map.hpp), exactly as for TreeCore.
template <typename Key, typename Value, typename Compare, typename Traits,
          typename Ctx>
class ChromaticCore {
 public:
  using Layout = ChromaticLayout<Key, Value>;
  using Node = typename Layout::Node;
  using Leaf = typename Layout::Leaf;
  using Internal = typename Layout::Internal;
  using BKey = typename Layout::BKey;
  using Llx = LlxScx<Layout, Traits, Ctx>;
  using Rec = typename Llx::Rec;
  using Word = typename Llx::Word;
  using ValidationResult = ChromaticValidation;
  static constexpr const char* kName = "chromatic-tree";

  /// Rounds of the bounded cleanup phase. Each round is one root-to-key walk
  /// plus at most one SCX; red-red cascades climb two levels per fix, so the
  /// cap is far above any height a bounded key space can produce.
  static constexpr int kMaxCleanupRounds = 256;

  /// Violations (red-red + overweight nodes) an update leaves on its own
  /// search path before it pays for cleanup. Batching repairs this way cuts
  /// rotations and retired nodes per update on sorted streams; eager
  /// rebalancing is the special case 0.
  static constexpr int kLazyViolations = 6;

  /// Path violations above which an update repairs even while another
  /// thread holds the repairer flag (see cleanup()): a stalled repairer can
  /// leave other paths at about this many violations, never more.
  static constexpr int kHatchViolations = 4 * kLazyViolations;

  explicit ChromaticCore(Compare cmp) : cmp_(std::move(cmp)) {
    // Fig. 6 shape, chromatic weights: every sentinel has weight 1.
    Leaf* left = new Leaf(BKey::inf1(), Value{}, 1);
    Leaf* right = nullptr;
    try {
      right = new Leaf(BKey::inf2(), Value{}, 1);
      root_ = new Internal(BKey::inf2(), 1, left, right);
    } catch (...) {
      delete right;
      delete left;
      throw;
    }
  }

  ChromaticCore(const ChromaticCore&) = delete;
  ChromaticCore& operator=(const ChromaticCore&) = delete;

  /// Requires quiescence. Frees every node reachable from the root (each as
  /// its own kind, see ChromaticLayout::Node) plus the ScxRecords still
  /// referenced by their info words (deduplicated — one committed record is
  /// referenced by every node it froze that was never displaced afterwards).
  ~ChromaticCore() {
    std::vector<Node*> stack{root_};
    std::vector<Rec*> recs;
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      const Word w = n->scx.load(std::memory_order_relaxed);
      if (w.info() != nullptr) recs.push_back(static_cast<Rec*>(w.info()));
      if (!Layout::is_leaf(n)) {
        const Internal* in = static_cast<const Internal*>(n);
        stack.push_back(in->left.load(std::memory_order_relaxed));
        stack.push_back(in->right.load(std::memory_order_relaxed));
      }
      delete n;
    }
    std::sort(recs.begin(), recs.end());
    recs.erase(std::unique(recs.begin(), recs.end()), recs.end());
    for (Rec* r : recs) delete r;
  }

  const BoundedCompare<Key, Compare>& cmp() const noexcept { return cmp_; }
  Internal* root() const noexcept { return root_; }

  // ---------------- Reads ----------------

  bool contains(const Key& k, Ctx& ctx) const {
    ctx.set_op_key(k);
    const Leaf* l = descend(k, ctx);
    hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
    return cmp_.equals(k, l->key);
  }

  std::optional<Value> get(const Key& k, Ctx& ctx) const {
    ctx.set_op_key(k);
    const Leaf* l = descend(k, ctx);
    hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
    if (!cmp_.equals(k, l->key)) return std::nullopt;
    return l->value;  // leaf payloads are immutable after publication
  }

  // ---------------- Updates ----------------

  /// Insert k (or assign its value when present and `assign_if_present`).
  /// The structural case is one SCX over V={p,l}: replace the leaf l by a
  /// new internal with {new leaf, copy of l} below it. Weights: under a
  /// sentinel parent everything is 1 (never introduces a violation at the
  /// top); replacing a red leaf keeps the whole replacement red (path sums
  /// unchanged: 0 = 0+0); otherwise the internal absorbs w(l)-1 and the
  /// leaves take 1 each ((w-1)+1 = w).
  InsertOutcome insert(const Key& k, Value v, bool assign_if_present,
                       Ctx& ctx) {
    ctx.set_op_key(k);
    ctx.begin_op();
    for (;;) {
      const DescentWindow w = walk(k, ctx);
      hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
      Internal* p = w.p;
      Leaf* l = w.l;
      if (cmp_.equals(k, l->key)) {
        if (!assign_if_present) {
          ctx.end_op();
          return InsertOutcome::kDuplicate;
        }
        const LlxResult<Node> rp = Llx::llx(ctx, p);
        std::atomic<Node*>* field = rp.ok ? field_for(p, rp, l) : nullptr;
        const LlxResult<Node> rl =
            field != nullptr ? Llx::llx(ctx, l) : LlxResult<Node>{};
        if (!rl.ok) {
          ctx.count_insert_retry();
          scx_retry(ctx);
          continue;
        }
        Leaf* nl = new Leaf(l->key, v, l->weight);
        Rec* rec = make_rec({p, l}, {rp.info, rl.info},
                            /*finalize_mask=*/0b10, field, l, nl);
        ctx.count_insert_attempt();
        if (Llx::scx(ctx, rec)) {
          resume_parked(ctx);  // mutating op: drain any abandoned repair
          ctx.end_op();
          return InsertOutcome::kAssigned;
        }
        delete nl;
        ctx.count_insert_retry();
        scx_retry(ctx);
        continue;
      }

      const LlxResult<Node> rp = Llx::llx(ctx, p);
      std::atomic<Node*>* field = rp.ok ? field_for(p, rp, l) : nullptr;
      if (field == nullptr) {
        ctx.count_insert_retry();
        scx_retry(ctx);
        continue;
      }
      std::int32_t wi, wl;
      if (!p->key.is_real()) {
        wi = 1;
        wl = 1;
      } else if (l->weight == 0) {
        wi = 0;
        wl = 0;
      } else {
        wi = l->weight - 1;
        wl = 1;
      }
      Leaf* nk = new Leaf(BKey::real(k), v, wl);
      // Leaf-oriented split: the larger key routes (left < key <= right).
      const bool k_left = cmp_.less(k, l->key);
      Internal* ni;
      Rec* rec;
      Leaf* nold = nullptr;
      if (wl == l->weight) {
        // Fast path (the common case — every leaf except an overweight one
        // keeps its weight): the old leaf stays in the tree below the new
        // internal, so nothing is removed and V = {p}. Freezing p alone is
        // enough: any transaction that would finalize l or swing it out must
        // change p's child and therefore freeze p itself, which conflicts.
        // Leaving the displaced l non-finalized is sound only because every
        // SCX in this file links a freshly allocated new_child, so the field
        // can never return to l and a stalled helper's child CAS (expecting
        // l) can never fire a second time — see the child-swing note in
        // llx_scx.hpp and the matching erase() note below.
        ni = new Internal(k_left ? l->key : BKey::real(k), wi,
                          k_left ? nk : l, k_left ? l : nk);
        rec = make_rec({p}, {rp.info}, /*finalize_mask=*/0b0, field, l, ni);
      } else {
        // The leaf's weight changes (w >= 2 collapsing to 1): copy it, and
        // the copy's window must freeze and finalize the original.
        const LlxResult<Node> rl = Llx::llx(ctx, l);
        if (!rl.ok) {
          delete nk;
          ctx.count_insert_retry();
          scx_retry(ctx);
          continue;
        }
        nold = new Leaf(l->key, l->value, wl);
        ni = new Internal(k_left ? l->key : BKey::real(k), wi,
                          k_left ? nk : nold, k_left ? nold : nk);
        rec = make_rec({p, l}, {rp.info, rl.info},
                       /*finalize_mask=*/0b10, field, l, ni);
      }
      ctx.count_insert_attempt();
      if (Llx::scx(ctx, rec)) {
        // Repair only when k's path now carries more than kLazyViolations:
        // the walk's count down to p, plus the new internal under p and the
        // new leaf under it (a red internal violates only under a red parent
        // or above red leaves; inheriting w(l)-1 >= 2 re-sites an existing
        // overweight). p->weight is immutable, so reading it after the
        // commit is safe even if p was already spliced out.
        const int violations =
            w.p_violations + violation(wi, p->weight) + violation(wl, wi);
        if (violations > kLazyViolations) {
          cleanup(k, violations, ctx);
        } else {
          resume_parked(ctx);  // clean commit still drains abandoned repairs
        }
        ctx.end_op();
        return InsertOutcome::kInserted;
      }
      delete ni;
      delete nold;
      delete nk;
      ctx.count_insert_retry();
      scx_retry(ctx);
    }
  }

  /// Atomic compare-and-replace on a key's value: one SCX over V={p,l}
  /// replacing the leaf, exactly the assign window with a value precondition.
  bool replace(const Key& k, const Value& expected, Value desired, Ctx& ctx) {
    ctx.set_op_key(k);
    ctx.begin_op();
    for (;;) {
      const DescentWindow w = walk(k, ctx);
      hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
      Internal* p = w.p;
      Leaf* l = w.l;
      if (!cmp_.equals(k, l->key) || !(l->value == expected)) {
        ctx.end_op();
        return false;
      }
      const LlxResult<Node> rp = Llx::llx(ctx, p);
      std::atomic<Node*>* field = rp.ok ? field_for(p, rp, l) : nullptr;
      const LlxResult<Node> rl =
          field != nullptr ? Llx::llx(ctx, l) : LlxResult<Node>{};
      if (!rl.ok) {
        ctx.count_insert_retry();
        scx_retry(ctx);
        continue;
      }
      Leaf* nl = new Leaf(l->key, desired, l->weight);
      Rec* rec = make_rec({p, l}, {rp.info, rl.info},
                          /*finalize_mask=*/0b10, field, l, nl);
      ctx.count_insert_attempt();
      if (Llx::scx(ctx, rec)) {
        resume_parked(ctx);  // mutating op: drain any abandoned repair
        ctx.end_op();
        return true;
      }
      delete nl;
      ctx.count_insert_retry();
      scx_retry(ctx);
    }
  }

  /// Delete k: one SCX over V={gp,p,l,s} splicing out the leaf l and its
  /// parent p, replacing them with a copy of the sibling s that absorbs both
  /// weights (w(p)+w(s) — the path sums through s are exactly preserved; the
  /// copy may be overweight, which cleanup then repairs). Under a sentinel
  /// grandparent the copy tops the real subtree and is pinned to weight 1.
  bool erase(const Key& k, Ctx& ctx) {
    ctx.set_op_key(k);
    ctx.begin_op();
    for (;;) {
      const DescentWindow w = walk(k, ctx);
      hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
      if (!cmp_.equals(k, w.l->key)) {
        ctx.end_op();
        return false;
      }
      Internal* gp = w.gp;
      Internal* p = w.p;
      Leaf* l = w.l;
      EFRB_DCHECK(gp != nullptr);  // real leaves sit below the sentinel spine
      const LlxResult<Node> rgp = Llx::llx(ctx, gp);
      std::atomic<Node*>* field = rgp.ok ? field_for(gp, rgp, p) : nullptr;
      const LlxResult<Node> rp =
          field != nullptr ? Llx::llx(ctx, p) : LlxResult<Node>{};
      Node* s = nullptr;
      if (rp.ok) {
        if (rp.left == l) {
          s = rp.right;
        } else if (rp.right == l) {
          s = rp.left;
        }
      }
      const LlxResult<Node> rl = s != nullptr ? Llx::llx(ctx, l)
                                              : LlxResult<Node>{};
      if (!rl.ok) {
        ctx.count_delete_retry();
        scx_retry(ctx);
        continue;
      }
      const LlxResult<Node> rs = Llx::llx(ctx, s);
      if (!rs.ok) {
        ctx.count_delete_retry();
        scx_retry(ctx);
        continue;
      }
      const std::int32_t nw =
          !gp->key.is_real() ? 1 : p->weight + s->weight;
      // The replacement is always a fresh copy of s, never s hoisted by
      // pointer — even when nw == s->weight. The engine's child-CAS
      // ABA-freedom rests on every value stored into a child field being a
      // never-before-linked node (llx_scx.hpp); the insert fast path keeps
      // its displaced leaf alive below the new internal, so hoisting that
      // leaf back into the same field here would hand a stalled helper of
      // the committed insert its expected old value again, letting its CAS
      // re-link the retired internal (resurrecting the erased key, then
      // use-after-free once the reclaimer frees it). Covered by
      // ChromaticFaultTest.StalledInsertHelperCannotResurrectErasedSubtree.
      Node* ns = Layout::clone(s, nw, rs.left, rs.right);
      Rec* rec = make_rec({gp, p, l, s}, {rgp.info, rp.info, rl.info, rs.info},
                          /*finalize_mask=*/0b1110, field, p, ns);
      ctx.count_delete_attempt();
      if (Llx::scx(ctx, rec)) {
        // Repair only when k's path now carries more than kLazyViolations:
        // the walk's count down to gp plus the sibling copy, which is
        // overweight when nw >= 2 and red-red when nw == 0 (both p and s
        // were red) under a red gp. Violations inside s's subtree are not
        // counted: the walk never went there.
        const int violations = w.gp_violations + violation(nw, gp->weight);
        if (violations > kLazyViolations) {
          cleanup(k, violations, ctx);
        } else {
          resume_parked(ctx);  // clean commit still drains abandoned repairs
        }
        ctx.end_op();
        return true;
      }
      delete ns;
      ctx.count_delete_retry();
      scx_retry(ctx);
    }
  }

  // ---------------- Cleanup (decoupled rebalancing) ----------------

  /// Drain any previously abandoned repair, then walk k's own path. Called
  /// by every mutation that left `violations` > kLazyViolations on its path;
  /// every other mutation calls resume_parked() directly, which is how a
  /// parked violation gets revisited even when no later op ever re-triggers
  /// on its path. Up to kHatchViolations the caller repairs only if it takes
  /// the repairer flag, and otherwise returns at once ("One repairer at a
  /// time" in the header note).
  void cleanup(const Key& k, int violations, Ctx& ctx) {
    if (violations > kHatchViolations) {
      resume_parked(ctx);
      cleanup_path(k, ctx);
      return;
    }
    std::atomic<bool>& flag = *repairing_;
    if (flag.load(std::memory_order_relaxed) ||
        flag.exchange(true, std::memory_order_acquire)) {
      return;
    }
    // Released on every exit: clone() and make_rec() can throw mid-pass.
    struct Release {
      std::atomic<bool>& flag;
      explicit Release(std::atomic<bool>& r) noexcept : flag(r) {}
      Release(const Release&) = delete;
      Release& operator=(const Release&) = delete;
      ~Release() { flag.store(false, std::memory_order_release); }
    } const release(flag);
    resume_parked(ctx);
    cleanup_path(k, ctx);
  }

  /// Resume the repair a capped cleanup pass left behind, if any. The armed
  /// check is one acquire load, so the common (nothing parked) case costs a
  /// predictable branch on the mutation success path.
  void resume_parked(Ctx& ctx) {
    if (!parked_.armed()) return;
    if (std::optional<Key> k = parked_.take()) cleanup_path(*k, ctx);
  }

  /// Walk the search path for k from the root; repair the topmost violation
  /// met with one SCX; restart. Returns when the path is violation-free or
  /// the round cap is hit — in which case the violation is still on k's
  /// path, so k is stashed for a later mutating op to resume (counted in
  /// TreeStats::cleanup_abandoned).
  void cleanup_path(const Key& k, Ctx& ctx) {
    for (int round = 0; round < kMaxCleanupRounds; ++round) {
      Internal* p3 = nullptr;
      Internal* p2 = nullptr;
      Internal* p1 = nullptr;
      Node* u = root_;
      for (;;) {
        const bool red_red =
            u->weight == 0 && p1 != nullptr && p1->weight == 0;
        if (red_red || u->weight >= 2) break;
        if (Layout::is_leaf(u)) return;  // clean path
        Internal* in = static_cast<Internal*>(u);
        p3 = p2;
        p2 = p1;
        p1 = in;
        u = child_toward(k, in);
      }
      hooks::emit<Traits>(ctx, HookPoint::kBeforeRebalance);
      bool fixed;
      if (u->weight >= 2) {
        fixed = fix_overweight(ctx, p2, p1, u);
      } else {
        fixed = fix_red_red(ctx, p3, p2, p1, u);
      }
      if (fixed) {
        ctx.count_rotation();
      } else {
        ctx.retry_pause();  // conflicting SCX won the window; re-walk
      }
    }
    // Round cap hit with a violation still on this path. Park the key so the
    // next mutating op resumes the repair; without this, a PUSH during the
    // capped pass can leave a red-red pair off every future search path.
    ctx.count_cleanup_abandoned();
    parked_.stash(k);
  }

  /// Structural validation (quiescent trees): leaf-oriented shape, BST key
  /// order with sentinel placement, non-negative weights with weight-1
  /// sentinels, and the chromatic hard invariant — every root-to-leaf path
  /// ending in a real leaf carries the same weighted sum. Balance violations
  /// are counted, not failed: they are legal transient states (and, past the
  /// cleanup cap, legal resting states).
  ChromaticValidation validate() const {
    ChromaticValidation r;
    if (root_->key.cls != KeyClass::kInf2) {
      r.ok = false;
      r.error = "root key is not ∞₂";
      return r;
    }
    struct Frame {
      const Node* n;
      const BKey* lower;  // inclusive (equal keys go right)
      const BKey* upper;  // exclusive
      std::size_t depth;
      std::int64_t sum;           // weighted path sum including n
      std::int32_t parent_weight;
      std::size_t violations;     // red-red + overweight nodes down to n
    };
    std::int64_t real_sum = -1;
    std::vector<Frame> stack{{root_, nullptr, nullptr, 1, root_->weight, 1,
                              0}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      r.height = std::max(r.height, f.depth);
      r.max_path_violations = std::max(r.max_path_violations, f.violations);
      if (f.lower != nullptr && cmp_(f.n->key, *f.lower)) {
        r.ok = false;
        r.error = "key below the lower bound inherited from an ancestor";
        return r;
      }
      if (f.upper != nullptr && !cmp_(f.n->key, *f.upper)) {
        r.ok = false;
        r.error = "key not strictly below the upper bound from an ancestor";
        return r;
      }
      if (f.n->weight < 0) {
        r.ok = false;
        r.error = "negative weight";
        return r;
      }
      if (!f.n->key.is_real() && f.n->weight != 1) {
        r.ok = false;
        r.error = "sentinel node with weight != 1";
        return r;
      }
      if (f.n->weight == 0 && f.parent_weight == 0) ++r.red_red;
      if (f.n->weight >= 2) ++r.overweight;
      if (Layout::is_leaf(f.n)) {
        if (f.n->key.is_real()) {
          ++r.real_leaves;
          if (real_sum < 0) {
            real_sum = f.sum;
          } else if (real_sum != f.sum) {
            r.ok = false;
            r.error = "unequal weighted path sums to real leaves";
            return r;
          }
        }
        continue;
      }
      const Internal* in = static_cast<const Internal*>(f.n);
      const Node* left = in->left.load(std::memory_order_acquire);
      const Node* right = in->right.load(std::memory_order_acquire);
      if (left == nullptr || right == nullptr) {
        r.ok = false;
        r.error =
            "internal node with a null child (leaf-oriented shape broken)";
        return r;
      }
      ++r.internals;
      stack.push_back(Frame{left, f.lower, &f.n->key, f.depth + 1,
                            f.sum + left->weight, f.n->weight,
                            f.violations + violation(left->weight,
                                                     f.n->weight)});
      stack.push_back(Frame{right, &f.n->key, f.upper, f.depth + 1,
                            f.sum + right->weight, f.n->weight,
                            f.violations + violation(right->weight,
                                                     f.n->weight)});
    }
    return r;
  }

 private:
  struct DescentWindow {
    Internal* gp;
    Internal* p;
    Leaf* l;
    int gp_violations;  // violations on the path from the root down to gp
    int p_violations;   // ... down to p
  };

  /// 1 when a node of weight w under a parent of weight parent_w is a
  /// balance violation (overweight, or red under red), else 0.
  static int violation(std::int32_t w, std::int32_t parent_w) noexcept {
    return w >= 2 || (w == 0 && parent_w == 0) ? 1 : 0;
  }

  /// Root-to-leaf walk for k tracking (gp, p) and the violations above
  /// them: the update window locator. Plain acquire child loads — staleness
  /// is caught by the llx/field verification that follows, exactly like
  /// EFRB's flag-check-then-CAS; a stale count only moves the cleanup
  /// trigger, never correctness.
  DescentWindow walk(const Key& k, Ctx& ctx) const {
    Internal* gp = nullptr;
    Internal* p = nullptr;
    Node* l = root_;
    int above_gp = 0;
    int above_p = 0;
    int above_l = 0;
    std::size_t depth = 0;
    while (!Layout::is_leaf(l)) {
      Internal* in = static_cast<Internal*>(l);
      Node* c = child_toward(k, in);
      above_gp = above_p;
      above_p = above_l;
      above_l += violation(c->weight, in->weight);
      gp = p;
      p = in;
      l = c;
      ++depth;
    }
    if constexpr (Ctx::kCounts) ctx.count_depth(depth);
    return DescentWindow{gp, p, static_cast<Leaf*>(l), above_gp, above_p};
  }

  /// Lean read-only descent (the Find fast path): no window tracking.
  const Leaf* descend(const Key& k, Ctx& ctx) const {
    const Node* n = root_;
    std::size_t depth = 0;
    while (!Layout::is_leaf(n)) {
      n = child_toward(k, static_cast<const Internal*>(n));
      ++depth;
    }
    if constexpr (Ctx::kCounts) ctx.count_depth(depth);
    return static_cast<const Leaf*>(n);
  }

  /// The child of `in` on k's search path (left < key <= right).
  Node* child_toward(const Key& k, const Internal* in) const {
    return cmp_.less(k, in->key) ? in->left.load(std::memory_order_acquire)
                                 : in->right.load(std::memory_order_acquire);
  }

  /// The child field of `parent` holding `child` per the llx snapshot, or
  /// null when the snapshot no longer links them (stale window — retry).
  static std::atomic<Node*>* field_for(Internal* parent,
                                       const LlxResult<Node>& rp,
                                       Node* child) {
    if (rp.left == child) return &parent->left;
    if (rp.right == child) return &parent->right;
    return nullptr;
  }

  static void scx_retry(Ctx& ctx) {
    hooks::emit<Traits>(ctx, HookPoint::kScxRetry);
    ctx.retry_pause();
  }

  Rec* make_rec(std::initializer_list<Node*> v,
                std::initializer_list<ScxRecordOf<Node>*> infos,
                std::uint8_t finalize_mask, std::atomic<Node*>* field,
                Node* old_child, Node* new_child) {
    EFRB_DCHECK(v.size() == infos.size() && v.size() <= Rec::kMaxNodes);
    Rec* rec = new Rec();
    std::uint8_t i = 0;
    for (Node* n : v) rec->nodes[i++] = n;
    rec->num_nodes = i;
    i = 0;
    for (ScxRecordOf<Node>* r : infos) {
      rec->infos[i++] = Word::make(ScxMark::kUnmarked, r);
    }
    rec->finalize_mask = finalize_mask;
    rec->field = field;
    rec->old_child = old_child;
    rec->new_child = new_child;
    return rec;
  }

  // -------- Balance transformations (one SCX each) --------

  /// Overweight at u. Under a sentinel parent the copy is simply relabeled
  /// to weight 1 (uniform shift of every real path sum — the invariant is
  /// over their equality). Otherwise: red sibling -> W_ROT (rotate the
  /// sibling above p1, exposing a black sibling for a later PUSH); black
  /// sibling -> PUSH (shift one unit of weight from both children onto p1,
  /// possibly re-siting the violation upward).
  bool fix_overweight(Ctx& ctx, Internal* p2, Internal* p1, Node* u) {
    EFRB_DCHECK(p1 != nullptr);  // the root is never overweight
    if (!p1->key.is_real()) return relabel(ctx, p1, u);
    EFRB_DCHECK(p2 != nullptr);  // real p1 hangs below the sentinel spine
    const LlxResult<Node> r2 = Llx::llx(ctx, p2);
    std::atomic<Node*>* field = r2.ok ? field_for(p2, r2, p1) : nullptr;
    if (field == nullptr) return false;
    const LlxResult<Node> r1 = Llx::llx(ctx, p1);
    if (!r1.ok) return false;
    Node* s;
    bool u_left;
    if (r1.left == u) {
      s = r1.right;
      u_left = true;
    } else if (r1.right == u) {
      s = r1.left;
      u_left = false;
    } else {
      return false;
    }
    const LlxResult<Node> ru = Llx::llx(ctx, u);
    if (!ru.ok) return false;
    const LlxResult<Node> rs = Llx::llx(ctx, s);
    if (!rs.ok) return false;

    if (s->weight == 0) {
      // W_ROT. A red sibling is internal whenever the path-sum invariant
      // holds (a red leaf beside an overweight node would unbalance the
      // sums); bail out defensively if the snapshot says otherwise.
      if (rs.left == nullptr) return false;
      Node* np1;
      Node* ns;
      if (u_left) {
        np1 = Layout::clone(p1, 0, u, rs.left);
        ns = Layout::clone(s, p1->weight, np1, rs.right);
      } else {
        np1 = Layout::clone(p1, 0, rs.right, u);
        ns = Layout::clone(s, p1->weight, rs.left, np1);
      }
      Rec* rec = make_rec({p2, p1, s}, {r2.info, r1.info, rs.info},
                          /*finalize_mask=*/0b110, field, p1, ns);
      if (Llx::scx(ctx, rec)) return true;
      delete ns;
      delete np1;
      return false;
    }

    // PUSH: (w(u)-1) + (w(p1)+1) and (w(s)-1) + (w(p1)+1) preserve both
    // path sums exactly.
    Node* nu = Layout::clone(u, u->weight - 1, ru.left, ru.right);
    Node* ns = Layout::clone(s, s->weight - 1, rs.left, rs.right);
    Node* np1 = Layout::clone(p1, p1->weight + 1, u_left ? nu : ns,
                              u_left ? ns : nu);
    Rec* rec = make_rec({p2, p1, u, s}, {r2.info, r1.info, ru.info, rs.info},
                        /*finalize_mask=*/0b1110, field, p1, np1);
    if (Llx::scx(ctx, rec)) return true;
    delete np1;
    delete ns;
    delete nu;
    return false;
  }

  /// Red-red pair (p1, u). A red top of the real subtree (sentinel p2) is
  /// blackened by relabeling. Otherwise dispatch on the uncle: red uncle ->
  /// BLK (recolor, shifting one unit from p2 down); black uncle -> RB1/RB2
  /// (single/double rotation bringing a black node over both reds).
  bool fix_red_red(Ctx& ctx, Internal* p3, Internal* p2, Internal* p1,
                   Node* u) {
    EFRB_DCHECK(p1 != nullptr && p2 != nullptr);  // red nodes are not the root
    if (!p2->key.is_real()) return relabel(ctx, p2, p1);
    // The walk reports the topmost violation, so p2 is black here; a red p2
    // means the window went stale under us.
    if (p2->weight == 0) return false;
    EFRB_DCHECK(p3 != nullptr);
    const LlxResult<Node> r3 = Llx::llx(ctx, p3);
    std::atomic<Node*>* field = r3.ok ? field_for(p3, r3, p2) : nullptr;
    if (field == nullptr) return false;
    const LlxResult<Node> r2 = Llx::llx(ctx, p2);
    if (!r2.ok) return false;
    Node* uncle;
    bool p1_left;
    if (r2.left == p1) {
      uncle = r2.right;
      p1_left = true;
    } else if (r2.right == p1) {
      uncle = r2.left;
      p1_left = false;
    } else {
      return false;
    }
    const LlxResult<Node> r1 = Llx::llx(ctx, p1);
    if (!r1.ok) return false;
    Node* c;  // p1's other child
    bool u_left;
    if (r1.left == u) {
      c = r1.right;
      u_left = true;
    } else if (r1.right == u) {
      c = r1.left;
      u_left = false;
    } else {
      return false;
    }

    if (uncle->weight == 0) {
      // BLK: p2'(w-1)[ p1'(1), uncle'(1) ] — pure recoloring.
      const LlxResult<Node> rn = Llx::llx(ctx, uncle);
      if (!rn.ok) return false;
      Node* np1 = Layout::clone(p1, 1, r1.left, r1.right);
      Node* nun = Layout::clone(uncle, 1, rn.left, rn.right);
      Node* np2 = Layout::clone(p2, p2->weight - 1, p1_left ? np1 : nun,
                                p1_left ? nun : np1);
      Rec* rec = make_rec({p3, p2, p1, uncle},
                          {r3.info, r2.info, r1.info, rn.info},
                          /*finalize_mask=*/0b1110, field, p2, np2);
      if (Llx::scx(ctx, rec)) return true;
      delete np2;
      delete nun;
      delete np1;
      return false;
    }

    if (u_left == p1_left) {
      // RB1 (outer red): rotate p1 above p2.
      //   p1'(w(p2)) [ u, p2'(0)[c, uncle] ]   (and the mirror image)
      Node* np2 = Layout::clone(p2, 0, p1_left ? c : uncle,
                                p1_left ? uncle : c);
      Node* np1 = Layout::clone(p1, p2->weight, p1_left ? u : np2,
                                p1_left ? np2 : u);
      Rec* rec = make_rec({p3, p2, p1}, {r3.info, r2.info, r1.info},
                          /*finalize_mask=*/0b110, field, p2, np1);
      if (Llx::scx(ctx, rec)) return true;
      delete np1;
      delete np2;
      return false;
    }

    // RB2 (inner red): rotate u above both. An inner red leaf beside a black
    // uncle cannot satisfy the path-sum invariant, so a leaf snapshot here
    // means the window went stale — bail out.
    const LlxResult<Node> ru = Llx::llx(ctx, u);
    if (!ru.ok || ru.left == nullptr) return false;
    Node* np1;
    Node* np2;
    Node* nu;
    if (p1_left) {
      // u = p1.right: u'(w(p2)) [ p1'(0)[c, u.left], p2'(0)[u.right, uncle] ]
      np1 = Layout::clone(p1, 0, c, ru.left);
      np2 = Layout::clone(p2, 0, ru.right, uncle);
      nu = Layout::clone(u, p2->weight, np1, np2);
    } else {
      // u = p1.left: u'(w(p2)) [ p2'(0)[uncle, u.left], p1'(0)[u.right, c] ]
      np2 = Layout::clone(p2, 0, uncle, ru.left);
      np1 = Layout::clone(p1, 0, ru.right, c);
      nu = Layout::clone(u, p2->weight, np2, np1);
    }
    Rec* rec = make_rec({p3, p2, p1, u}, {r3.info, r2.info, r1.info, ru.info},
                        /*finalize_mask=*/0b1110, field, p2, nu);
    if (Llx::scx(ctx, rec)) return true;
    delete nu;
    delete np2;
    delete np1;
    return false;
  }

  /// Replace u (child of a sentinel-keyed parent) with a weight-1 copy: the
  /// chromatic analogue of blackening a red root / absorbing root overweight.
  /// Shifts every real path sum by the same amount, preserving equality.
  bool relabel(Ctx& ctx, Internal* parent, Node* u) {
    const LlxResult<Node> rp = Llx::llx(ctx, parent);
    std::atomic<Node*>* field = rp.ok ? field_for(parent, rp, u) : nullptr;
    if (field == nullptr) return false;
    const LlxResult<Node> ru = Llx::llx(ctx, u);
    if (!ru.ok) return false;
    Node* nu = Layout::clone(u, 1, ru.left, ru.right);
    Rec* rec = make_rec({parent, u}, {rp.info, ru.info},
                        /*finalize_mask=*/0b10, field, u, nu);
    if (Llx::scx(ctx, rec)) return true;
    delete nu;
    return false;
  }

  BoundedCompare<Key, Compare> cmp_;
  Internal* root_ = nullptr;
  // Set while one updater runs a cleanup pass (cleanup()); on its own line so
  // taking it does not invalidate root_'s line under every descent.
  CachePadded<std::atomic<bool>> repairing_;
  ParkedViolation<Key> parked_;
};

/// TreeMap's view of the chromatic core (see core/tree_map.hpp).
template <typename Key, typename Value, typename Compare>
struct ChromaticSpec {
  using Layout = ChromaticLayout<Key, Value>;
  using compare_type = Compare;
  template <typename Traits, typename Ctx>
  using Core = ChromaticCore<Key, Value, Compare, Traits, Ctx>;
};

/// The chromatic tree behind the same ConcurrentMap surface, Handle fast
/// path, reclaimer policy and stats plumbing as EfrbTreeMap: both
/// are the shared TreeMap over a different core (a class, not an alias, for
/// the same reason as EfrbTreeMap).
template <typename Key, typename Value = detail::Unit,
          typename Compare = std::less<Key>,
          typename Reclaimer = EpochReclaimer, typename Traits = NoopTraits>
class ChromaticTreeMap
    : public TreeMap<ChromaticSpec<Key, Value, Compare>, Reclaimer, Traits> {
 public:
  using TreeMap<ChromaticSpec<Key, Value, Compare>, Reclaimer,
                Traits>::TreeMap;
};

/// Set flavour: keys only, no mapped values.
template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = EpochReclaimer, typename Traits = NoopTraits>
using ChromaticTreeSet =
    ChromaticTreeMap<Key, detail::Unit, Compare, Reclaimer, Traits>;

}  // namespace efrb
