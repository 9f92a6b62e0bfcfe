// Layer 3 of the EFRB core: the CAS protocol.
//
// TreeCore owns the root and implements the paper's update machinery — the
// iflag/ichild/iunflag steps of Insert (Fig. 8), the dflag/mark/dchild/
// dunflag/backtrack steps of Delete (Fig. 9), and the Help dispatch — as a
// reusable state machine over the types in layout.hpp and the descent in
// search.hpp. Comments of the form "line N" refer to the paper's pseudocode
// line numbers.
//
// Every protocol CAS emits hooks::emit<Traits>(ctx, step, ok, node)
// immediately after executing and hooks::emit<Traits>(ctx, point) at the
// named pause points — one Event carrying the full step+thread+key identity
// of the site, keyed on by the fault-injection layer (src/inject/), pinned
// down by the schedule-sweep and state-machine suites, and bucketed by the
// contention heatmap (obs/heatmap.hpp). The key comes from ctx.set_op_key(),
// stamped at each public entry point below; it is the kNoKey constant (and
// costs nothing) unless the OpContext was instantiated with key tracking.
// Each CAS is additionally gated on hooks::allow_cas<Traits>(step, node,
// tid): a vetoed CAS is treated exactly like one that lost its race (the
// fault model forced-failure injection relies on; a Traits without the
// member compiles the gate away). Each CAS event is paired with
// ctx.count_cas(step, ok), the per-step breakdown
// counters (compiled out when Traits::kCountStats is false).
//
// Callers hold a pinned region for the duration of every call (the facade and
// its handles do this); `Ctx` is the OpContext instantiation threading the
// retire sink, stat counters and retry backoff through each operation.
//
// Retirement protocol (see DESIGN.md §6 for the full argument):
//   - Nodes: the winner of an unflag CAS retires the node(s) its operation
//     made unreachable (the replaced leaf for Insert; the spliced-out parent
//     and deleted leaf for Delete). This matches the retirement points the
//     paper's §6 proposes. Marked "§6 retirement point" below.
//   - Info records: a record stays referenced by the node's update word even
//     after the unflag CAS (the Clean word keeps the pointer so that
//     update-word values never repeat, §4.2). It is therefore retired by the
//     winner of the NEXT CAS that overwrites a Clean word referencing it (an
//     iflag/dflag/mark CAS), i.e. exactly when the last reference from shared
//     memory disappears — the behaviour a tracing GC gives the paper for
//     free. Retiring at the unflag CAS instead would permit an ABA on the
//     update word: the record's memory could be recycled into a new record
//     for the same node, making a stale (Clean, info) expected-value match
//     again and a doomed Delete's mark CAS succeed — re-introducing the
//     Fig. 3(c) lost-insert bug.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bounded_key.hpp"
#include "core/debug_hooks.hpp"
#include "core/layout.hpp"
#include "core/search.hpp"
#include "util/assert.hpp"

namespace efrb {

/// Result of the insert machinery (shared by insert / insert_or_assign).
enum class InsertOutcome { kInserted, kAssigned, kDuplicate };

/// Structural validation outcome (quiescent trees); see TreeCore::validate.
struct ValidationResult {
  bool ok = true;
  std::string error;
  std::size_t real_leaves = 0;
  std::size_t internals = 0;
  std::size_t height = 0;
};

template <typename Key, typename Value, typename Compare, typename Traits,
          typename Ctx>
class TreeCore {
 public:
  using Layout = TreeLayout<Key, Value, hooks::causal_trace_v<Traits>>;
  using BKey = typename Layout::BKey;
  using Node = typename Layout::Node;
  using Leaf = typename Layout::Leaf;
  using Internal = typename Layout::Internal;
  using IInfo = typename Layout::IInfo;
  using DInfo = typename Layout::DInfo;
  using SearchResult = typename Layout::SearchResult;
  using ValidationResult = efrb::ValidationResult;
  static constexpr const char* kName = "efrb-tree";

  explicit TreeCore(Compare cmp) : cmp_(std::move(cmp)) {
    // Initialization per Figure 7 (lines 19-22) / Figure 6(a): the permanent
    // root has key ∞₂ and leaf children ∞₁, ∞₂. Root is never replaced.
    //
    // Exception-safe: if a later allocation (or a Value{} constructor)
    // throws, the earlier sentinels are rolled back — a throwing constructor
    // no longer leaks the left leaf (or both leaves).
    Leaf* left = new Leaf(BKey::inf1(), Value{});
    Leaf* right = nullptr;
    try {
      right = new Leaf(BKey::inf2(), Value{});
      root_ = new Internal(BKey::inf2(), left, right);
    } catch (...) {
      delete right;
      delete left;
      throw;
    }
  }

  TreeCore(const TreeCore&) = delete;
  TreeCore& operator=(const TreeCore&) = delete;

  /// Requires quiescence (no concurrent operations), like all destructors.
  ~TreeCore() {
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->is_internal) {
        auto* in = static_cast<Internal*>(n);
        stack.push_back(in->left.load(std::memory_order_relaxed));
        stack.push_back(in->right.load(std::memory_order_relaxed));
        // An Info record referenced by an in-tree Clean word was never
        // overwritten, hence never retired — free it here. Each record is
        // referenced by at most one in-tree Clean word (an IInfo by its p, a
        // DInfo by its gp; a DInfo's Mark reference lives on a node already
        // spliced out of the tree), so no double free is possible. At
        // quiescence no in-tree word can be flagged or marked. A Clean word
        // does not name the record's type: free it as raw storage (Info).
        const Update u = in->update.load(std::memory_order_relaxed);
        EFRB_DCHECK(u.state() == UpdateState::kClean);
        if (u.state() == UpdateState::kClean) dispose_retired<Info>(u.info());
        delete in;
      } else {
        delete static_cast<Leaf*>(n);
      }
    }
  }

  const BoundedCompare<Key, Compare>& cmp() const noexcept { return cmp_; }
  Internal* root() const noexcept { return root_; }

  /// Structural validation for tests (quiescent trees): checks the
  /// leaf-oriented shape, the BST key order with sentinel placement (Fig. 6),
  /// and the permanent ∞₂ root.
  ValidationResult validate() const {
    ValidationResult r;
    if (root_->key.cls != KeyClass::kInf2) {
      r.ok = false;
      r.error = "root key is not ∞₂";
      return r;
    }
    struct Frame {
      Node* n;
      const BKey* lower;  // inclusive (equal keys go right)
      const BKey* upper;  // exclusive
      std::size_t depth;
    };
    std::vector<Frame> stack{{root_, nullptr, nullptr, 1}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      r.height = std::max(r.height, f.depth);
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
      if (!f.n->is_internal) {
        if (f.n->key.is_real()) ++r.real_leaves;
        continue;
      }
      auto* in = static_cast<Internal*>(f.n);
      ++r.internals;
      Node* left = in->left.load(std::memory_order_acquire);
      Node* right = in->right.load(std::memory_order_acquire);
      if (left == nullptr || right == nullptr) {
        r.ok = false;
        r.error = "internal node with a null child (leaf-oriented shape broken)";
        return r;
      }
      stack.push_back(Frame{left, f.lower, &in->key, f.depth + 1});
      stack.push_back(Frame{right, &in->key, f.upper, f.depth + 1});
    }
    return r;
  }

  // ---------------- Search (lines 23-35) ----------------

  SearchResult search(const Key& k, Ctx& ctx) const {
    ctx.set_op_key(k);
    // Under the §6 Traits::kSearchHelpsMarked variant the descent splices out
    // marked nodes it meets; otherwise the callback is compiled away inside
    // search_path and the Search is read-only.
    auto splice_marked = [this, &ctx](DInfo* op) {
      const_cast<TreeCore*>(this)->help_marked(op, ctx);
    };
    if constexpr (Ctx::kCounts) {
      // Depth telemetry: sample the descent's depth into the stats shard.
      // Uncounted contexts skip even the local counter.
      std::size_t depth = 0;
      const SearchResult r =
          search_path<Traits, Layout>(root_, k, cmp_, splice_marked, &depth);
      ctx.count_depth(depth);
      return r;
    } else {
      return search_path<Traits, Layout>(root_, k, cmp_, splice_marked);
    }
  }

  /// The leaf a Find for k terminates at, via the lean find_path descent:
  /// no SearchResult capture, and no update-word loads unless the §6
  /// helping variant is on.
  const Leaf* find_leaf(const Key& k, Ctx& ctx) const {
    ctx.set_op_key(k);
    auto splice_marked = [this, &ctx](DInfo* op) {
      const_cast<TreeCore*>(this)->help_marked(op, ctx);
    };
    if constexpr (Ctx::kCounts) {
      std::size_t depth = 0;
      const Leaf* l =
          find_path<Traits, Layout>(root_, k, cmp_, splice_marked, &depth);
      ctx.count_depth(depth);
      return l;
    } else {
      return find_path<Traits, Layout>(root_, k, cmp_, splice_marked);
    }
  }

  /// Find(k), lines 36-40. Caller must hold a pinned region.
  bool contains(const Key& k, Ctx& ctx) const {
    return cmp_.equals(k, find_leaf(k, ctx)->key);
  }

  std::optional<Value> get(const Key& k, Ctx& ctx) const {
    const Leaf* l = find_leaf(k, ctx);
    if (!cmp_.equals(k, l->key)) return std::nullopt;
    return l->value;
  }

  // ---------------- Insert (lines 42-62) ----------------

  /// With assign_if_present (the insert_or_assign extension, not in the
  /// paper): a duplicate key replaces the existing leaf with new_leaf via the
  /// same flag/child/unflag protocol — flag the parent (iflag), CAS the child
  /// pointer from the old leaf to a fresh leaf with the same key (ichild),
  /// unflag. Every proof obligation is preserved: the child CAS still
  /// installs a never-before-seen node on the correct side.
  InsertOutcome insert(const Key& k, Value v, bool assign_if_present,
                       Ctx& ctx) {
    Leaf* new_leaf;
    {
      hooks::PhaseScope<Traits> alloc_phase(Phase::kPoolAlloc, ctx.tid());
      new_leaf = new Leaf(BKey::real(k), std::move(v));  // line 45
    }
    ctx.begin_op();
    for (;;) {
      const SearchResult s = search(k, ctx);  // line 49
      hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
      if (cmp_.equals(k, s.l->key)) {  // line 50: duplicate key
        if (!assign_if_present) {
          delete new_leaf;  // never published
          ctx.end_op();
          return InsertOutcome::kDuplicate;
        }
        // Extension: replace the existing leaf with new_leaf via the same
        // flag/child/unflag protocol. As in the paper's line 51, the parent
        // must be Clean before we may attempt to flag it.
        if (s.pupdate.state() != UpdateState::kClean) {
          help(s.pupdate, ctx);
          ctx.count_insert_retry();
          hooks::emit<Traits>(ctx, HookPoint::kInsertRetry);
          ctx.retry_pause();
          continue;
        }
        if (try_install(s, new_leaf, ctx)) {
          ctx.end_op();
          return InsertOutcome::kAssigned;
        }
        ctx.retry_pause();
        continue;
      }
      if (s.pupdate.state() != UpdateState::kClean) {  // line 51
        help(s.pupdate, ctx);
        ctx.count_insert_retry();
        hooks::emit<Traits>(ctx, HookPoint::kInsertRetry);
        ctx.retry_pause();
        continue;
      }
      // lines 53-54: build the replacement subtree. The new internal node's
      // key is max(k, l->key); the leaf with the smaller key goes left.
      Leaf* new_sibling;
      Internal* new_internal;
      {
        hooks::PhaseScope<Traits> alloc_phase(Phase::kPoolAlloc, ctx.tid());
        new_sibling = new Leaf(s.l->key, s.l->value);
        if (cmp_.less(k, s.l->key)) {
          new_internal = new Internal(s.l->key, new_leaf, new_sibling);
        } else {
          new_internal = new Internal(BKey::real(k), new_sibling, new_leaf);
        }
      }
      if (try_install(s, new_internal, ctx)) {
        ctx.end_op();
        return InsertOutcome::kInserted;
      }
      {
        // iflag failed: dismantle the unpublished subtree (new_leaf is reused).
        hooks::PhaseScope<Traits> alloc_phase(Phase::kPoolAlloc, ctx.tid());
        delete new_sibling;
        delete new_internal;
      }
      ctx.retry_pause();
    }
  }

  /// Atomic compare-and-replace on a key's value (extension, not in the
  /// paper). Soundness: a leaf's value is immutable, so the value read after
  /// Search belongs to that exact leaf forever; the iflag CAS succeeds only
  /// if the parent's update word is unchanged since the Search read it, and
  /// child pointers change only under a flag with a fresh record (word values
  /// never repeat) — so iflag success certifies the examined leaf is still
  /// the current leaf for k, making the subsequent ichild swap an atomic
  /// value-CAS. Linearization: the ichild CAS on success; a point during the
  /// Search where the leaf (or its absence) was on the search path on
  /// failure.
  bool replace(const Key& k, const Value& expected, Value desired, Ctx& ctx) {
    Leaf* new_leaf = nullptr;
    ctx.begin_op();
    for (;;) {
      const SearchResult s = search(k, ctx);
      hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
      if (!cmp_.equals(k, s.l->key) || !(s.l->value == expected)) {
        delete new_leaf;  // never published (may still be null)
        ctx.end_op();
        return false;
      }
      if (s.pupdate.state() != UpdateState::kClean) {
        help(s.pupdate, ctx);
        ctx.count_insert_retry();
        hooks::emit<Traits>(ctx, HookPoint::kInsertRetry);
        ctx.retry_pause();
        continue;
      }
      if (new_leaf == nullptr) {
        hooks::PhaseScope<Traits> alloc_phase(Phase::kPoolAlloc, ctx.tid());
        new_leaf = new Leaf(BKey::real(k), std::move(desired));
      }
      if (try_install(s, new_leaf, ctx)) {
        ctx.end_op();
        return true;
      }
      ctx.retry_pause();
    }
  }

  // ---------------- Delete (lines 69-87) ----------------

  bool erase(const Key& k, Ctx& ctx) {
    ctx.begin_op();
    for (;;) {
      const SearchResult s = search(k, ctx);  // line 75
      hooks::emit<Traits>(ctx, HookPoint::kAfterSearch);
      if (!cmp_.equals(k, s.l->key)) {  // line 76
        ctx.end_op();
        return false;
      }
      if (s.gpupdate.state() != UpdateState::kClean) {  // line 77
        help(s.gpupdate, ctx);
        ctx.count_delete_retry();
        hooks::emit<Traits>(ctx, HookPoint::kDeleteRetry);
        ctx.retry_pause();
        continue;
      }
      if (s.pupdate.state() != UpdateState::kClean) {  // line 78
        help(s.pupdate, ctx);
        ctx.count_delete_retry();
        hooks::emit<Traits>(ctx, HookPoint::kDeleteRetry);
        ctx.retry_pause();
        continue;
      }
      // gp is null only when the reached leaf is the ∞₁ sentinel at depth 1,
      // and sentinels never compare equal to a real key, so the line-76
      // check above guarantees a real (depth >= 2) leaf here.
      EFRB_DCHECK(s.gp != nullptr);
      // line 80: op := new DInfo(gp, p, l, pupdate)
      DInfo* op;
      {
        hooks::PhaseScope<Traits> alloc_phase(Phase::kPoolAlloc, ctx.tid());
        op = new DInfo(s.gp, s.p, s.l, s.pupdate);
      }
      if constexpr (hooks::causal_trace_v<Traits>) {
        // Causal owner stamp: plain store, ordered before helpers by the
        // dflag CAS (acq_rel) that publishes the record.
        op->stamp.owner = ctx.owner();
      }
      Update expected = s.gpupdate;
      const Update flagged = Update::make(UpdateState::kDFlag, op);
      // Memory-order audit (ellen_bintree_analysis.md, step "dflag",
      // line 81): stays acq_rel/acquire. Success publishes the freshly built
      // DInfo behind the flagged word (release side); failure feeds the
      // witnessed value into help(), which dereferences its Info pointer —
      // the acquire on failure is what makes that dereference safe.
      const bool ok =
          hooks::allow_cas<Traits>(CasStep::kDFlag, s.gp, ctx.tid()) &&
          s.gp->update.compare_exchange(expected, flagged);
      hooks::emit<Traits>(ctx, CasStep::kDFlag, ok, s.gp);  // line 81: dflag CAS
      ctx.count_cas(CasStep::kDFlag, ok);
      ctx.count_delete_attempt();
      if (ok) {
        // Last shared reference to the record behind gp's old Clean word.
        if (Info* prev = s.gpupdate.info()) retire_scoped(prev, ctx);
        hooks::emit<Traits>(ctx, HookPoint::kAfterDFlag);
        if (help_delete(op, ctx)) {  // line 83
          ctx.end_op();
          return true;
        }
        // Mark failed; the DFlag has been backtracked and op retired by the
        // backtrack winner. Retry from scratch (line 98's False return).
        ctx.count_delete_retry();
        hooks::emit<Traits>(ctx, HookPoint::kDeleteRetry);
        ctx.retry_pause();
      } else {
        delete op;            // never published; safe to free immediately
        help(expected, ctx);  // line 85: help whoever owns gp now
        ctx.count_delete_retry();
        hooks::emit<Traits>(ctx, HookPoint::kDeleteRetry);
        ctx.retry_pause();
      }
    }
  }

 private:
  /// Retirement with its cost attributed to Phase::kReclamation. For Traits
  /// without the phase hook (the default) this is exactly ctx.retire(p) —
  /// both scope edges fold away (see debug_hooks.hpp).
  template <typename T>
  void retire_scoped(T* p, Ctx& ctx) {
    hooks::PhaseScope<Traits> reclaim_phase(Phase::kReclamation, ctx.tid());
    ctx.retire(p);
  }

  /// Common tail of Insert and insert_or_assign: flag s.p, then complete via
  /// HelpInsert. On iflag failure, helps the obstructor and returns false
  /// (caller owns dismantling `new_node`'s unpublished parts and retrying).
  bool try_install(const SearchResult& s, Node* new_node, Ctx& ctx) {
    IInfo* op;
    {
      hooks::PhaseScope<Traits> alloc_phase(Phase::kPoolAlloc, ctx.tid());
      op = new IInfo(s.p, s.l, new_node);  // line 55
    }
    if constexpr (hooks::causal_trace_v<Traits>) {
      // Causal owner stamp: plain store, ordered before helpers by the iflag
      // CAS (acq_rel) that publishes the record.
      op->stamp.owner = ctx.owner();
    }
    Update expected = s.pupdate;
    const Update flagged = Update::make(UpdateState::kIFlag, op);
    // Memory-order audit (ellen_bintree_analysis.md, step "iflag", line 56):
    // stays acq_rel/acquire — success publishes the IInfo (and the new
    // subtree it references) behind the flagged word; the failure value goes
    // straight into help(), which dereferences the witnessed Info pointer.
    const bool ok =
        hooks::allow_cas<Traits>(CasStep::kIFlag, s.p, ctx.tid()) &&
        s.p->update.compare_exchange(expected, flagged);
    hooks::emit<Traits>(ctx, CasStep::kIFlag, ok, s.p);  // line 56: iflag CAS
    ctx.count_cas(CasStep::kIFlag, ok);
    ctx.count_insert_attempt();
    if (ok) {
      // This CAS removed the last shared reference to the Info record that
      // the previous (Clean) word pointed to: retire it now.
      if (Info* prev = s.pupdate.info()) retire_scoped(prev, ctx);
      hooks::emit<Traits>(ctx, HookPoint::kAfterIFlag);
      help_insert(op, ctx);  // line 58
      return true;           // line 59
    }
    delete op;            // never published
    help(expected, ctx);  // line 61: the witnessed value blocked us
    ctx.count_insert_retry();
    hooks::emit<Traits>(ctx, HookPoint::kInsertRetry);
    return false;
  }

  // ---------------- HelpInsert (lines 64-68) ----------------
  void help_insert(IInfo* op, Ctx& ctx) {
    EFRB_DCHECK(op != nullptr);
    hooks::emit<Traits>(ctx, HookPoint::kBeforeIChild);
    cas_child(op->p, op->l, op->new_node, CasStep::kIChild, ctx);  // line 66
    hooks::emit<Traits>(ctx, HookPoint::kBeforeIUnflag);
    Update expected = Update::make(UpdateState::kIFlag, op);
    const Update clean = Update::make(UpdateState::kClean, op);
    // Memory-order audit (ellen_bintree_analysis.md, step "iunflag", line 67):
    // release/relaxed suffices. Success must publish the completed ichild
    // swap before the word turns Clean (release); the failure value is
    // discarded — a failed iunflag means another helper already cleaned the
    // word, and this helper reads nothing from it afterwards (no help()
    // dispatch on the witnessed value), so no acquire is needed either way.
    const bool ok =
        hooks::allow_cas<Traits>(CasStep::kIUnflag, op->p, ctx.tid()) &&
        op->p->update.compare_exchange(expected, clean,
                                       std::memory_order_release,
                                       std::memory_order_relaxed);
    hooks::emit<Traits>(ctx, CasStep::kIUnflag, ok, op->p);  // line 67: iunflag CAS
    ctx.count_cas(CasStep::kIUnflag, ok);
    if (ok) {
      // §6 retirement point: the unique iunflag winner retires the replaced
      // leaf (now unreachable from the tree). The Info record `op` is NOT
      // retired here: the Clean word keeps pointing at it (so the update
      // field never repeats a value, §4.2) — it is retired by whichever CAS
      // later overwrites that word, or freed by the tree destructor.
      retire_scoped(op->l, ctx);
    }
  }

  // ---------------- HelpDelete (lines 88-99) ----------------
  bool help_delete(DInfo* op, Ctx& ctx) {
    EFRB_DCHECK(op != nullptr);
    hooks::emit<Traits>(ctx, HookPoint::kBeforeMark);
    Update expected = op->pupdate;
    const Update marked = Update::make(UpdateState::kMark, op);
    // Memory-order audit (ellen_bintree_analysis.md, step "mark", line 91):
    // stays acq_rel/acquire — the marked word re-publishes op for the §6
    // helping Search (which dereferences it as a DInfo), and the failure
    // value feeds help() at line 97 below.
    const bool ok =
        hooks::allow_cas<Traits>(CasStep::kMark, op->p, ctx.tid()) &&
        op->p->update.compare_exchange(expected, marked);
    hooks::emit<Traits>(ctx, CasStep::kMark, ok, op->p);  // line 91: mark CAS
    ctx.count_cas(CasStep::kMark, ok);
    if (ok) {
      // The mark overwrote p's Clean word — retire the record it referenced.
      if (Info* prev = op->pupdate.info()) retire_scoped(prev, ctx);
    }
    if (ok || expected == marked) {  // line 92
      help_marked(op, ctx);  // line 93
      return true;           // line 94
    }
    // Mark failed because of a conflicting operation on p (e.g. a concurrent
    // Insert replaced the leaf — the scenario in Fig. 5's doomed Delete).
    help(expected, ctx);  // line 97
    hooks::emit<Traits>(ctx, HookPoint::kBeforeBacktrack);
    Update exp2 = Update::make(UpdateState::kDFlag, op);
    const Update clean = Update::make(UpdateState::kClean, op);
    // Memory-order audit (ellen_bintree_analysis.md, step "backtrack",
    // line 98): release/relaxed. The backtrack publishes no data structure
    // change at all — it reverts gp's word from (DFlag, op) to (Clean, op)
    // after a failed mark; release covers the (already-ordered) mark attempt,
    // and the failure value is discarded (another helper won the backtrack).
    const bool back =
        hooks::allow_cas<Traits>(CasStep::kBacktrack, op->gp, ctx.tid()) &&
        op->gp->update.compare_exchange(exp2, clean,
                                        std::memory_order_release,
                                        std::memory_order_relaxed);
    hooks::emit<Traits>(ctx, CasStep::kBacktrack, back, op->gp);  // line 98
    ctx.count_cas(CasStep::kBacktrack, back);
    if (back) ctx.count_backtrack();
    // `op` stays referenced by gp's (Clean, op) word; whichever CAS later
    // overwrites that word retires it.
    return false;  // line 99: tell Delete to try again
  }

  // ---------------- HelpMarked (lines 100-106) ----------------
  void help_marked(DInfo* op, Ctx& ctx) {
    EFRB_DCHECK(op != nullptr);
    // line 103-104: the sibling of the leaf being deleted. p is marked, so its
    // child pointers are frozen; these reads are stable.
    Node* other;
    if (op->p->right.load(std::memory_order_acquire) == op->l) {
      other = op->p->left.load(std::memory_order_acquire);
    } else {
      other = op->p->right.load(std::memory_order_acquire);
    }
    hooks::emit<Traits>(ctx, HookPoint::kBeforeDChild);
    cas_child(op->gp, op->p, other, CasStep::kDChild, ctx);  // line 105
    hooks::emit<Traits>(ctx, HookPoint::kBeforeDUnflag);
    Update expected = Update::make(UpdateState::kDFlag, op);
    const Update clean = Update::make(UpdateState::kClean, op);
    // Memory-order audit (ellen_bintree_analysis.md, step "dunflag",
    // line 106): release/relaxed, same argument as iunflag — success must
    // order the dchild splice before the word turns Clean; the failure value
    // is discarded (a concurrent helper already unflagged) and nothing is
    // read through it afterwards.
    const bool ok =
        hooks::allow_cas<Traits>(CasStep::kDUnflag, op->gp, ctx.tid()) &&
        op->gp->update.compare_exchange(expected, clean,
                                        std::memory_order_release,
                                        std::memory_order_relaxed);
    hooks::emit<Traits>(ctx, CasStep::kDUnflag, ok, op->gp);  // line 106
    ctx.count_cas(CasStep::kDUnflag, ok);
    if (ok) {
      // §6 retirement point: the unique dunflag winner retires the spliced-out
      // parent and the deleted leaf. The DInfo `op` remains referenced by
      // gp's (Clean, op) word (and by the dead parent's Mark word); it is
      // retired by whichever CAS later overwrites gp's word, or freed by the
      // tree destructor.
      hooks::PhaseScope<Traits> reclaim_phase(Phase::kReclamation, ctx.tid());
      ctx.retire(op->p);
      ctx.retire(op->l);
    }
  }

  // ---------------- Help (lines 107-112) ----------------
  // The state tag selects the Info record's concrete type. Clean is a no-op:
  // callers pass witnessed values that may have turned Clean meanwhile.
  void help(Update u, Ctx& ctx) {
    if (u.state() == UpdateState::kClean) return;
    ctx.count_help();
    // The owner stamp of the operation being helped: written by its creator
    // before the flagging CAS published the record, read here strictly after
    // an acquire load of the flagged word — a plain read is race-free. The
    // word exists only in kCausalTrace instantiations and is read through
    // the concrete type the state tag names.
    std::uint64_t owner = kNoOwner;
    if constexpr (hooks::causal_trace_v<Traits>) {
      owner = u.state() == UpdateState::kIFlag
                  ? static_cast<IInfo*>(u.info())->stamp.owner
                  : static_cast<DInfo*>(u.info())->stamp.owner;
    }
    hooks::emit<Traits>(ctx, HookPoint::kBeforeHelp, owner);
    ctx.help_enter();
    switch (u.state()) {
      case UpdateState::kIFlag:
        help_insert(static_cast<IInfo*>(u.info()), ctx);
        break;
      case UpdateState::kMark:
        help_marked(static_cast<DInfo*>(u.info()), ctx);
        break;
      case UpdateState::kDFlag:
        help_delete(static_cast<DInfo*>(u.info()), ctx);
        break;
      case UpdateState::kClean:
        break;
    }
    ctx.help_exit();
    hooks::emit<Traits>(ctx, HookPoint::kAfterHelp, owner);
  }

  // ---------------- CAS-Child (lines 113-118) ----------------
  // Chooses the left or right child field by comparing the new node's key
  // with the parent's key, then performs the single child CAS that is the
  // linearization point of a successful update.
  void cas_child(Internal* parent, Node* old_node, Node* new_node,
                 CasStep step, Ctx& ctx) {
    EFRB_DCHECK(parent != nullptr && new_node != nullptr);
    const BoundedCompare<Key, Compare>& cmp = cmp_;
    std::atomic<Node*>& child =
        cmp(new_node->key, parent->key) ? parent->left : parent->right;
    Node* expected = old_node;
    // Memory-order audit (ellen_bintree_analysis.md, steps "ichild"/"dchild",
    // lines 115/117 and 105): release/relaxed. Success is the linearization
    // point that publishes new_node — release pairs with the acquire child
    // loads in search_path/find_path/help_marked, making the new subtree's
    // initialization visible to every descent that follows the edge. On
    // failure the witnessed child value is discarded (some helper already
    // performed the identical swap; the ichild/dchild CAS is idempotent per
    // Info record), so no acquire is required on either outcome.
    const bool ok =
        hooks::allow_cas<Traits>(step, parent, ctx.tid()) &&
        child.compare_exchange_strong(expected, new_node,
                                      std::memory_order_release,
                                      std::memory_order_relaxed);
    hooks::emit<Traits>(ctx, step, ok, parent);
    ctx.count_cas(step, ok);
  }

  BoundedCompare<Key, Compare> cmp_;
  Internal* root_;  // line 19: the Root pointer is never changed
};

}  // namespace efrb
