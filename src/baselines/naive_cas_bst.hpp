// INTENTIONALLY INCORRECT — the strawman of Figure 3.
//
// "Simply using a CAS on the one child pointer that an update must change
// would lead to problems if there are concurrent updates" (§3). This class is
// that strawman: a leaf-oriented BST whose Insert/Delete perform exactly one
// child-pointer CAS with no flagging and no marking. It exists to reproduce
// the two anomalies of Figure 3 deterministically:
//
//   (b) concurrent Delete(C) / Delete(E): both CAS steps succeed, E's delete
//       is acknowledged, yet E is still reachable — a lost delete;
//   (c) concurrent Delete(E) / Insert(F): both CAS steps succeed, F's insert
//       is acknowledged, yet F is unreachable — a lost insert.
//
// The prepare/commit API splits an operation at precisely the point the paper
// considers — after the window (gp, p, l) has been read, before the single
// CAS — so tests can replay the exact schedules of Fig. 3 with no timing
// dependence. Never use this type for real data.
//
// The strawman rides the same OpContext/attachment substrate as the tree so
// the harness can drive it through handles, but it never calls retire():
// because the structure corrupts itself (a node detached by one CAS may be
// re-linked by a racing one), retiring detached nodes could double-free.
// Removed nodes are leaked by design, which is why the default policy is
// LeakyReclaimer; pins are still taken so the substrate contract holds.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>
#include <vector>

#include "core/bounded_key.hpp"
#include "core/op_context.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/assert.hpp"
#include "util/backoff.hpp"

namespace efrb {

template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = LeakyReclaimer>
class NaiveCasBst {
 public:
  using key_type = Key;
  static constexpr const char* kName = "naive-cas-bst(BROKEN)";

 private:
  using BKey = BoundedKey<Key>;
  using Ctx = OpContext<Reclaimer, /*kCount=*/false>;

 public:
  struct Node {
    const BKey key;
    const bool is_internal;
    std::atomic<Node*> left;
    std::atomic<Node*> right;
    Node(BKey k, Node* l, Node* r)
        : key(std::move(k)), is_internal(l != nullptr), left(l), right(r) {}
  };
  using node_type = Node;

  explicit NaiveCasBst(Compare cmp = Compare{}) : cmp_(std::move(cmp)) {
    // Sentinel construction with rollback: if a later allocation throws, the
    // earlier sentinels are freed (same discipline as TreeCore's constructor).
    Node* left = new Node(BKey::inf1(), nullptr, nullptr);
    Node* right = nullptr;
    try {
      right = new Node(BKey::inf2(), nullptr, nullptr);
      root_ = new Node(BKey::inf2(), left, right);
    } catch (...) {
      delete right;
      delete left;
      throw;
    }
  }

  NaiveCasBst(const NaiveCasBst&) = delete;
  NaiveCasBst& operator=(const NaiveCasBst&) = delete;

  ~NaiveCasBst() {
    // Frees the reachable tree only; nodes detached by erase() are leaked by
    // design (see header comment).
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->is_internal) {
        stack.push_back(n->left.load(std::memory_order_relaxed));
        stack.push_back(n->right.load(std::memory_order_relaxed));
      }
      delete n;
    }
  }

  /// Per-thread operation handle over the strawman, mirroring
  /// EfrbTreeMap::Handle: owns a reclaimer Attachment (pin fast path) and a
  /// backoff for the retry loops. No stats shard — the strawman is a
  /// correctness exhibit, not a benchmark subject.
  class Handle {
   public:
    Handle(Handle&&) noexcept = default;
    Handle& operator=(Handle&&) noexcept = default;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    bool valid() const noexcept { return att_.attached(); }

    bool contains(const Key& k) const {
      [[maybe_unused]] auto g = att_.pin();
      const auto w = bst_->descend(k);
      return bst_->cmp_.equals(k, w.l->key);
    }

    bool insert(const Key& k) {
      [[maybe_unused]] auto g = att_.pin();
      auto ctx = Ctx::attached(att_, nullptr, &backoff_);
      return bst_->run_insert(k, ctx);
    }

    bool erase(const Key& k) {
      [[maybe_unused]] auto g = att_.pin();
      auto ctx = Ctx::attached(att_, nullptr, &backoff_);
      return bst_->run_erase(k, ctx);
    }

   private:
    friend class NaiveCasBst;
    explicit Handle(NaiveCasBst& bst)
        : bst_(&bst), att_(bst.reclaimer_.attach()) {}

    NaiveCasBst* bst_;
    mutable typename Reclaimer::Attachment att_;
    Backoff backoff_;
  };

  /// Create a per-thread handle (see Handle).
  Handle handle() { return Handle(*this); }

  /// A planned single-CAS update: everything the operation decided from its
  /// read of the tree, not yet published.
  struct Ticket {
    std::atomic<Node*>* target = nullptr;  // the one child word to change
    Node* expected = nullptr;
    Node* desired = nullptr;
    bool applicable = false;  // key present/absent check passed
  };

  /// Phase 1 of Insert(k): read the window and build the replacement subtree.
  Ticket prepare_insert(const Key& k) {
    [[maybe_unused]] auto g = reclaimer_.pin();
    return plan_insert(k);
  }

  /// Phase 1 of Delete(k): read the window, find the sibling.
  Ticket prepare_erase(const Key& k) {
    [[maybe_unused]] auto g = reclaimer_.pin();
    return plan_erase(k);
  }

  /// Phase 2: the single CAS the strawman performs. Returns its success.
  bool commit(const Ticket& t) {
    [[maybe_unused]] auto g = reclaimer_.pin();
    return apply(t);
  }

  // Conventional API (retry loops over prepare/commit), for stress demos.
  bool insert(const Key& k) {
    [[maybe_unused]] auto g = reclaimer_.pin();
    auto ctx = Ctx::tree_level(reclaimer_, nullptr);
    return run_insert(k, ctx);
  }

  bool erase(const Key& k) {
    [[maybe_unused]] auto g = reclaimer_.pin();
    auto ctx = Ctx::tree_level(reclaimer_, nullptr);
    return run_erase(k, ctx);
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto g = reclaimer_.pin();
    const Window w = descend(k);
    return cmp_.equals(k, w.l->key);
  }

  /// All real keys currently reachable, in order (quiescent use).
  std::vector<Key> keys() const {
    [[maybe_unused]] auto g = reclaimer_.pin();
    std::vector<Key> out;
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->is_internal) {
        stack.push_back(n->left.load(std::memory_order_relaxed));
        stack.push_back(n->right.load(std::memory_order_relaxed));
      } else if (n->key.is_real()) {
        out.push_back(n->key.key);
      }
    }
    std::sort(out.begin(), out.end(), cmp_.user_compare());
    return out;
  }

  Reclaimer& reclaimer() noexcept { return reclaimer_; }

 private:
  struct Window {
    Node* gp;
    Node* p;
    Node* l;
  };

  Window descend(const Key& k) const {
    Node* gp = nullptr;
    Node* p = nullptr;
    Node* l = root_;
    while (l->is_internal) {
      gp = p;
      p = l;
      l = cmp_.less(k, l->key) ? l->left.load(std::memory_order_acquire)
                               : l->right.load(std::memory_order_acquire);
    }
    return Window{gp, p, l};
  }

  Ticket plan_insert(const Key& k) {
    const Window w = descend(k);
    Ticket t;
    if (cmp_.equals(k, w.l->key)) return t;  // duplicate
    auto* new_leaf = new Node(BKey::real(k), nullptr, nullptr);
    auto* new_sibling = new Node(w.l->key, nullptr, nullptr);
    Node* new_internal = cmp_.less(k, w.l->key)
                             ? new Node(w.l->key, new_leaf, new_sibling)
                             : new Node(BKey::real(k), new_sibling, new_leaf);
    t.target = (w.p->left.load(std::memory_order_acquire) == w.l) ? &w.p->left
                                                                  : &w.p->right;
    t.expected = w.l;
    t.desired = new_internal;
    t.applicable = true;
    return t;
  }

  Ticket plan_erase(const Key& k) {
    const Window w = descend(k);
    Ticket t;
    if (!cmp_.equals(k, w.l->key)) return t;  // absent
    EFRB_DCHECK(w.gp != nullptr);
    Node* sibling = (w.p->left.load(std::memory_order_acquire) == w.l)
                        ? w.p->right.load(std::memory_order_acquire)
                        : w.p->left.load(std::memory_order_acquire);
    t.target = (w.gp->left.load(std::memory_order_acquire) == w.p)
                   ? &w.gp->left
                   : &w.gp->right;
    t.expected = w.p;
    t.desired = sibling;
    t.applicable = true;
    return t;
  }

  bool apply(const Ticket& t) {
    EFRB_DCHECK(t.applicable);
    Node* expected = t.expected;
    return t.target->compare_exchange_strong(expected, t.desired,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire);
    // Note: the loser's `desired` subtree (and on erase, the detached parent
    // and leaf) are never retired — see the leak-by-design header note.
  }

  bool run_insert(const Key& k, Ctx& ctx) {
    ctx.begin_op();
    for (;;) {
      Ticket t = plan_insert(k);
      if (!t.applicable) return false;
      if (apply(t)) return true;
      ctx.retry_pause();
    }
  }

  bool run_erase(const Key& k, Ctx& ctx) {
    ctx.begin_op();
    for (;;) {
      Ticket t = plan_erase(k);
      if (!t.applicable) return false;
      if (apply(t)) return true;
      ctx.retry_pause();
    }
  }

  BoundedCompare<Key, Compare> cmp_;
  mutable Reclaimer reclaimer_;
  Node* root_;
};

}  // namespace efrb
