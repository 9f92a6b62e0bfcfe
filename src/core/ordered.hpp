// The ordered queries of every tree in core/: min/max, predecessor/successor
// bounds, range visits and whole-tree traversal, written once as read-only
// walks over a Layout. Both trees are leaf-oriented with the Fig. 6 sentinel
// spine — real keys live in leaves, an internal's key routes (left < key <=
// right), and the ∞₁/∞₂ sentinels sit on the rightmost spine only — so one
// walk serves both. Each node carries its BoundedKey as `key`; the Layout
// supplies the rest as four static functions:
//
//   is_leaf(n)         whether n is a leaf (stable for n's lifetime)
//   left(n), right(n)  acquire-load a child of an internal node
//   value(n)           a leaf's mapped value
//
// The walks test is_leaf first and load only the children they descend
// into. A child load that doubles as the leaf test would cost EFRB scans a
// load per internal node they only pass through: its leaf test is a plain
// flag read.
//
// Every function requires the caller to hold a pinned region on the tree's
// reclaimer for the duration of the call (the facade and its handles do
// this) — each visited node is reached by a chain of child pointers from the
// root, so it was on its search path at some time (§5's search-path lemma)
// and cannot be reclaimed while the caller stays pinned.
//
// Consistency: exact on a quiescent tree. Under concurrent updates these are
// weakly consistent: every key reported was present at some time during the
// call, and a key that is in the queried region for the whole call is
// reported; keys inserted/removed mid-call may or may not be. Unlike
// contains(), a find_ge/range result is not a single linearization point
// over the whole region.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace efrb::ordered {

/// Initial capacity of the range/for_each stack, allocated once per call:
/// a scan stacks at most one node per level of its deepest path.
inline constexpr std::size_t kStackReserve = 64;

/// Leftmost leaf under `n`: Search for a key below every real key. The
/// result is the subtree's minimum (the ∞₁ sentinel on an empty tree).
template <typename Layout>
const typename Layout::Node* leftmost(const typename Layout::Node* n) {
  while (!Layout::is_leaf(n)) n = Layout::left(n);
  return n;
}

/// Rightmost *real-keyed* leaf under `n`: Search for a virtual key lying
/// strictly between every real key and ∞₁ — go right at real-keyed
/// internals, left at sentinel-keyed ones. May still reach a sentinel leaf
/// when the subtree holds no real keys.
template <typename Layout>
const typename Layout::Node* rightmost(const typename Layout::Node* n) {
  while (!Layout::is_leaf(n)) {
    n = n->key.is_real() ? Layout::right(n) : Layout::left(n);
  }
  return n;
}

/// The leaf's key, or nullopt for a sentinel.
template <typename Layout>
std::optional<typename Layout::key_type> real_key(
    const typename Layout::Node* leaf) {
  if (!leaf->key.is_real()) return std::nullopt;
  return leaf->key.key;
}

/// Smallest key, or nullopt when empty. Walking left edges is exactly
/// Search(k) for a key below every real key, so the reached leaf was on that
/// search path at some time during the walk (§5's search-path lemma), making
/// the result linearizable like Find.
template <typename Layout>
std::optional<typename Layout::key_type> min_key(
    const typename Layout::Node* root) {
  return real_key<Layout>(leftmost<Layout>(root));
}

/// Largest key, or nullopt when empty. This is Search for a virtual key lying
/// strictly between every real key and ∞₁ (see rightmost); the same
/// search-path argument makes it linearizable.
template <typename Layout>
std::optional<typename Layout::key_type> max_key(
    const typename Layout::Node* root) {
  return real_key<Layout>(rightmost<Layout>(root));
}

/// Smallest key >= k (or > k when strict). Single pass: descend the search
/// path for k, remembering the right child captured at the last left turn;
/// if the reached leaf does not satisfy the bound, the answer is the
/// minimum of that captured subtree (in a leaf-oriented BST the reached
/// leaf's key is adjacent to k in key order, so any better answer must sit
/// in the first subtree to the right of the search path).
template <typename Layout, typename Cmp>
std::optional<typename Layout::key_type> bound_up(
    const typename Layout::Node* root, const Cmp& cmp,
    const typename Layout::key_type& k, bool strict) {
  using Node = typename Layout::Node;
  const Node* n = root;
  const Node* last_right = nullptr;  // right sibling subtree of the path
  while (!Layout::is_leaf(n)) {
    if (cmp.less(k, n->key)) {
      last_right = Layout::right(n);
      n = Layout::left(n);
    } else {
      n = Layout::right(n);
    }
  }
  if (n->key.is_real()) {
    const bool ge = !cmp.user_compare()(n->key.key, k);  // leaf >= k
    const bool gt = cmp.user_compare()(k, n->key.key);   // leaf >  k
    if (strict ? gt : ge) return n->key.key;
  }
  if (last_right == nullptr) return std::nullopt;
  // Minimum of the captured subtree; a sentinel there means only sentinels
  // lie right of k.
  return real_key<Layout>(leftmost<Layout>(last_right));
}

/// Largest key <= k (or < k when strict); mirror image of bound_up. The
/// left sibling subtree of the search path never contains sentinel leaves,
/// but the result is still checked with real_key for robustness.
template <typename Layout, typename Cmp>
std::optional<typename Layout::key_type> bound_down(
    const typename Layout::Node* root, const Cmp& cmp,
    const typename Layout::key_type& k, bool strict) {
  using Node = typename Layout::Node;
  const Node* n = root;
  const Node* last_left = nullptr;  // left sibling subtree of the path
  while (!Layout::is_leaf(n)) {
    if (cmp.less(k, n->key)) {
      n = Layout::left(n);
    } else {
      last_left = Layout::left(n);
      n = Layout::right(n);
    }
  }
  if (n->key.is_real()) {
    const bool le = !cmp.user_compare()(k, n->key.key);  // leaf <= k
    const bool lt = cmp.user_compare()(n->key.key, k);   // leaf <  k
    if (strict ? lt : le) return n->key.key;
  }
  if (last_left == nullptr) return std::nullopt;
  return real_key<Layout>(rightmost<Layout>(last_left));
}

/// Visits every (key, value) with lo <= key <= hi in order, pruning
/// subtrees by the BST bounds. The walk follows left children directly and
/// stacks only the right subtrees it still has to visit: at an internal
/// node wanted on both sides it pushes the right child and steps left, and
/// at a leaf it pops. The stack is explicit because the EFRB tree is
/// unbalanced (the paper leaves balancing to future work, §6): descending
/// insertion builds a left vine, and the stack then grows to n.
///
/// Each pushed right child is prefetched as it is pushed. It is not needed
/// until the whole left subtree's walk is done, so its cache miss overlaps
/// that walk instead of stalling the pop. The bound walks and leftmost/
/// rightmost get neither mechanism: each is a single descent with nothing
/// to overlap.
///
/// Each child pointer is still read once, on a root path, so the
/// consistency argument above is unchanged.
template <typename Layout, typename Cmp, typename Fn>
void range(const typename Layout::Node* root, const Cmp& cmp,
           const typename Layout::key_type& lo,
           const typename Layout::key_type& hi, Fn&& fn) {
  using Node = typename Layout::Node;
  if (cmp.user_compare()(hi, lo)) return;  // empty interval
  std::vector<const Node*> stack;
  stack.reserve(kStackReserve);
  const Node* n = root;
  for (;;) {
    if (!Layout::is_leaf(n)) {
      // Left subtree holds keys < n->key: wanted iff lo < n->key.
      // Right subtree holds keys >= n->key: wanted iff hi >= n->key.
      // With lo <= hi at least one of the two is wanted.
      const bool go_left = cmp.less(lo, n->key);
      const bool go_right = !cmp.less(hi, n->key);
      if (go_left && go_right) {
        const Node* r = Layout::right(n);
        __builtin_prefetch(r);
        stack.push_back(r);
      }
      n = go_left ? Layout::left(n) : Layout::right(n);
      continue;
    }
    if (n->key.is_real() && !cmp.user_compare()(n->key.key, lo) &&
        !cmp.user_compare()(hi, n->key.key)) {
      fn(n->key.key, Layout::value(n));
    }
    if (stack.empty()) return;
    n = stack.back();
    stack.pop_back();
  }
}

/// In-order visit of every real (key, value) pair under `root`: range's
/// walk with no bounds, so every right child is prefetched, stacked, and
/// popped once the left subtree under its parent is done.
template <typename Layout, typename Fn>
void for_each(const typename Layout::Node* root, Fn&& fn) {
  using Node = typename Layout::Node;
  std::vector<const Node*> stack;
  stack.reserve(kStackReserve);
  const Node* n = root;
  for (;;) {
    if (!Layout::is_leaf(n)) {
      const Node* r = Layout::right(n);
      __builtin_prefetch(r);
      stack.push_back(r);
      n = Layout::left(n);
      continue;
    }
    if (n->key.is_real()) fn(n->key.key, Layout::value(n));
    if (stack.empty()) return;
    n = stack.back();
    stack.pop_back();
  }
}

}  // namespace efrb::ordered
