// Layer 2 of the EFRB core: the descent routines.
//
// search_path is the paper's Search (Fig. 8, lines 23-35) — the descent loop
// shared by Insert, Delete and the protocol's retry rounds; find_path is the
// lean read-only descent behind Find. The ordered queries' degenerate
// Searches (leftmost/rightmost) live with the walks in ordered.hpp.
//
// All routines only read child pointers reachable from the root while the
// caller holds a pinned region, so every node touched is protected from
// reclamation (see the retirement protocol note in efrb_tree.hpp).
#pragma once

#include <atomic>
#include <cstddef>

#include "core/layout.hpp"

namespace efrb {

/// Search(k), lines 23-35.
///
/// Postconditions (paper lines 24-26): l is a leaf; p is the internal node
/// whose child pointer contained l; pupdate/gpupdate were read from p/gp
/// *before* following the edge towards l (that read order is what makes the
/// flag-check-then-CAS protocol sound).
///
/// When Traits::kSearchHelpsMarked (the paper's §6 variant), a marked internal
/// node on the path is spliced out via the `help_marked` callback
/// (DInfo* -> void) before the walk restarts from the root; this Search is
/// then not read-only, which is why the callback — and with it the protocol
/// layer — stays outside this header.
///
/// `depth_out`, when non-null, receives the number of levels walked from the
/// root to the returned leaf (restarts reset the count — the reported figure
/// is the final descent's depth, the structural quantity the balance
/// telemetry samples). Callers passing nullptr pay nothing: the counting
/// folds away.
template <typename Traits, typename Layout, typename Cmp, typename HelpMarked>
typename Layout::SearchResult search_path(typename Layout::Internal* root,
                                          const typename Layout::key_type& k,
                                          const Cmp& cmp,
                                          HelpMarked&& help_marked,
                                          std::size_t* depth_out = nullptr) {
  using Internal = typename Layout::Internal;
  using Leaf = typename Layout::Leaf;
  using Node = typename Layout::Node;
  using DInfo = typename Layout::DInfo;

  Internal* gp = nullptr;
  Internal* p = nullptr;
  Update gpupdate, pupdate;
  Node* l = root;
  std::size_t depth = 0;
  while (l->is_internal) {
    gp = p;                          // line 28
    p = static_cast<Internal*>(l);   // line 29
    gpupdate = pupdate;              // line 30
    pupdate = p->update.load();      // line 31
    if constexpr (Traits::kSearchHelpsMarked) {
      // §6 variant: splice out a marked node before walking through it, then
      // restart from the root (the spliced node is off the path). Helping
      // mutates shared memory, so this Search variant is not read-only; the
      // tree's logical state is unchanged (the deletion being helped already
      // passed its linearization-enabling mark).
      if (pupdate.state() == UpdateState::kMark) {
        help_marked(static_cast<DInfo*>(pupdate.info()));
        gp = nullptr;
        p = nullptr;
        gpupdate = Update{};
        pupdate = Update{};
        l = root;
        depth = 0;
        continue;
      }
    }
    ++depth;
    l = cmp.less(k, p->key)          // line 32
            ? p->left.load(std::memory_order_acquire)
            : p->right.load(std::memory_order_acquire);
  }
  if (depth_out != nullptr) *depth_out = depth;
  return typename Layout::SearchResult{gp, p, static_cast<Leaf*>(l), pupdate,
                                       gpupdate};
}

/// Lean read-only descent for Find (paper Fig. 8, lines 36-38: "Search(k);
/// return the leaf"): a Find never CASes, so it has no use for the
/// (gp, p, pupdate, gpupdate) postcondition bundle Search maintains for the
/// updaters — it only needs the leaf at the end of the walk. This routine
/// skips all SearchResult capture: no gp/p tracking, and the per-level update
/// word is not even loaded unless the Traits ask for §6 marked-node helping.
/// Correctness is unchanged — the paper's Find linearizes at the child-
/// pointer reads of a plain Search and never inspects the update words it
/// recorded — so dropping the bookkeeping drops pure overhead from the
/// read path (one atomic load per level plus the snapshot stores).
///
/// Under Traits::kSearchHelpsMarked the update word IS loaded, and a marked
/// node is spliced out via `help_marked` before restarting — the fast path
/// only pays that load when the traits opted into helping reads.
template <typename Traits, typename Layout, typename Cmp, typename HelpMarked>
const typename Layout::Leaf* find_path(typename Layout::Internal* root,
                                       const typename Layout::key_type& k,
                                       const Cmp& cmp,
                                       HelpMarked&& help_marked,
                                       std::size_t* depth_out = nullptr) {
  using Internal = typename Layout::Internal;
  using Leaf = typename Layout::Leaf;
  using Node = typename Layout::Node;
  using DInfo = typename Layout::DInfo;

  Node* l = root;
  std::size_t depth = 0;
  while (l->is_internal) {
    auto* p = static_cast<Internal*>(l);
    if constexpr (Traits::kSearchHelpsMarked) {
      const Update pupdate = p->update.load();
      if (pupdate.state() == UpdateState::kMark) {
        help_marked(static_cast<DInfo*>(pupdate.info()));
        l = root;
        depth = 0;
        continue;
      }
    }
    ++depth;
    l = cmp.less(k, p->key) ? p->left.load(std::memory_order_acquire)
                            : p->right.load(std::memory_order_acquire);
  }
  if (depth_out != nullptr) *depth_out = depth;
  return static_cast<const Leaf*>(l);
}

}  // namespace efrb
