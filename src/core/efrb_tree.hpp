// Non-blocking binary search tree of Ellen, Fatourou, Ruppert & van Breugel
// (PODC 2010) — a linearizable, lock-free, leaf-oriented BST built from
// single-word CAS.
//
// This header names the public tree over the layered core:
//
//   layout.hpp    — node/Info-record layout and update-word packing (Fig. 7)
//   search.hpp    — the descent routines (Fig. 8 lines 23-35)
//   protocol.hpp  — TreeCore: the eight-step CAS protocol + helping (Fig. 8/9)
//   ordered.hpp   — min/max, bounds, range, for_each (shared with chromatic)
//   op_context.hpp— OpContext + the stats substrate threaded through them all
//   tree_map.hpp  — TreeMap: the facade (Handle, wrappers, policies) that
//                   EfrbTreeMap derives from
//
// Code structure mirrors the paper's pseudocode (Figures 7, 8, 9); comments
// of the form "line N" refer to its line numbers. The differences from the
// paper are exactly the ones a C++ implementation must make: memory
// reclamation (the paper assumes GC, §4.1/§6 — the tree is parameterized on
// a Reclaimer policy, default epoch-based; the full retirement protocol is
// documented at the top of protocol.hpp and in DESIGN.md §6), optional mapped
// values in leaves (§3; EfrbTreeSet aliases the map with an empty value
// type), and the insert_or_assign / replace extensions (soundness notes on
// TreeCore::insert / TreeCore::replace).
//
// Progress: non-blocking (lock-free). Find never writes shared memory and
// never helps; Insert/Delete help only operations that block them (§3,
// "conservative helping strategy").
#pragma once

#include <functional>

#include "core/debug_hooks.hpp"
#include "core/protocol.hpp"
#include "core/tree_map.hpp"
#include "reclaim/epoch.hpp"

namespace efrb {

/// TreeMap's view of the EFRB core (see core/tree_map.hpp).
template <typename Key, typename Value, typename Compare>
struct EfrbSpec {
  using Layout = NodeLayout<Key, Value>;
  using compare_type = Compare;
  template <typename Traits, typename Ctx>
  using Core = TreeCore<Key, Value, Compare, Traits, Ctx>;
};

/// The EFRB tree; every member comes from TreeMap. A class rather than an
/// alias, so EfrbTreeMap<K, V, C, R, T> stays a five-parameter template that
/// partial specializations over Map<K, V, C, R, T> can match.
template <typename Key, typename Value = detail::Unit,
          typename Compare = std::less<Key>,
          typename Reclaimer = EpochReclaimer, typename Traits = NoopTraits>
class EfrbTreeMap
    : public TreeMap<EfrbSpec<Key, Value, Compare>, Reclaimer, Traits> {
 public:
  using TreeMap<EfrbSpec<Key, Value, Compare>, Reclaimer, Traits>::TreeMap;
};

/// Set flavour: keys only, no mapped values.
template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = EpochReclaimer, typename Traits = NoopTraits>
using EfrbTreeSet = EfrbTreeMap<Key, detail::Unit, Compare, Reclaimer, Traits>;

}  // namespace efrb
