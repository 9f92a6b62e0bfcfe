// Layer 1 of the EFRB core: memory layout.
//
// Everything the paper's Figure 7 declares lives here — the update word
// (state + Info pointer packed into one CAS word), the Info records, and the
// leaf-oriented node types — with no algorithm attached. The Search routine
// (search.hpp), the CAS protocol (protocol.hpp) and the ordered navigation
// (ordered.hpp, through the is_leaf/left/right/value seam) are all written
// against these types.
//
// Update-word packing (paper §3/§4.1): "The pointer to the Info record is
// stored in the same memory word as the state. (In typical 32-bit word
// architectures, if items stored in memory are word-aligned, the two
// lowest-order bits of a pointer can be used to store the state.)" We realize
// exactly that packing on 64-bit: Info records are allocated with alignment
// >= 4, so bits 0..1 of the pointer hold one of the four states {Clean,
// DFlag, IFlag, Mark}.
//
// The packed word is what every update-field CAS in Figures 8/9 operates on;
// equality of two packed words is equality of (state, info) pairs, which is
// what gives the algorithm its "values never repeat" property (each flagging
// installs a pointer to a freshly allocated Info record).
//
// Sizes for <uint64_t, uint64_t>, untraced: Leaf 24 B, Internal 40 B, IInfo
// 24 B, DInfo 32 B, so Leaf/IInfo share glibc's 32-byte chunk class and
// Internal/DInfo the 48-byte one (DESIGN.md, "Node layout and size classes").
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "core/bounded_key.hpp"
#include "core/debug_hooks.hpp"
#include "core/llx_scx.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/assert.hpp"
#include "util/cacheline.hpp"

namespace efrb {

/// States of an internal node's update field (Fig. 4/7). Numeric values are
/// the two tag bits stored in the packed word.
enum class UpdateState : std::uintptr_t {
  kClean = 0,  // no operation holds this node's child pointers
  kDFlag = 1,  // a Delete intends to change a child pointer (grandparent role)
  kIFlag = 2,  // an Insert intends to change a child pointer
  kMark = 3,   // node is being spliced out; child pointers frozen forever
};

/// Empty tag base of IInfo/DInfo. The state tag of a word that points to an
/// Info record tells helpers the concrete type while the operation is in
/// flight (IFlag -> IInfo, DFlag/Mark -> DInfo), mirroring the paper's Help
/// routine (lines 107-112). No vptr: a record retired from a *Clean* word,
/// whose tag no longer names the type, is freed as raw storage by
/// dispose_retired<Info> below — never deleted through an Info*.
struct Info {};

template <>
inline void dispose_retired<Info>(void* p) noexcept {
  ::operator delete(p);  // trivially destructible records (TreeLayout asserts)
}

/// Causal owner stamp of an Info record: pack_owner(tid, op_seq) of the
/// creating operation, written by the creator *before* the record's
/// publishing CAS and read by helpers only after an acquire load of the
/// update word that published it — so a plain (non-atomic) word is race-free.
/// The word exists only in instantiations whose Traits enable kCausalTrace
/// (core/debug_hooks.hpp); elsewhere the stamp is empty and takes no bytes.
template <bool kTraced>
struct OwnerStamp {
  std::uint64_t owner = kNoOwner;
};
template <>
struct OwnerStamp<false> {};

/// Immutable snapshot of an update field: (state, Info*) in one word — the
/// four-state EFRB specialization of the shared tagged-word seam
/// (core/llx_scx.hpp). A default-constructed Update is {Clean, nullptr}, the
/// initial value of every internal node.
using Update = TaggedInfoWord<UpdateState, Info>;

/// The atomic update field of an internal node.
///
/// compare_exchange: single-word CAS; on failure `expected` is refreshed with
/// the witnessed value (which callers pass to Help, per lines 61/85/97 of the
/// paper). Orders default to the strongest pairing the protocol needs
/// (acq_rel success / acquire failure). Steps whose failure value is
/// discarded and whose success publishes nothing new pass weaker orders
/// explicitly — see the per-step audit comments in core/protocol.hpp.
using AtomicUpdate = AtomicInfoWord<Update>;

static_assert(sizeof(AtomicUpdate) == sizeof(std::uintptr_t),
              "update field must be one CAS word");

/// The node types of one tree instantiation (Fig. 7) and the navigation seam
/// of the ordered walks (ordered.hpp).
template <typename Key, typename Value>
struct NodeLayout {
  using key_type = Key;
  using mapped_type = Value;
  using BKey = BoundedKey<Key>;

  // The node kind sits in the key's tail padding (BoundedKey<uint64_t> is a
  // word and a one-byte class), so the header is 16 B; as a plain member the
  // key would push is_internal into a word of its own.
  struct Node {
    [[no_unique_address]] const BKey key;
    const bool is_internal;
    Node(BKey k, bool internal) : key(std::move(k)), is_internal(internal) {}
  };

  struct Leaf final : Node {
    [[no_unique_address]] Value value;
    Leaf(BKey k, Value v) : Node(std::move(k), false), value(std::move(v)) {}
  };

  // Naturally aligned, like every per-operation heap type (the
  // kPlainNewAligned assert below): a cache-line alignas would keep hot
  // Internals and Info records off each other's lines, but it sends every
  // heap `new` on the update path through memalign, which measured costlier
  // than the false sharing it prevents (EXPERIMENTS.md, E1c). The children
  // come before the update word, so the bytes a Find reads (key, kind,
  // children) are the first 32.
  struct Internal final : Node {
    std::atomic<Node*> left;
    std::atomic<Node*> right;
    AtomicUpdate update;  // lines 2-5: (state, Info*) in one CAS word
    Internal(BKey k, Node* l, Node* r)
        : Node(std::move(k), true), left(l), right(r) {}
  };

  // Navigation seam of the ordered walks (ordered.hpp): the leaf test, child
  // loads (internal nodes only) and a leaf's value.
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
};

/// The nodes plus the Info-record types of one tree instantiation, bundled
/// so every layer of the core names them off a single `Layout` template
/// argument. kTraced (Traits::kCausalTrace) gives each record an owner word;
/// the node types are the same either way.
template <typename Key, typename Value, bool kTraced>
struct TreeLayout : NodeLayout<Key, Value> {
  using typename NodeLayout<Key, Value>::Node;
  using typename NodeLayout<Key, Value>::Leaf;
  using typename NodeLayout<Key, Value>::Internal;

  // lines 12-14. new_node is Node* (not Internal*) to support the
  // insert_or_assign extension, which installs a replacement Leaf.
  struct IInfo final : Info {
    Internal* p;
    Leaf* l;
    Node* new_node;
    [[no_unique_address]] OwnerStamp<kTraced> stamp;
    IInfo(Internal* p_, Leaf* l_, Node* n_) : p(p_), l(l_), new_node(n_) {}
  };

  // lines 15-18
  struct DInfo final : Info {
    Internal* gp;
    Internal* p;
    Leaf* l;
    Update pupdate;
    [[no_unique_address]] OwnerStamp<kTraced> stamp;
    DInfo(Internal* gp_, Internal* p_, Leaf* l_, Update pu)
        : gp(gp_), p(p_), l(l_), pupdate(pu) {}
  };

  static_assert(alignof(IInfo) >= 4 && alignof(DInfo) >= 4,
                "two low pointer bits must be free for the state tag");
  static_assert(std::is_trivially_destructible_v<IInfo> &&
                    std::is_trivially_destructible_v<DInfo>,
                "a record retired from a Clean word is freed as raw storage");
  static_assert(std::is_standard_layout_v<IInfo> &&
                    std::is_standard_layout_v<DInfo>,
                "the Info base must share the record's address");
  static_assert(kPlainNewAligned<Leaf, Internal, IInfo, DInfo>,
                "over-aligned node or Info record: every heap `new` would "
                "take aligned operator new (glibc memalign, no tcache) on "
                "the update path");

  /// Postcondition bundle of the Search routine (paper lines 24-26).
  struct SearchResult {
    Internal* gp;
    Internal* p;
    Leaf* l;
    Update pupdate;
    Update gpupdate;
  };
};

}  // namespace efrb
