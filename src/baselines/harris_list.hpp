// Lock-free linked-list set — Harris's algorithm (the paper's reference [10])
// in Michael's hazard-pointer-compatible formulation (reference [21]).
//
// This is the technique the EFRB tree generalizes: deletion first sets a mark
// bit in the victim's successor pointer (freezing it), then physically unlinks
// it. The tree's Mark state on internal nodes (§3) plays exactly this role,
// lifted to nodes whose two child pointers live in two words.
//
// Reclamation uses the HazardPointerDomain (three hazard slots: previous node,
// current node, successor), demonstrating the §6 discussion concretely on the
// structure it was originally designed for. A node is retired by the thread
// whose CAS physically unlinks it.
//
// Retirement is routed through the same OpContext used by the tree: the
// list-level convenience methods build a tree_level context (thread_local
// hazard slot lease), while handle() returns a per-thread Handle owning a
// HazardPointerDomain::Attachment, so handle users never touch the lease.
//
// Complexity is O(n) per operation — in the evaluation it is only competitive
// at very small key ranges (experiment E2).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

#include "core/op_context.hpp"
#include "reclaim/hazard.hpp"
#include "util/assert.hpp"

namespace efrb {

template <typename Key, typename Compare = std::less<Key>>
class HarrisList {
  struct LNode {
    const Key key;
    std::atomic<std::uintptr_t> next{0};  // bit 0 = mark ("I am deleted")
    explicit LNode(Key k) : key(std::move(k)) {}
  };

 public:
  using key_type = Key;
  static constexpr const char* kName = "harris-list";

  explicit HarrisList(Compare cmp = Compare{})
      : cmp_(std::move(cmp)),
        hp_(kMaxThreads, kHazardsPerOp),
        head_(new LNode(Key{})) {}

  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  ~HarrisList() {
    LNode* n = head_;
    while (n != nullptr) {
      LNode* next = unmark(n->next.load(std::memory_order_relaxed));
      delete n;
      n = next;
    }
  }

  /// Per-thread operation handle: owns a hazard slot Attachment, so its ops
  /// skip the domain's thread_local lease lookup. Thread-affine and movable,
  /// mirroring EfrbTreeMap::Handle (the list keeps no per-handle stats or
  /// backoff — its retry loops are unlink sweeps, not contended flag CAS).
  class Handle {
   public:
    Handle(Handle&&) noexcept = default;
    Handle& operator=(Handle&&) noexcept = default;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    bool valid() const noexcept { return att_.attached(); }

    bool contains(const Key& k) const {
      auto ctx = make_ctx();
      auto h = att_.make_handle();
      typename HarrisList::Window w{};
      return list_->find(k, w, h, ctx);
    }

    bool insert(const Key& k) {
      auto ctx = make_ctx();
      auto h = att_.make_handle();
      return list_->do_insert(k, h, ctx);
    }

    bool erase(const Key& k) {
      auto ctx = make_ctx();
      auto h = att_.make_handle();
      return list_->do_erase(k, h, ctx);
    }

    /// Drain this handle's retire list (quiescent points).
    void flush() { att_.flush(); }

   private:
    friend class HarrisList;
    explicit Handle(HarrisList& list)
        : list_(&list), att_(list.hp_.attach()) {}

    auto make_ctx() const { return Ctx::attached(att_, nullptr, nullptr); }

    HarrisList* list_;
    mutable HazardPointerDomain::Attachment att_;
  };

  /// Create a per-thread handle (see Handle). At most one per thread should
  /// be live per kMaxThreads budget shared with lease users.
  Handle handle() { return Handle(*this); }

  bool contains(const Key& k) const {
    auto ctx = tree_ctx();
    auto h = hp_.make_handle();
    Window w{};
    return find(k, w, h, ctx);
  }

  bool insert(const Key& k) {
    auto ctx = tree_ctx();
    auto h = hp_.make_handle();
    return do_insert(k, h, ctx);
  }

  bool erase(const Key& k) {
    auto ctx = tree_ctx();
    auto h = hp_.make_handle();
    return do_erase(k, h, ctx);
  }

  std::size_t size() const {  // quiescent use only
    std::size_t n = 0;
    for (LNode* cur = unmark(head_->next.load(std::memory_order_acquire));
         cur != nullptr;
         cur = unmark(cur->next.load(std::memory_order_acquire))) {
      if (!is_marked(cur->next.load(std::memory_order_acquire))) ++n;
    }
    return n;
  }

  HazardPointerDomain& reclaimer() noexcept { return hp_; }

 private:
  using Ctx = OpContext<HazardPointerDomain, /*kCount=*/false>;

  static constexpr std::size_t kMaxThreads = 64;
  static constexpr std::size_t kHazardsPerOp = 3;  // prev node, curr, next

  static constexpr bool is_marked(std::uintptr_t w) noexcept { return (w & 1) != 0; }
  static LNode* unmark(std::uintptr_t w) noexcept {
    return reinterpret_cast<LNode*>(w & ~std::uintptr_t{1});
  }
  static std::uintptr_t pack(LNode* n, bool mark) noexcept {
    return reinterpret_cast<std::uintptr_t>(n) | (mark ? 1 : 0);
  }

  struct Window {
    std::atomic<std::uintptr_t>* prev;  // word that pointed at curr
    LNode* curr;                        // first node with key >= k (or null)
  };

  Ctx tree_ctx() const { return Ctx::tree_level(hp_, nullptr); }

  bool do_insert(const Key& k, HazardPointerDomain::Handle& h, Ctx& ctx) {
    auto* node = new LNode(k);
    for (;;) {
      Window w{};
      if (find(k, w, h, ctx)) {
        delete node;  // never published
        return false;
      }
      node->next.store(pack(w.curr, false), std::memory_order_relaxed);
      std::uintptr_t expected = pack(w.curr, false);
      if (w.prev->compare_exchange_strong(expected, pack(node, false),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        return true;
      }
    }
  }

  bool do_erase(const Key& k, HazardPointerDomain::Handle& h, Ctx& ctx) {
    for (;;) {
      Window w{};
      if (!find(k, w, h, ctx)) return false;
      // Logical deletion: set the mark bit on the victim's successor word.
      // Only the thread whose CAS installs the mark owns the deletion.
      const std::uintptr_t succ_word =
          w.curr->next.load(std::memory_order_acquire);
      if (is_marked(succ_word)) continue;  // already logically deleted; re-find
      std::uintptr_t expected = succ_word;
      if (!w.curr->next.compare_exchange_strong(expected, succ_word | 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        continue;
      }
      // Physical unlink; on failure, a find() sweep performs it for us.
      std::uintptr_t prev_expected = pack(w.curr, false);
      if (w.prev->compare_exchange_strong(prev_expected,
                                          pack(unmark(succ_word), false),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        ctx.retire(w.curr);
      } else {
        Window scrap{};
        find(k, scrap, h, ctx);  // unlinks (and retires) marked nodes in the way
      }
      return true;
    }
  }

  // Michael's Find: positions the window at the first node with key >= k,
  // physically unlinking any marked node encountered (and retiring it if this
  // thread's CAS did the unlink). Hazard slots: 0 = node owning *prev,
  // 1 = curr, 2 = staging for curr's successor.
  //
  // Validation discipline: after publishing a hazard for curr we re-read
  // *prev; if it no longer points (unmarked) at curr, the snapshot is stale
  // and the traversal restarts from the head.
  bool find(const Key& k, Window& w, HazardPointerDomain::Handle& h,
            Ctx& ctx) const {
  try_again:
    std::atomic<std::uintptr_t>* prev = &head_->next;
    h.set(0, head_);
    LNode* curr = unmark(prev->load(std::memory_order_acquire));
    h.set(1, curr);
    if (unmark(prev->load(std::memory_order_acquire)) != curr ||
        is_marked(prev->load(std::memory_order_acquire))) {
      goto try_again;
    }
    while (curr != nullptr) {
      const std::uintptr_t succ_word = curr->next.load(std::memory_order_acquire);
      LNode* succ = unmark(succ_word);
      if (is_marked(succ_word)) {
        // curr is logically deleted: unlink it from *prev.
        std::uintptr_t expected = pack(curr, false);
        if (!prev->compare_exchange_strong(expected, pack(succ, false),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          goto try_again;
        }
        ctx.retire(curr);
        h.set(1, succ);
        if (unmark(prev->load(std::memory_order_acquire)) != succ) goto try_again;
        curr = succ;
        continue;
      }
      // Protect succ before we may step onto it.
      h.set(2, succ);
      if (curr->next.load(std::memory_order_seq_cst) != succ_word) goto try_again;
      if (!cmp_(curr->key, k)) {  // curr->key >= k
        w.prev = prev;
        w.curr = curr;
        return !cmp_(k, curr->key);  // equal?
      }
      // Advance: curr becomes the prev node, succ becomes curr.
      h.set(0, curr);
      prev = &curr->next;
      h.set(1, succ);
      if (prev->load(std::memory_order_acquire) != succ_word) goto try_again;
      curr = succ;
    }
    w.prev = prev;
    w.curr = nullptr;
    return false;
  }

  Compare cmp_;
  mutable HazardPointerDomain hp_;
  LNode* head_;  // dummy; key never examined
};

}  // namespace efrb
