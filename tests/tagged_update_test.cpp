// Tests for the packed update word (state + Info pointer in one CAS word) —
// the Fig. 5/7 memory layout: "Fields separated by dotted lines are stored in
// a single word." — and the node/record sizes that layout pins down, for the
// EFRB tree (TreeLayoutTest) and the chromatic tree (ChromaticLayoutTest).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/chromatic.hpp"
#include "core/layout.hpp"

namespace efrb {
namespace {

struct FakeInfo : Info {
  int payload = 0;
};

TEST(UpdateTest, DefaultIsCleanNull) {
  Update u;
  EXPECT_EQ(u.state(), UpdateState::kClean);
  EXPECT_EQ(u.info(), nullptr);
  EXPECT_EQ(u.bits(), 0u);
}

TEST(UpdateTest, PackUnpackRoundTripsAllStates) {
  FakeInfo info;
  for (UpdateState s : {UpdateState::kClean, UpdateState::kDFlag,
                        UpdateState::kIFlag, UpdateState::kMark}) {
    const Update u = Update::make(s, &info);
    EXPECT_EQ(u.state(), s);
    EXPECT_EQ(u.info(), &info);
  }
}

TEST(UpdateTest, StateLivesInLowTwoBits) {
  FakeInfo info;
  const Update u = Update::make(UpdateState::kMark, &info);
  EXPECT_EQ(u.bits() & 0x3, static_cast<std::uintptr_t>(UpdateState::kMark));
  EXPECT_EQ(u.bits() & ~std::uintptr_t{0x3},
            reinterpret_cast<std::uintptr_t>(&info));
}

TEST(UpdateTest, EqualityIsStateAndPointer) {
  FakeInfo a, b;
  EXPECT_EQ(Update::make(UpdateState::kIFlag, &a),
            Update::make(UpdateState::kIFlag, &a));
  EXPECT_NE(Update::make(UpdateState::kIFlag, &a),
            Update::make(UpdateState::kDFlag, &a));
  EXPECT_NE(Update::make(UpdateState::kIFlag, &a),
            Update::make(UpdateState::kIFlag, &b));
}

TEST(UpdateTest, InfoAlignmentLeavesTagBitsFree) {
  // The packing requires 4-byte-aligned Info records. Info itself is an
  // empty tag; the alignment comes from each record's own members (the int
  // here, pointers in IInfo/DInfo).
  static_assert(alignof(FakeInfo) >= 4);
  auto* p = new FakeInfo;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) & 0x3, 0u);
  delete p;
}

TEST(AtomicUpdateTest, IsSingleWord) {
  // The paper's premise: state+info fit one CAS-able machine word (§3).
  static_assert(sizeof(AtomicUpdate) == sizeof(void*));
  AtomicUpdate au;
  EXPECT_TRUE(std::atomic<std::uintptr_t>{}.is_lock_free());
}

TEST(AtomicUpdateTest, InitiallyCleanNull) {
  AtomicUpdate au;
  EXPECT_EQ(au.load(), Update{});
}

TEST(AtomicUpdateTest, SuccessfulCas) {
  AtomicUpdate au;
  FakeInfo info;
  Update expected;  // {Clean, null}
  EXPECT_TRUE(au.compare_exchange(expected,
                                  Update::make(UpdateState::kIFlag, &info)));
  EXPECT_EQ(au.load().state(), UpdateState::kIFlag);
  EXPECT_EQ(au.load().info(), &info);
}

TEST(AtomicUpdateTest, FailedCasReturnsWitnessedValue) {
  AtomicUpdate au;
  FakeInfo real, stale;
  Update e0;
  ASSERT_TRUE(au.compare_exchange(e0, Update::make(UpdateState::kDFlag, &real)));

  Update expected = Update::make(UpdateState::kClean, &stale);
  EXPECT_FALSE(au.compare_exchange(expected,
                                   Update::make(UpdateState::kMark, &stale)));
  // The refreshed expected is exactly what Help() needs (paper line 61/85).
  EXPECT_EQ(expected, Update::make(UpdateState::kDFlag, &real));
}

TEST(AtomicUpdateTest, CasDistinguishesSameInfoDifferentState) {
  // iunflag CAS semantics: (IFlag, op) -> (Clean, op). A stale (Clean, op)
  // expectation must fail even though the pointer matches.
  AtomicUpdate au;
  FakeInfo op;
  Update e;
  ASSERT_TRUE(au.compare_exchange(e, Update::make(UpdateState::kIFlag, &op)));

  Update wrong = Update::make(UpdateState::kClean, &op);
  EXPECT_FALSE(au.compare_exchange(wrong, Update::make(UpdateState::kMark, &op)));

  Update right = Update::make(UpdateState::kIFlag, &op);
  EXPECT_TRUE(au.compare_exchange(right, Update::make(UpdateState::kClean, &op)));
  EXPECT_EQ(au.load(), Update::make(UpdateState::kClean, &op));
}

// ------------------------------------------------------ node/record layout

using Plain = TreeLayout<std::uint64_t, std::uint64_t, false>;
using Traced = TreeLayout<std::uint64_t, std::uint64_t, true>;

// glibc's chunk for an n-byte malloc on 64-bit: n plus the 8-byte size
// field, rounded up to 16, never below 32. EXPERIMENTS.md (E9) measures what
// a leaf alone in its chunk class costs.
constexpr std::size_t glibc_chunk(std::size_t n) {
  return std::max<std::size_t>(32, (n + 8 + 15) & ~std::size_t{15});
}

TEST(TreeLayoutTest, UntracedTypesArePaperSized) {
  // Fig. 7: Leaf {key}, Internal {key, update, left, right}, IInfo
  // {p, l, newInternal}, DInfo {gp, p, l, pupdate}; the node kind rides in
  // the key's tail padding and the records carry no vptr or owner word.
  static_assert(sizeof(Plain::Leaf) == 24);
  static_assert(sizeof(Plain::Internal) == 40);
  static_assert(sizeof(Plain::IInfo) == 24);
  static_assert(sizeof(Plain::DInfo) == 32);
  static_assert(std::is_empty_v<decltype(Plain::IInfo::stamp)>);
  static_assert(std::is_empty_v<decltype(Plain::DInfo::stamp)>);
  EXPECT_EQ(sizeof(Plain::Node), sizeof(BoundedKey<std::uint64_t>));
}

TEST(TreeLayoutTest, CausalRecordsCarryTheOwnerWord) {
  static_assert(std::is_same_v<decltype(Traced::IInfo::stamp.owner),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(Traced::DInfo::stamp.owner),
                               std::uint64_t>);
  static_assert(sizeof(Traced::IInfo) == sizeof(Plain::IInfo) + 8);
  static_assert(sizeof(Traced::DInfo) == sizeof(Plain::DInfo) + 8);
  // Tracing touches only the records.
  static_assert(std::is_same_v<Traced::Leaf, Plain::Leaf>);
  static_assert(std::is_same_v<Traced::Internal, Plain::Internal>);
  const Traced::IInfo ii(nullptr, nullptr, nullptr);
  const Traced::DInfo di(nullptr, nullptr, nullptr, Update{});
  EXPECT_EQ(ii.stamp.owner, kNoOwner);
  EXPECT_EQ(di.stamp.owner, kNoOwner);
}

template <typename L>
constexpr bool kRecordsFreeableRaw =
    std::is_trivially_destructible_v<typename L::IInfo> &&
    std::is_trivially_destructible_v<typename L::DInfo> &&
    alignof(typename L::IInfo) == 8 && alignof(typename L::DInfo) == 8;

TEST(TreeLayoutTest, RecordsAreTriviallyDestructibleAndWordAligned) {
  // A record retired from a Clean word is freed as raw storage through its
  // Info base (dispose_retired<Info>), so no destructor may be skipped.
  static_assert(kRecordsFreeableRaw<Plain>);
  static_assert(kRecordsFreeableRaw<Traced>);
  auto* rec = new Plain::DInfo(nullptr, nullptr, nullptr, Update{});
  Info* base = rec;
  EXPECT_EQ(static_cast<void*>(base), static_cast<void*>(rec));
  dispose_retired<Info>(base);
}

TEST(TreeLayoutTest, FindFieldsFillTheInternalsFirst32Bytes) {
  Plain::Internal in(BoundedKey<std::uint64_t>::real(5), nullptr, nullptr);
  const auto end_of = [&in](const auto& field) {
    return reinterpret_cast<const char*>(&field) + sizeof(field) -
           reinterpret_cast<const char*>(&in);
  };
  EXPECT_LE(end_of(in.key), 16);
  EXPECT_LE(end_of(in.is_internal), 16);
  EXPECT_LE(end_of(in.left), 32);
  EXPECT_LE(end_of(in.right), 32);
  EXPECT_EQ(end_of(in.update), 40);
}

TEST(TreeLayoutTest, NodeKindSurvivesEveryKeyKind) {
  // is_internal shares the key's tail padding: building a node from any key
  // (real, either sentinel, or one copied out of another node) must leave
  // the kind byte and the key's class intact.
  using BKey = BoundedKey<std::uint64_t>;
  const std::uint64_t all_ones = ~std::uint64_t{0};
  Plain::Leaf real(BKey::real(all_ones), all_ones);
  Plain::Leaf inf1(BKey::inf1(), 0);
  Plain::Leaf inf2(BKey::inf2(), 0);
  Plain::Internal root(BKey::inf2(), &inf1, &inf2);
  Plain::Internal from_leaf(real.key, &real, &inf1);
  Plain::Leaf from_internal(root.key, all_ones);
  Plain::Leaf copied(from_leaf.key, real.value);

  for (const Plain::Node* n : {static_cast<const Plain::Node*>(&real),
                               static_cast<const Plain::Node*>(&inf1),
                               static_cast<const Plain::Node*>(&inf2),
                               static_cast<const Plain::Node*>(&from_internal),
                               static_cast<const Plain::Node*>(&copied)}) {
    EXPECT_FALSE(n->is_internal);
    EXPECT_TRUE(Plain::is_leaf(n));
  }
  EXPECT_TRUE(root.is_internal);
  EXPECT_TRUE(from_leaf.is_internal);
  EXPECT_FALSE(Plain::is_leaf(&from_leaf));

  EXPECT_EQ(real.key.cls, KeyClass::kReal);
  EXPECT_EQ(real.key.key, all_ones);
  EXPECT_EQ(inf1.key.cls, KeyClass::kInf1);
  EXPECT_EQ(inf2.key.cls, KeyClass::kInf2);
  EXPECT_EQ(root.key.cls, KeyClass::kInf2);
  EXPECT_EQ(from_leaf.key.cls, KeyClass::kReal);
  EXPECT_EQ(from_leaf.key.key, all_ones);
  EXPECT_EQ(from_internal.key.cls, KeyClass::kInf2);
  EXPECT_EQ(copied.key.key, all_ones);
  EXPECT_EQ(copied.value, all_ones);
}

TEST(TreeLayoutTest, InsertPathObjectsPairUpInGlibcChunkClasses) {
  // Every insert allocates a Leaf, an Internal and an IInfo; every delete a
  // DInfo. A leaf alone in its chunk class measured a 20% worse churn-64k
  // p99 (EXPERIMENTS.md, E9), so Leaf shares its class with IInfo and
  // Internal shares its class with DInfo.
  EXPECT_EQ(glibc_chunk(sizeof(Plain::Leaf)), 32u);
  EXPECT_EQ(glibc_chunk(sizeof(Plain::IInfo)), 32u);
  EXPECT_EQ(glibc_chunk(sizeof(Plain::Internal)), 48u);
  EXPECT_EQ(glibc_chunk(sizeof(Plain::DInfo)), 48u);
}

// --------------------------------------------- chromatic node/record layout

using Chromatic = ChromaticLayout<std::uint64_t, std::uint64_t>;
using ChromaticStr = ChromaticLayout<std::uint64_t, std::string>;
using ChromaticRec = ScxRecordOf<Chromatic::Node>;
using ChromaticTracedRec = ScxRecordOf<Chromatic::Node, true>;

template <typename R>
concept HasOwnerWord = requires(const R& r) { r.owner; };

TEST(ChromaticLayoutTest, UntracedTypesArePaperSized) {
  // A leaf holds the data and no mutable field, an internal routes through
  // two child words; kind and weight ride in the key's tail padding, so the
  // header is the key plus the SCX info word.
  static_assert(sizeof(Chromatic::Leaf) == 32);
  static_assert(sizeof(Chromatic::Internal) == 40);
  static_assert(sizeof(ChromaticRec) <= 104);
  EXPECT_EQ(sizeof(Chromatic::Node),
            sizeof(BoundedKey<std::uint64_t>) +
                sizeof(AtomicScxWord<Chromatic::Node>));
  // An insert allocates a Leaf and an Internal (and a record); both nodes
  // share one chunk class, as the EFRB insert path's objects pair up.
  EXPECT_EQ(glibc_chunk(sizeof(Chromatic::Leaf)), 48u);
  EXPECT_EQ(glibc_chunk(sizeof(Chromatic::Internal)), 48u);
  EXPECT_EQ(glibc_chunk(sizeof(ChromaticRec)), 112u);
}

TEST(ChromaticLayoutTest, OnlyTracedRecordsCarryTheOwnerWord) {
  static_assert(!HasOwnerWord<ChromaticRec>);
  static_assert(HasOwnerWord<ChromaticTracedRec>);
  static_assert(std::is_base_of_v<ChromaticRec, ChromaticTracedRec>);
  static_assert(std::is_same_v<decltype(ChromaticTracedRec::owner),
                               std::uint64_t>);
  static_assert(sizeof(ChromaticTracedRec) == sizeof(ChromaticRec) + 8);
  const ChromaticTracedRec rec;
  EXPECT_EQ(rec.owner, kNoOwner);
}

TEST(ChromaticLayoutTest, InternalSizeDoesNotDependOnValue) {
  // Only leaves carry the value: an internal of a string map is the same
  // 40 B as one of an integer map, and a string leaf is header + string.
  static_assert(sizeof(ChromaticStr::Internal) == sizeof(Chromatic::Internal));
  static_assert(sizeof(ChromaticStr::Node) == sizeof(Chromatic::Node));
  EXPECT_EQ(sizeof(ChromaticStr::Leaf),
            sizeof(ChromaticStr::Node) + sizeof(std::string));
}

TEST(ChromaticLayoutTest, NodeKindSurvivesClone) {
  using BKey = BoundedKey<std::uint64_t>;
  const std::uint64_t all_ones = ~std::uint64_t{0};
  Chromatic::Leaf leaf(BKey::real(all_ones), 7, 2);
  Chromatic::Leaf inf1(BKey::inf1(), 0, 1);
  Chromatic::Internal in(BKey::real(all_ones), 0, &leaf, &inf1);

  Chromatic::Node* leaf_copy = Chromatic::clone(&leaf, 1, nullptr, nullptr);
  Chromatic::Node* inf1_copy = Chromatic::clone(&inf1, 1, nullptr, nullptr);
  Chromatic::Node* in_copy = Chromatic::clone(&in, 3, &inf1, &leaf);

  for (const Chromatic::Node* n : {leaf_copy, inf1_copy}) {
    EXPECT_FALSE(n->is_internal);
    EXPECT_TRUE(Chromatic::is_leaf(n));
    EXPECT_EQ(n->weight, 1);
  }
  EXPECT_EQ(leaf_copy->key.cls, KeyClass::kReal);
  EXPECT_EQ(leaf_copy->key.key, all_ones);
  EXPECT_EQ(Chromatic::value(leaf_copy), 7u);
  EXPECT_EQ(inf1_copy->key.cls, KeyClass::kInf1);

  EXPECT_TRUE(in_copy->is_internal);
  EXPECT_FALSE(Chromatic::is_leaf(in_copy));
  EXPECT_EQ(in_copy->weight, 3);
  EXPECT_EQ(in_copy->key.key, all_ones);
  EXPECT_EQ(Chromatic::left(in_copy), &inf1);
  EXPECT_EQ(Chromatic::right(in_copy), &leaf);

  // A copy of a string leaf keeps its (heap) value; freeing it through the
  // Node* the tree holds destroys it as a Leaf (checked by ASan/LSan).
  ChromaticStr::Leaf sleaf(BKey::real(1), std::string(64, 's'), 1);
  ChromaticStr::Node* scopy = ChromaticStr::clone(&sleaf, 0, nullptr, nullptr);
  EXPECT_TRUE(ChromaticStr::is_leaf(scopy));
  EXPECT_EQ(ChromaticStr::value(scopy), std::string(64, 's'));

  delete scopy;
  for (Chromatic::Node* n : {leaf_copy, inf1_copy, in_copy}) delete n;
}

// A string payload that counts its live instances: every one of them lives
// in a leaf (or a caller's temporary), so the count returns to zero only if
// every retired or torn-down leaf ran the Leaf destructor.
struct CountedString {
  static inline std::atomic<long> live{0};
  std::string s;
  CountedString() { live.fetch_add(1, std::memory_order_relaxed); }
  explicit CountedString(std::string v) : s(std::move(v)) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  CountedString(const CountedString& o) : s(o.s) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  CountedString& operator=(const CountedString&) = default;
  ~CountedString() { live.fetch_sub(1, std::memory_order_relaxed); }
  friend bool operator==(const CountedString& a, const CountedString& b) {
    return a.s == b.s;
  }
};

// Insert / assign / erase churn from two handles plus tree-level ops, with
// payloads past the small-string buffer so each leaf owns heap memory.
template <typename Map, typename MakeValue>
void churn(Map& m, MakeValue make) {
  constexpr std::uint64_t kKeys = 512;
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < 2; ++t) {
    workers.emplace_back([&m, &make, t] {
      auto h = m.handle();
      for (std::uint64_t i = 0; i < 6000; ++i) {
        const std::uint64_t k = (i * 7 + t * 131) % kKeys;
        switch (i % 3) {
          case 0: h.insert(k, make(i)); break;
          case 1: h.insert_or_assign(k, make(i + 1)); break;
          default: h.erase(k); break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::uint64_t k = 0; k < kKeys; k += 3) m.insert_or_assign(k, make(k));
  for (std::uint64_t k = 0; k < kKeys; k += 5) m.erase(k);
  const auto v = m.validate();
  ASSERT_TRUE(v.ok) << v.error;
}

TEST(ChromaticLayoutTest, StringChurnFreesEveryLeafAsALeaf) {
  // Under ASan (scripts/check.sh) a leaf freed as an Internal is a sized
  // delete mismatch and leaks its string; the counted twin catches a skipped
  // Value destructor in any build.
  {
    ChromaticTreeMap<std::uint64_t, std::string> m;
    churn(m, [](std::uint64_t i) { return std::string(40, 'a' + i % 26); });
  }
  {
    ChromaticTreeMap<std::uint64_t, CountedString> m;
    churn(m, [](std::uint64_t i) {
      return CountedString(std::string(40, 'a' + i % 26));
    });
    EXPECT_GT(CountedString::live.load(), 0);
  }
  EXPECT_EQ(CountedString::live.load(), 0);
}

}  // namespace
}  // namespace efrb
