// Tests for the packed update word (state + Info pointer in one CAS word) —
// the Fig. 5/7 memory layout: "Fields separated by dotted lines are stored in
// a single word." — and the node/record sizes that layout pins down.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

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

}  // namespace
}  // namespace efrb
