// Tests for the packed update word (state + Info pointer in one CAS word) —
// the Fig. 5/7 memory layout: "Fields separated by dotted lines are stored in
// a single word."
#include <gtest/gtest.h>

#include <cstdint>

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
  // The packing requires 4-byte-aligned Info records; the virtual table
  // pointer forces at least pointer alignment.
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

}  // namespace
}  // namespace efrb
