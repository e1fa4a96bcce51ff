// Unit tests for the inline-storage building blocks of the zero-allocation
// packet hot path: InlineFunction (event-queue actions) and InlineVec
// (SACK blocks).
#include <cstdint>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "sim/inline_function.h"
#include "sim/inline_vec.h"

namespace mpr::sim {
namespace {

// ---------------------------------------------------------------------------
// InlineFunction.

using Fn = InlineFunction<void(), 64>;

TEST(InlineFunction, DefaultConstructedIsEmpty) {
  Fn f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f == nullptr);
}

TEST(InlineFunction, InvokesCapturedClosure) {
  int calls = 0;
  Fn f{[&calls] { ++calls; }};
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, ReturnsValueAndForwardsArguments) {
  InlineFunction<int(int, int), 64> add{[](int a, int b) { return a + b; }};
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, MoveTransfersClosureAndEmptiesSource) {
  int calls = 0;
  Fn a{[&calls] { ++calls; }};
  Fn b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(InlineFunction, MoveAssignReplacesAndDestroysOldClosure) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  Fn f{[held = std::move(token)] { (void)held; }};
  EXPECT_FALSE(alive.expired());
  int calls = 0;
  f = Fn{[&calls] { ++calls; }};
  EXPECT_TRUE(alive.expired());  // old closure destroyed exactly once
  f();
  EXPECT_EQ(calls, 1);
}

TEST(InlineFunction, ResetAndNullAssignDestroyClosure) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  Fn f{[held = std::move(token)] { (void)held; }};
  f.reset();
  EXPECT_TRUE(alive.expired());
  EXPECT_FALSE(static_cast<bool>(f));

  auto token2 = std::make_shared<int>(2);
  std::weak_ptr<int> alive2 = token2;
  f = [held = std::move(token2)] { (void)held; };
  EXPECT_FALSE(alive2.expired());
  f = nullptr;
  EXPECT_TRUE(alive2.expired());
}

TEST(InlineFunction, DestructorReleasesClosureState) {
  auto token = std::make_shared<int>(3);
  std::weak_ptr<int> alive = token;
  {
    Fn f{[held = std::move(token)] { (void)held; }};
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

TEST(InlineFunction, MovedHandleStillOwnsMoveOnlyCapture) {
  // A move-only capture (the PacketPtr pattern) must survive relocation
  // through the handle's move constructor.
  auto box = std::make_unique<int>(42);
  InlineFunction<int(), 64> f{[b = std::move(box)] { return *b; }};
  InlineFunction<int(), 64> g{std::move(f)};
  EXPECT_EQ(g(), 42);
}

TEST(InlineFunction, AcceptsCaptureAtExactCapacity) {
  struct Pad {
    unsigned char bytes[64];
  };
  static_assert(sizeof(Pad) == Fn::capacity());
  Pad pad{};
  pad.bytes[63] = 9;
  InlineFunction<int(), 64> f{[pad] { return static_cast<int>(pad.bytes[63]); }};
  EXPECT_EQ(f(), 9);
  // A 65-byte closure would fail the static_assert in emplace() — enforced
  // at compile time, so there is nothing to test at runtime.
}

// ---------------------------------------------------------------------------
// InlineVec.

TEST(InlineVec, StartsEmptyWithFixedCapacity) {
  InlineVec<std::uint64_t, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(InlineVec, PushBackAppendsInOrder) {
  InlineVec<int, 4> v;
  v.push_back(10);
  v.push_back(20);
  v.push_back(30);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v[2], 30);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 30);
}

TEST(InlineVec, ClearKeepsNothingButAllowsReuse) {
  InlineVec<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(5);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 5);
}

TEST(InlineVec, RangeForIteratesLiveElementsOnly) {
  InlineVec<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  int sum = 0;
  for (const int x : v) sum += x;
  EXPECT_EQ(sum, 6);
}

TEST(InlineVec, EqualityComparesSizeAndElements) {
  InlineVec<int, 4> a;
  InlineVec<int, 4> b;
  EXPECT_TRUE(a == b);
  a.push_back(1);
  EXPECT_FALSE(a == b);
  b.push_back(1);
  EXPECT_TRUE(a == b);
  a.push_back(2);
  b.push_back(3);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace mpr::sim
