// Flat container tests: FlatVec's exact reservation, and the sequence map
// (sim::SeqFlatMap over sim::FlatDeque). The SegRingTest
// cases pin the send-window shape — append at snd_nxt, retire from the
// front, binary-searched lookups — and the SeqFlatMapTest cases pin the
// sorted-map contract (dedup on insert, interior inserts, front sweeps)
// against a std::map reference, across lazy front compactions.
#include <cstdint>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "sim/flat_vec.h"

namespace mpr::sim {
namespace {

TEST(FlatVecTest, ReserveExactGrowsToTheRequestedCapacity) {
  // A capture's fixed growth chunks and size hints rely on this: reserve()
  // rounds up geometrically, reserve_exact() allocates what was asked.
  FlatVec<std::uint64_t> v;
  v.reserve_exact(100);
  EXPECT_EQ(v.capacity(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) v.push_back(i);
  v.reserve_exact(50);  // never shrinks
  EXPECT_EQ(v.capacity(), 100u);
  v.reserve_exact(100 + 37);
  EXPECT_EQ(v.capacity(), 137u);
  ASSERT_EQ(v.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SegRingTest, PushFindPopBasics) {
  SeqFlatMap<int> r;
  EXPECT_TRUE(r.empty());
  r.push_back(10, 1);
  r.push_back(20, 2);
  r.push_back(35, 3);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.front().seq, 10u);
  EXPECT_EQ(r.back().seq, 35u);
  ASSERT_NE(r.find(20), nullptr);
  EXPECT_EQ(*r.find(20), 2);
  EXPECT_EQ(r.find(21), nullptr);
  EXPECT_EQ(r.lower_bound(20), 1u);
  EXPECT_EQ(r.lower_bound(21), 2u);
  EXPECT_EQ(r.lower_bound(99), 3u);
  r.pop_front();
  EXPECT_EQ(r.front().seq, 20u);
  EXPECT_EQ(r.find(10), nullptr);
}

TEST(SegRingTest, WrapsAroundWithoutGrowing) {
  // Interleave pushes and pops so the front advances thousands of times
  // while the population stays tiny: steady-state flow behavior, where the
  // window empties or compacts instead of growing (ASan covers the rest).
  SeqFlatMap<std::uint64_t> r;
  std::uint64_t next = 0;
  std::uint64_t oldest = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) {
      r.push_back(next, next * 7);
      ++next;
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(r.front().seq, oldest);
      EXPECT_EQ(r.front().val, oldest * 7);
      r.pop_front();
      ++oldest;
    }
  }
  EXPECT_TRUE(r.empty());
}

TEST(SegRingTest, GrowsWithWrappedHead) {
  SeqFlatMap<int> r;
  // Advance the front (compacting once it passes the live window), then
  // force growth well past the initial capacity and verify order survived.
  for (std::uint64_t s = 0; s < 40; ++s) r.push_back(s, static_cast<int>(s));
  for (int i = 0; i < 30; ++i) r.pop_front();  // front at 30, count 10
  for (std::uint64_t s = 40; s < 200; ++s) r.push_back(s, static_cast<int>(s));
  ASSERT_EQ(r.size(), 170u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.at(i).seq, 30 + i);
    EXPECT_EQ(r.at(i).val, static_cast<int>(30 + i));
  }
  ASSERT_NE(r.find(123), nullptr);
  EXPECT_EQ(*r.find(123), 123);
}

TEST(SegRingTest, LowerBoundMatchesMapReference) {
  // Sparse, irregular seq gaps (like MSS-sized segments with a FIN): the
  // binary search must agree with std::map::lower_bound everywhere.
  std::mt19937_64 rng{42};
  SeqFlatMap<int> r;
  std::map<std::uint64_t, int> ref;
  std::uint64_t seq = 1;
  for (int i = 0; i < 500; ++i) {
    r.push_back(seq, i);
    ref.emplace(seq, i);
    seq += 1 + rng() % 3000;
  }
  for (std::uint64_t probe = 0; probe < seq + 100; probe += 37) {
    const auto it = ref.lower_bound(probe);
    const std::size_t idx = r.lower_bound(probe);
    if (it == ref.end()) {
      EXPECT_EQ(idx, r.size());
    } else {
      ASSERT_LT(idx, r.size());
      EXPECT_EQ(r.at(idx).seq, it->first);
    }
  }
}

TEST(SeqFlatMapTest, InsertKeepsOrderAndDedups) {
  SeqFlatMap<char> m;
  m.insert(50, 'c');
  m.insert(10, 'a');
  m.insert(30, 'b');
  m.insert(30, 'X');  // first insert wins, like map::emplace
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(0).seq, 10u);
  EXPECT_EQ(m.at(1).seq, 30u);
  EXPECT_EQ(m.at(1).val, 'b');
  EXPECT_EQ(m.at(2).seq, 50u);
  EXPECT_TRUE(m.contains(30));
  EXPECT_FALSE(m.contains(31));
  m.pop_front();
  EXPECT_EQ(m.front().seq, 30u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SeqFlatMapTest, RandomizedAgainstMapReference) {
  // Every mutation the simulator uses — random inserts (with duplicates,
  // front and interior positions), appends, front pops and cumulative
  // sweeps — mirrored into a std::map. Growth and shrink phases alternate
  // so front pops run far past the compaction threshold (16) while records
  // are still live, and the window also drains to empty between phases.
  std::mt19937_64 rng{7};
  SeqFlatMap<int> m;
  std::map<std::uint64_t, int> ref;
  std::uint64_t base = 0;
  int front_pops = 0;
  int interior_inserts = 0;
  for (int round = 0; round < 6000; ++round) {
    const bool growing = (round / 300) % 2 == 0;
    const auto op = rng() % 10;
    const unsigned insert_below = growing ? 4 : 2;
    const unsigned push_below = growing ? 8 : 3;
    const unsigned pop_below = growing ? 9 : 8;
    const int val = static_cast<int>(rng() % 1000);
    if (ref.empty()) {
      m.push_back(base, val);
      ref.emplace(base, val);
    } else if (op < insert_below) {
      const std::uint64_t lo = ref.begin()->first;
      const std::uint64_t seq = lo + rng() % (3 * ref.size() + 8);
      if (!ref.contains(seq) && seq > lo && seq < ref.rbegin()->first) ++interior_inserts;
      m.insert(seq, val);
      ref.emplace(seq, val);
    } else if (op < push_below) {
      const std::uint64_t seq = ref.rbegin()->first + 1 + rng() % 5;
      m.push_back(seq, val);
      ref.emplace(seq, val);
    } else if (op < pop_below) {
      m.pop_front();
      ref.erase(ref.begin());
      ++front_pops;
    } else {
      const std::uint64_t seq = ref.begin()->first + rng() % 12;
      m.erase_below(seq);
      ref.erase(ref.begin(), ref.lower_bound(seq));
    }
    if (!ref.empty()) base = ref.rbegin()->first + 1;
    ASSERT_EQ(m.size(), ref.size()) << "round " << round;
    if (round % 50 == 0 || ref.size() < 4) {
      std::size_t i = 0;
      for (const auto& [seq, v] : ref) {
        ASSERT_EQ(m.at(i).seq, seq) << "round " << round;
        ASSERT_EQ(m.at(i).val, v) << "round " << round;
        ++i;
      }
    }
  }
  EXPECT_GT(front_pops, 1000);
  EXPECT_GT(interior_inserts, 100);
  std::size_t i = 0;
  for (const auto& [seq, val] : ref) {
    EXPECT_EQ(m.at(i).seq, seq);
    EXPECT_EQ(m.at(i).val, val);
    ++i;
  }
}

}  // namespace
}  // namespace mpr::sim
