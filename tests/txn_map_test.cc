// Unit tests for TxnMap, the flat open-addressing map keyed by transaction
// id: a randomized differential test against std::unordered_map, and the
// corner cases of identity hashing with linear probing (wrap-around,
// congruent ids, the reserved empty key).

#include "common/txn_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rng/rng.h"

namespace gtpl {
namespace {

// Every key of `reference` maps to its value in `map`, and `absent` keys
// are missing from both.
template <typename V>
void ExpectSame(const TxnMap<V>& map,
                const std::unordered_map<TxnId, V>& reference,
                const std::vector<TxnId>& absent = {}) {
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [txn, value] : reference) {
    const V* found = map.Find(txn);
    ASSERT_NE(found, nullptr) << txn;
    ASSERT_EQ(*found, value) << txn;
  }
  for (TxnId txn : absent) {
    if (reference.count(txn) == 0) {
      ASSERT_FALSE(map.Contains(txn)) << txn;
    }
  }
}

TEST(TxnMapTest, StartsEmpty) {
  TxnMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_FALSE(map.Erase(1));
}

TEST(TxnMapTest, InsertFindErase) {
  TxnMap<int> map;
  auto [value, inserted] = map.TryEmplace(7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 0);  // value-initialized
  *value = 70;
  EXPECT_FALSE(map.TryEmplace(7).second);
  EXPECT_EQ(map[7], 70);
  map[8] = 80;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_FALSE(map.Contains(7));
  EXPECT_EQ(*map.Find(8), 80);
  EXPECT_EQ(map.size(), 1u);
}

// Random inserts, updates, erases and lookups, mirrored on
// std::unordered_map. Ids come from a window that slides upwards, as live
// transactions do, plus long-lived stragglers and negative ids; the live
// set grows past several doublings and shrinks again.
TEST(TxnMapTest, MatchesUnorderedMap) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    rng::Rng rng(seed);
    TxnMap<int64_t> map;
    std::unordered_map<TxnId, int64_t> reference;
    std::vector<TxnId> probes;
    TxnId base = 1;
    for (int step = 0; step < 30000; ++step) {
      const int64_t phase = step < 15000 ? 900 : 40;  // live-set size
      TxnId txn = base + rng.UniformInt(0, phase);
      if (rng.Bernoulli(0.02)) txn = rng.UniformInt(1, base);  // straggler
      if (rng.Bernoulli(0.01)) txn = -rng.UniformInt(2, 1000);  // negative
      if (rng.Bernoulli(0.01)) ++base;
      const int64_t op = rng.UniformInt(0, 9);
      if (op < 4) {
        const auto [value, inserted] = map.TryEmplace(txn);
        const auto [it, ref_inserted] = reference.try_emplace(txn, 0);
        ASSERT_EQ(inserted, ref_inserted) << txn;
        *value += step;
        it->second += step;
      } else if (op < 8) {
        ASSERT_EQ(map.Erase(txn), reference.erase(txn) > 0) << txn;
      } else {
        const int64_t* found = map.Find(txn);
        auto it = reference.find(txn);
        ASSERT_EQ(found != nullptr, it != reference.end()) << txn;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << txn;
        }
      }
      probes.push_back(txn);
      if (step % 1000 == 999) {
        ExpectSame(map, reference, probes);
        probes.clear();
      }
    }
    ExpectSame(map, reference);
  }
}

// The initial table has 16 slots. Inserted in this order, the cluster
// wraps: 15 -> slot 15, 16 -> slot 0 (its home), 31 and 47 (home 15) ->
// slots 1 and 2, 1 -> slot 3. Erasing 15 must keep 16 in its home slot
// across the wrap while pulling 31 back over it into slot 15, and shift the
// rest down by one.
TEST(TxnMapTest, BackwardShiftEraseAcrossWrapAround) {
  constexpr TxnId kCapacity = 16;
  TxnMap<std::string> map;
  const std::vector<TxnId> cluster{15, kCapacity, 15 + kCapacity,
                                   15 + 2 * kCapacity, 1};
  std::unordered_map<TxnId, std::string> reference;
  for (TxnId txn : cluster) {
    map[txn] = "v" + std::to_string(txn);
    reference[txn] = "v" + std::to_string(txn);
  }
  // Erase from the head, the middle and the tail of the cluster.
  for (TxnId txn : {TxnId{15}, TxnId{15 + 2 * kCapacity}, TxnId{1}}) {
    ASSERT_TRUE(map.Erase(txn)) << txn;
    reference.erase(txn);
    ExpectSame(map, reference, cluster);
  }
  // Re-inserting fills the holes the shifts left behind.
  for (TxnId txn : {TxnId{1}, TxnId{15}, TxnId{14}}) {
    map[txn] = "w" + std::to_string(txn);
    reference[txn] = "w" + std::to_string(txn);
    ExpectSame(map, reference, cluster);
  }
}

// Ids congruent modulo the capacity all share one home slot; ids that are
// multiples of a large power of two stay congruent after every doubling.
TEST(TxnMapTest, CongruentIds) {
  for (TxnId stride : {TxnId{16}, TxnId{1} << 20}) {
    SCOPED_TRACE(stride);
    TxnMap<TxnId> map;
    std::unordered_map<TxnId, TxnId> reference;
    for (TxnId k = 1; k <= 40; ++k) {  // grows 16 -> 32 -> 64 -> 128
      map[k * stride + 3] = k;
      reference[k * stride + 3] = k;
    }
    ExpectSame(map, reference);
    // Erase every third, then the rest in reverse insertion order.
    for (TxnId k = 1; k <= 40; k += 3) {
      ASSERT_TRUE(map.Erase(k * stride + 3));
      reference.erase(k * stride + 3);
      ExpectSame(map, reference, {k * stride + 3, (k + 1) * stride});
    }
    for (TxnId k = 40; k >= 1; --k) {
      map.Erase(k * stride + 3);
      reference.erase(k * stride + 3);
      ExpectSame(map, reference);
    }
    EXPECT_TRUE(map.empty());
  }
}

// Values move when the table grows and when erase shifts a cluster back;
// they must arrive intact.
TEST(TxnMapTest, ValuesSurviveGrowthAndShifts) {
  TxnMap<std::vector<int>> map;
  for (TxnId txn = 1; txn <= 100; ++txn) {
    for (int i = 0; i < 3; ++i) map[txn].push_back(static_cast<int>(txn) + i);
  }
  for (TxnId txn = 1; txn <= 100; txn += 2) ASSERT_TRUE(map.Erase(txn));
  EXPECT_EQ(map.size(), 50u);
  for (TxnId txn = 2; txn <= 100; txn += 2) {
    const std::vector<int>* value = map.Find(txn);
    ASSERT_NE(value, nullptr) << txn;
    const int base = static_cast<int>(txn);
    EXPECT_EQ(*value, (std::vector<int>{base, base + 1, base + 2})) << txn;
  }
}

TEST(TxnMapTest, SetOperations) {
  TxnSet set;
  EXPECT_TRUE(set.Insert(5));
  EXPECT_FALSE(set.Insert(5));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(6));
  EXPECT_TRUE(set.Erase(5));
  EXPECT_FALSE(set.Contains(5));
  EXPECT_TRUE(set.empty());
}

// kInvalidTxn marks empty slots: it is never found, and inserting it is a
// checked error.
TEST(TxnMapTest, RejectsInvalidTxn) {
  TxnMap<int> map;
  map[1] = 1;
  EXPECT_FALSE(map.Contains(kInvalidTxn));
  EXPECT_EQ(map.Find(kInvalidTxn), nullptr);
  EXPECT_FALSE(map.Erase(kInvalidTxn));
  EXPECT_DEATH(map[kInvalidTxn] = 2, "kInvalidTxn marks empty slots");
  EXPECT_DEATH(map.TryEmplace(kInvalidTxn), "kInvalidTxn");
  TxnSet set;
  EXPECT_DEATH(set.Insert(kInvalidTxn), "kInvalidTxn");
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace gtpl
