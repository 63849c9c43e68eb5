// Unit tests for TxnIdSet, the one-bit-per-id set of transaction ids.

#include "common/txn_id_set.h"

#include <gtest/gtest.h>

#include <set>

#include "rng/rng.h"

namespace gtpl {
namespace {

TEST(TxnIdSetTest, InsertReportsNewMembersOnly) {
  TxnIdSet set;
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_TRUE(set.Insert(63));
  EXPECT_TRUE(set.Insert(64));  // first bit of the second word
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(63));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(65));
  EXPECT_FALSE(set.Contains(1'000'000));  // beyond the stored words
  EXPECT_FALSE(set.Contains(kInvalidTxn));
}

TEST(TxnIdSetTest, MatchesStdSet) {
  rng::Rng rng(11);
  TxnIdSet set;
  std::set<TxnId> reference;
  for (int step = 0; step < 20000; ++step) {
    const TxnId txn = rng.UniformInt(0, 5000);
    if (rng.Bernoulli(0.5)) {
      ASSERT_EQ(set.Insert(txn), reference.insert(txn).second) << txn;
    } else {
      ASSERT_EQ(set.Contains(txn), reference.count(txn) > 0) << txn;
    }
  }
}

}  // namespace
}  // namespace gtpl
