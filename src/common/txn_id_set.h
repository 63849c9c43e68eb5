#ifndef GTPL_COMMON_TXN_ID_SET_H_
#define GTPL_COMMON_TXN_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace gtpl {

/// A set of transaction ids stored as one bit per id.
///
/// Engines hand out ids from 1 upwards and never reuse them, so the ids a
/// run ever aborts fit in a bitmap as long as the largest id: a few kB per
/// run, where a hash set of the same ids takes ~50 bytes per member. Use it
/// for sets that only grow and are only queried, such as "ids already
/// aborted".
class TxnIdSet {
 public:
  /// Adds `txn` (>= 0). Returns true iff it was not a member yet.
  bool Insert(TxnId txn) {
    GTPL_CHECK_GE(txn, 0);
    const size_t word = static_cast<size_t>(txn) / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const uint64_t bit = uint64_t{1} << (static_cast<uint64_t>(txn) % 64);
    const bool fresh = (words_[word] & bit) == 0;
    words_[word] |= bit;
    return fresh;
  }

  bool Contains(TxnId txn) const {
    if (txn < 0) return false;
    const size_t word = static_cast<size_t>(txn) / 64;
    return word < words_.size() &&
           ((words_[word] >> (static_cast<uint64_t>(txn) % 64)) & 1) != 0;
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace gtpl

#endif  // GTPL_COMMON_TXN_ID_SET_H_
