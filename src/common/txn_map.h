#ifndef GTPL_COMMON_TXN_MAP_H_
#define GTPL_COMMON_TXN_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace gtpl {

/// A map from live transaction ids to per-transaction state, stored flat.
///
/// Engines hand out ids densely from 1 upwards, and the transactions alive
/// at any moment form a narrow sliding window of them. So the id itself is
/// the hash: open addressing with identity hashing over a power-of-two
/// table puts a window narrower than the table into distinct slots, and
/// linear probing resolves the rest. Erase shifts the following cluster
/// back (no tombstones), so lookups stay short however long the run. The
/// empty slot's key is kInvalidTxn, which is therefore not a valid key.
///
/// The map has no iteration API on purpose: its slot order depends on the
/// capacity and the insert/erase history, so nothing a simulation decides
/// may ever follow it. Keep ordered state elsewhere.
///
/// Inserting a new key (TryEmplace, operator[], Insert) and Erase move
/// entries: every pointer or reference into the map is invalid after
/// either. Look the value up again afterwards.
template <typename V>
class TxnMap {
 public:
  TxnMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Value of `txn`, or nullptr when absent.
  V* Find(TxnId txn) {
    return const_cast<V*>(static_cast<const TxnMap&>(*this).Find(txn));
  }
  const V* Find(TxnId txn) const {
    if (slots_.empty()) return nullptr;
    // kInvalidTxn stops at the first empty slot, so it is never found.
    for (size_t i = Home(txn); slots_[i].key != kInvalidTxn;
         i = (i + 1) & mask_) {
      if (slots_[i].key == txn) return &slots_[i].value;
    }
    return nullptr;
  }

  bool Contains(TxnId txn) const { return Find(txn) != nullptr; }

  /// Value of `txn`, value-initialized first if absent; `second` is true
  /// iff it was inserted.
  std::pair<V*, bool> TryEmplace(TxnId txn) {
    GTPL_CHECK_NE(txn, kInvalidTxn) << "kInvalidTxn marks empty slots";
    if (V* value = Find(txn)) return {value, false};
    // At most half full, so probes stay short and an empty slot exists.
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t i = Home(txn);
    while (slots_[i].key != kInvalidTxn) i = (i + 1) & mask_;
    slots_[i].key = txn;
    ++size_;
    return {&slots_[i].value, true};
  }

  V& operator[](TxnId txn) { return *TryEmplace(txn).first; }

  /// Adds `txn` with a value-initialized value; returns true iff it was
  /// absent (the set operation of TxnSet).
  bool Insert(TxnId txn) { return TryEmplace(txn).second; }

  /// Removes `txn`; returns true iff it was present.
  bool Erase(TxnId txn) {
    if (slots_.empty() || txn == kInvalidTxn) return false;
    size_t hole = Home(txn);
    while (slots_[hole].key != txn) {
      if (slots_[hole].key == kInvalidTxn) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull each later entry of the cluster into the hole
    // unless its home lies cyclically in (hole, next], where it must stay.
    for (size_t next = (hole + 1) & mask_; slots_[next].key != kInvalidTxn;
         next = (next + 1) & mask_) {
      const size_t home = Home(slots_[next].key);
      const bool stays = hole < next ? (hole < home && home <= next)
                                     : (hole < home || home <= next);
      if (stays) continue;
      slots_[hole] = std::move(slots_[next]);
      hole = next;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    TxnId key = kInvalidTxn;
    V value{};
  };

  static constexpr size_t kInitialCapacity = 16;

  size_t Home(TxnId txn) const {
    return static_cast<size_t>(static_cast<uint64_t>(txn)) & mask_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity =
        old.empty() ? kInitialCapacity : old.size() * 2;
    slots_ = std::vector<Slot>(capacity);
    mask_ = capacity - 1;
    for (Slot& slot : old) {
      if (slot.key == kInvalidTxn) continue;
      size_t i = Home(slot.key);
      while (slots_[i].key != kInvalidTxn) i = (i + 1) & mask_;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// A set of live transaction ids (Insert, Contains, Erase). Unlike the
/// grow-only TxnIdSet bitmap, its memory follows the live members.
using TxnSet = TxnMap<std::monostate>;

}  // namespace gtpl

#endif  // GTPL_COMMON_TXN_MAP_H_
