#ifndef GTPL_DB_WAITS_FOR_GRAPH_H_
#define GTPL_DB_WAITS_FOR_GRAPH_H_

#include <vector>

#include "common/types.h"
#include "db/txn_graph.h"

namespace gtpl::db {

/// Waits-for graph for s-2PL deadlock detection.
///
/// Edge a -> b means "a waits for b". Following the paper (and commercial
/// practice), detection is initiated whenever a lock cannot be granted; the
/// caller then asks whether the new waiter closed a cycle and aborts it.
/// Storage and traversal are the shared db::TxnGraph.
class WaitsForGraph {
 public:
  WaitsForGraph() = default;

  /// Declares that `waiter` now waits for every transaction in `holders`
  /// (self-waits are ignored). New edges follow the existing ones, in
  /// `holders` order; that order is the order CycleThrough explores.
  void AddWaits(TxnId waiter, const std::vector<TxnId>& holders);

  /// Removes every edge in or out of `txn` (commit or abort).
  void RemoveTxn(TxnId txn);

  /// Removes only `txn`'s outgoing edges: its lock request was granted, so
  /// it waits for nobody, but others may still wait for it.
  void ClearWaits(TxnId txn);

  /// The transactions on one cycle through `start`, as [start, n1, ..., nk]
  /// where each waits for the next and nk waits for `start`; empty when
  /// there is no such cycle. Used to pick abort victims. The search is
  /// depth-first and follows each transaction's waits in the order they
  /// were added, so the first cycle in that order is the one returned.
  std::vector<TxnId> CycleThrough(TxnId start) const;

  /// Number of outgoing wait edges of `txn`.
  int32_t OutDegree(TxnId txn) const { return graph_.OutDegree(txn); }

  /// Transactions with at least one wait edge in or out.
  size_t num_nodes() const { return graph_.num_nodes(); }

 private:
  static constexpr TxnGraph::Kinds kWaits = 1;

  TxnGraph graph_;
};

}  // namespace gtpl::db

#endif  // GTPL_DB_WAITS_FOR_GRAPH_H_
