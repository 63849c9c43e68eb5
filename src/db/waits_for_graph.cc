#include "db/waits_for_graph.h"

namespace gtpl::db {

void WaitsForGraph::AddWaits(TxnId waiter,
                             const std::vector<TxnId>& holders) {
  for (TxnId holder : holders) {
    if (holder != waiter) graph_.AddEdge(waiter, holder, kWaits);
  }
}

void WaitsForGraph::RemoveTxn(TxnId txn) { graph_.RemoveTxn(txn); }

void WaitsForGraph::ClearWaits(TxnId txn) { graph_.RemoveOutEdges(txn); }

std::vector<TxnId> WaitsForGraph::CycleThrough(TxnId start) const {
  return graph_.CycleThrough(start);
}

}  // namespace gtpl::db
