#include "core/precedence_graph.h"

#include <algorithm>

#include "common/check.h"

namespace gtpl::core {

void PrecedenceGraph::AddEdge(TxnId a, TxnId b, EdgeKind kind) {
  graph_.AddEdge(a, b, kind);
}

std::vector<TxnId> PrecedenceGraph::ReachableAmong(
    TxnId from, const std::unordered_set<TxnId>& candidates) const {
  return graph_.ReachableAmong(from, candidates);
}

std::vector<TxnId> PrecedenceGraph::ReachableAmong(
    TxnId from, std::span<const TxnId> candidates) const {
  return graph_.ReachableAmong(from, candidates);
}

void PrecedenceGraph::RemoveRequestEdgesInto(TxnId txn) {
  graph_.ReplaceKindInto(txn, kRequestEdge, 0);
}

void PrecedenceGraph::PromoteRequestEdgesInto(TxnId txn) {
  graph_.ReplaceKindInto(txn, kRequestEdge, kStructuralEdge);
}

void PrecedenceGraph::Contract(TxnId txn) {
  // Structural in-sources are the transactions whose forwarding still gates
  // the contracted transaction's pass-through slots.
  graph_.Contract(txn, kStructuralEdge);
}

void PrecedenceGraph::RemoveTxn(TxnId txn) { graph_.RemoveTxn(txn); }

std::vector<TxnId> PrecedenceGraph::ConsistentOrder(
    const std::vector<TxnId>& txns) const {
  const size_t n = txns.size();
  if (n <= 1) return txns;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      GTPL_CHECK_NE(txns[i], txns[j]) << "duplicate txns in batch";
    }
  }
  // Constraints are global paths (they may run through transactions outside
  // the batch), so reachability is queried on the full graph.
  std::vector<std::vector<size_t>> succs(n);
  std::vector<int32_t> pending_preds(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (TxnId target : graph_.ReachableAmong(txns[i], txns)) {
      const auto j = static_cast<size_t>(
          std::find(txns.begin(), txns.end(), target) - txns.begin());
      succs[i].push_back(j);
      ++pending_preds[j];
    }
  }
  // Kahn's algorithm; among ready nodes pick the smallest input index (FIFO
  // or pre-sorted preference). Batches are capped small, so O(n^2) is fine.
  std::vector<TxnId> order;
  order.reserve(n);
  std::vector<bool> done(n, false);
  for (size_t step = 0; step < n; ++step) {
    size_t pick = n;
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && pending_preds[i] == 0) {
        pick = i;
        break;
      }
    }
    GTPL_CHECK_LT(pick, n) << "precedence cycle within batch";
    done[pick] = true;
    order.push_back(txns[pick]);
    for (size_t j : succs[pick]) --pending_preds[j];
  }
  return order;
}

}  // namespace gtpl::core
