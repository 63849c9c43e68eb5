#ifndef GTPL_DB_TXN_GRAPH_H_
#define GTPL_DB_TXN_GRAPH_H_

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/txn_map.h"
#include "common/types.h"

namespace gtpl::db {

/// Directed graph over transactions with dense storage: the one substrate
/// under both the g-2PL precedence graph (core::PrecedenceGraph) and the
/// s-2PL waits-for graph (WaitsForGraph).
///
/// A transaction gets a dense slot when its first edge appears and gives it
/// back (to a free list) when its last edge goes, so memory is bounded by
/// the live transactions, not by run length. Each slot keeps its
/// out-edges, as (target slot, kind bitmask) pairs in insertion order, and
/// the slots of its in-edge sources. An edge exists while any kind bit is
/// set. Traversals mark slots with epoch stamps and reuse one scratch
/// stack, so a query allocates nothing but the vector it returns. Because
/// const queries write that scratch state, one graph must not be used from
/// two threads at once (each simulation owns its graphs).
///
/// Every traversal visits out-edges in insertion order, so results that
/// depend on traversal order (CycleThrough's path) are a function of the
/// sequence of mutations alone.
class TxnGraph {
 public:
  using Kinds = uint8_t;

  TxnGraph() = default;

  /// Adds `kinds` to edge a -> b, creating the edge (and either node) as
  /// needed; a new edge goes to the end of a's out-edges. Returns true iff
  /// the edge is new. Requires a != b and kinds != 0.
  bool AddEdge(TxnId a, TxnId b, Kinds kinds);

  /// Kind bits of edge a -> b; 0 when there is no such edge.
  Kinds EdgeKinds(TxnId a, TxnId b) const;

  /// For every edge into `txn` that carries `kind`, replaces that bit with
  /// `replacement` (0 drops it). Edges left without kinds are removed.
  void ReplaceKindInto(TxnId txn, Kinds kind, Kinds replacement);

  /// Bridges every in-source whose edge into `txn` carries `through` to
  /// every out-target of `txn`, adding the out-edge's kinds, then removes
  /// `txn`. Reachability among the remaining nodes is unchanged along
  /// `through`-carrying in-edges.
  void Contract(TxnId txn, Kinds through);

  /// Removes `txn`'s outgoing edges; edges into it stay.
  void RemoveOutEdges(TxnId txn);

  /// Removes `txn` with every incident edge.
  void RemoveTxn(TxnId txn);

  /// True iff a path from `from` to `to` exists (from == to counts).
  bool CanReach(TxnId from, TxnId to) const;

  /// Members of `candidates` (any range of TxnIds; duplicates count once)
  /// reachable from `from` by a non-empty path, in depth-first discovery
  /// order. The search ends once every candidate with a node was found.
  /// (The default lets a braced list of ids stand for the range.)
  template <typename Range = std::initializer_list<TxnId>>
  std::vector<TxnId> ReachableAmong(TxnId from,
                                    const Range& candidates) const;

  /// One cycle through `start` as [start, n1, ..., nk] with nk -> start;
  /// empty when there is none. The search is depth-first and follows
  /// out-edges in insertion order, so the first cycle in that order wins.
  std::vector<TxnId> CycleThrough(TxnId start) const;

  /// Targets of `txn`'s out-edges, in insertion order.
  std::vector<TxnId> OutTargets(TxnId txn) const;

  int32_t OutDegree(TxnId txn) const;
  bool HasInEdges(TxnId txn) const;

  /// Exhaustive acyclicity check (O(V+E); for tests and debug assertions).
  bool IsAcyclic() const;

  int64_t num_edges() const { return num_edges_; }
  /// Transactions with at least one incident edge.
  size_t num_nodes() const { return slot_of_.size(); }
  /// Slots ever allocated (live plus free); slots are reused after removal.
  size_t num_slots() const { return nodes_.size(); }

  /// Sets the traversal epoch, so tests can drive it across its wrap.
  void set_epoch_for_testing(uint32_t epoch) { epoch_ = epoch; }

 private:
  using Slot = uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  struct Edge {
    Slot to;
    Kinds kinds;
  };
  struct Node {
    TxnId txn = kInvalidTxn;  // kInvalidTxn while the slot is free
    std::vector<Edge> out;
    std::vector<Slot> in;
  };

  Slot Find(TxnId txn) const;
  Slot FindOrAdd(TxnId txn);
  /// Returns the slot to the free list once it has no edges left.
  void ReleaseIfIsolated(Slot slot);
  bool AddEdgeAt(Slot a, Slot b, Kinds kinds);
  /// Drops edge a -> b from a's out-edges (keeping their order) and a from
  /// b's in-sources. Does not release either slot.
  void UnlinkEdge(Slot a, Slot b);
  /// Removes every out-edge of `slot`, releasing targets left isolated.
  void DropOutEdges(Slot slot);
  void RemoveAt(Slot slot);
  /// Starts a traversal: a fresh stamp no slot carries yet.
  uint32_t NextEpoch() const;

  TxnMap<Slot> slot_of_;
  std::vector<Node> nodes_;
  std::vector<Slot> free_;
  int64_t num_edges_ = 0;

  // Traversal state, reused across calls. A slot is visited (or a
  // candidate) in the current traversal iff its stamp equals epoch_.
  mutable uint32_t epoch_ = 0;
  mutable std::vector<uint32_t> visited_;
  mutable std::vector<uint32_t> candidate_;
  mutable std::vector<Slot> stack_;
  mutable std::vector<std::pair<Slot, uint32_t>> path_;  // (slot, next edge)
  std::vector<Edge> bridge_targets_;
  std::vector<Slot> bridge_sources_;
};

template <typename Range>
std::vector<TxnId> TxnGraph::ReachableAmong(TxnId from,
                                            const Range& candidates) const {
  std::vector<TxnId> hits;
  const Slot source = Find(from);
  if (source == kNoSlot || nodes_[source].out.empty()) return hits;
  const uint32_t epoch = NextEpoch();
  size_t remaining = 0;  // stamped candidates not found yet
  for (TxnId candidate : candidates) {
    const Slot slot = Find(candidate);
    if (slot == kNoSlot || slot == source || candidate_[slot] == epoch) {
      continue;
    }
    candidate_[slot] = epoch;
    ++remaining;
  }
  if (remaining == 0) return hits;
  visited_[source] = epoch;
  stack_.assign(1, source);
  while (!stack_.empty()) {
    const Slot node = stack_.back();
    stack_.pop_back();
    for (const Edge& edge : nodes_[node].out) {
      if (visited_[edge.to] == epoch) continue;
      visited_[edge.to] = epoch;
      if (candidate_[edge.to] == epoch) {
        hits.push_back(nodes_[edge.to].txn);
        if (--remaining == 0) return hits;
      }
      stack_.push_back(edge.to);
    }
  }
  return hits;
}

}  // namespace gtpl::db

#endif  // GTPL_DB_TXN_GRAPH_H_
