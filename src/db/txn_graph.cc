#include "db/txn_graph.h"

#include <algorithm>

#include "common/check.h"

namespace gtpl::db {

TxnGraph::Slot TxnGraph::Find(TxnId txn) const {
  const Slot* slot = slot_of_.Find(txn);
  return slot == nullptr ? kNoSlot : *slot;
}

TxnGraph::Slot TxnGraph::FindOrAdd(TxnId txn) {
  auto [mapped, inserted] = slot_of_.TryEmplace(txn);
  if (!inserted) return *mapped;
  Slot slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<Slot>(nodes_.size());
    nodes_.emplace_back();
    visited_.push_back(0);
    candidate_.push_back(0);
  }
  nodes_[slot].txn = txn;
  *mapped = slot;
  return slot;
}

void TxnGraph::ReleaseIfIsolated(Slot slot) {
  Node& node = nodes_[slot];
  if (!node.out.empty() || !node.in.empty()) return;
  slot_of_.Erase(node.txn);
  node.txn = kInvalidTxn;
  free_.push_back(slot);  // the edge vectors keep their capacity for reuse
}

bool TxnGraph::AddEdge(TxnId a, TxnId b, Kinds kinds) {
  GTPL_CHECK_NE(a, b);
  const Slot sa = FindOrAdd(a);
  const Slot sb = FindOrAdd(b);
  return AddEdgeAt(sa, sb, kinds);
}

bool TxnGraph::AddEdgeAt(Slot a, Slot b, Kinds kinds) {
  GTPL_CHECK_NE(kinds, 0);
  for (Edge& edge : nodes_[a].out) {
    if (edge.to == b) {
      edge.kinds |= kinds;
      return false;
    }
  }
  nodes_[a].out.push_back(Edge{b, kinds});
  nodes_[b].in.push_back(a);
  ++num_edges_;
  return true;
}

TxnGraph::Kinds TxnGraph::EdgeKinds(TxnId a, TxnId b) const {
  const Slot sa = Find(a);
  const Slot sb = Find(b);
  if (sa == kNoSlot || sb == kNoSlot) return 0;
  for (const Edge& edge : nodes_[sa].out) {
    if (edge.to == sb) return edge.kinds;
  }
  return 0;
}

void TxnGraph::UnlinkEdge(Slot a, Slot b) {
  std::vector<Edge>& out = nodes_[a].out;
  auto edge = std::find_if(out.begin(), out.end(),
                           [b](const Edge& e) { return e.to == b; });
  GTPL_CHECK(edge != out.end());
  out.erase(edge);
  std::vector<Slot>& in = nodes_[b].in;
  auto source = std::find(in.begin(), in.end(), a);
  GTPL_CHECK(source != in.end());
  *source = in.back();  // in-sources are unordered
  in.pop_back();
  --num_edges_;
}

void TxnGraph::ReplaceKindInto(TxnId txn, Kinds kind, Kinds replacement) {
  const Slot slot = Find(txn);
  if (slot == kNoSlot) return;
  std::vector<Slot>& in = nodes_[slot].in;
  for (size_t i = 0; i < in.size();) {
    const Slot from = in[i];
    std::vector<Edge>& out = nodes_[from].out;
    auto edge = std::find_if(out.begin(), out.end(),
                             [slot](const Edge& e) { return e.to == slot; });
    GTPL_CHECK(edge != out.end());
    if ((edge->kinds & kind) != 0) {
      edge->kinds = static_cast<Kinds>((edge->kinds & ~kind) | replacement);
    }
    if (edge->kinds != 0) {
      ++i;
      continue;
    }
    UnlinkEdge(from, slot);  // moves the last in-source to index i
    ReleaseIfIsolated(from);
  }
  ReleaseIfIsolated(slot);
}

void TxnGraph::Contract(TxnId txn, Kinds through) {
  const Slot slot = Find(txn);
  if (slot == kNoSlot) return;
  bridge_sources_.clear();
  for (Slot from : nodes_[slot].in) {
    for (const Edge& edge : nodes_[from].out) {
      if (edge.to == slot && (edge.kinds & through) != 0) {
        bridge_sources_.push_back(from);
      }
    }
  }
  bridge_targets_ = nodes_[slot].out;
  for (Slot from : bridge_sources_) {
    for (const Edge& edge : bridge_targets_) {
      if (from != edge.to) AddEdgeAt(from, edge.to, edge.kinds);
    }
  }
  RemoveAt(slot);
}

void TxnGraph::RemoveOutEdges(TxnId txn) {
  const Slot slot = Find(txn);
  if (slot == kNoSlot) return;
  DropOutEdges(slot);
  ReleaseIfIsolated(slot);
}

void TxnGraph::DropOutEdges(Slot slot) {
  std::vector<Edge>& out = nodes_[slot].out;
  while (!out.empty()) {
    const Slot to = out.back().to;
    UnlinkEdge(slot, to);
    ReleaseIfIsolated(to);
  }
}

void TxnGraph::RemoveTxn(TxnId txn) {
  const Slot slot = Find(txn);
  if (slot != kNoSlot) RemoveAt(slot);
}

void TxnGraph::RemoveAt(Slot slot) {
  DropOutEdges(slot);
  std::vector<Slot>& in = nodes_[slot].in;
  while (!in.empty()) {
    const Slot from = in.back();
    UnlinkEdge(from, slot);
    ReleaseIfIsolated(from);
  }
  ReleaseIfIsolated(slot);
}

uint32_t TxnGraph::NextEpoch() const {
  if (++epoch_ == 0) {
    // Wrapped: stale stamps could match the new epochs, so clear them all.
    std::fill(visited_.begin(), visited_.end(), 0);
    std::fill(candidate_.begin(), candidate_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

bool TxnGraph::CanReach(TxnId from, TxnId to) const {
  if (from == to) return true;
  const Slot source = Find(from);
  const Slot target = Find(to);
  if (source == kNoSlot || target == kNoSlot) return false;
  const uint32_t epoch = NextEpoch();
  visited_[source] = epoch;
  stack_.assign(1, source);
  while (!stack_.empty()) {
    const Slot node = stack_.back();
    stack_.pop_back();
    for (const Edge& edge : nodes_[node].out) {
      if (edge.to == target) return true;
      if (visited_[edge.to] != epoch) {
        visited_[edge.to] = epoch;
        stack_.push_back(edge.to);
      }
    }
  }
  return false;
}

std::vector<TxnId> TxnGraph::CycleThrough(TxnId start) const {
  const Slot origin = Find(start);
  // A cycle through `start` ends in an edge into it: without in-edges there
  // is none, and the search below would only walk the reachable set.
  if (origin == kNoSlot || nodes_[origin].in.empty()) return {};
  const uint32_t epoch = NextEpoch();
  visited_[origin] = epoch;
  // path_ is the current DFS path from `start`; each entry remembers which
  // out-edge to follow next, so a back edge to `start` closes the cycle
  // formed by the path itself.
  path_.assign(1, {origin, 0});
  while (!path_.empty()) {
    auto& [node, next] = path_.back();
    const std::vector<Edge>& out = nodes_[node].out;
    if (next == out.size()) {
      path_.pop_back();
      continue;
    }
    const Slot to = out[next++].to;
    if (to == origin) {
      std::vector<TxnId> cycle;
      cycle.reserve(path_.size());
      for (const auto& [slot, unused] : path_) cycle.push_back(nodes_[slot].txn);
      return cycle;
    }
    if (visited_[to] != epoch) {
      visited_[to] = epoch;
      path_.emplace_back(to, 0);
    }
  }
  return {};
}

std::vector<TxnId> TxnGraph::OutTargets(TxnId txn) const {
  std::vector<TxnId> targets;
  const Slot slot = Find(txn);
  if (slot == kNoSlot) return targets;
  targets.reserve(nodes_[slot].out.size());
  for (const Edge& edge : nodes_[slot].out) {
    targets.push_back(nodes_[edge.to].txn);
  }
  return targets;
}

int32_t TxnGraph::OutDegree(TxnId txn) const {
  const Slot slot = Find(txn);
  return slot == kNoSlot ? 0 : static_cast<int32_t>(nodes_[slot].out.size());
}

bool TxnGraph::HasInEdges(TxnId txn) const {
  const Slot slot = Find(txn);
  return slot != kNoSlot && !nodes_[slot].in.empty();
}

bool TxnGraph::IsAcyclic() const {
  // Kahn's algorithm over the live slots.
  std::vector<size_t> degree(nodes_.size(), 0);
  std::vector<Slot> ready;
  for (Slot slot = 0; slot < nodes_.size(); ++slot) {
    if (nodes_[slot].txn == kInvalidTxn) continue;
    degree[slot] = nodes_[slot].in.size();
    if (degree[slot] == 0) ready.push_back(slot);
  }
  size_t removed = 0;
  while (!ready.empty()) {
    const Slot slot = ready.back();
    ready.pop_back();
    ++removed;
    for (const Edge& edge : nodes_[slot].out) {
      if (--degree[edge.to] == 0) ready.push_back(edge.to);
    }
  }
  return removed == slot_of_.size();
}

}  // namespace gtpl::db
