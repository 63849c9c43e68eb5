// Randomized differential tests of the dense transaction graph: seeded
// random operation sequences drive core::PrecedenceGraph and
// db::WaitsForGraph (both thin adapters over db::TxnGraph) side by side
// with naive std::map/std::set reference models, and every observable is
// compared after every operation. Transaction ids grow over time, as in a
// run, so removed transactions' slots are reused by new ones.

#include "db/txn_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/precedence_graph.h"
#include "db/waits_for_graph.h"
#include "rng/rng.h"

namespace gtpl {
namespace {

using Edges = std::map<std::pair<TxnId, TxnId>, uint8_t>;

std::set<TxnId> Successors(const Edges& edges, TxnId txn) {
  std::set<TxnId> out;
  for (const auto& [edge, kinds] : edges) {
    if (edge.first == txn) out.insert(edge.second);
  }
  return out;
}

/// Transactions reachable from `from` by a non-empty path.
std::set<TxnId> ReachableFrom(const Edges& edges, TxnId from) {
  std::set<TxnId> seen;
  std::vector<TxnId> frontier{from};
  while (!frontier.empty()) {
    const TxnId node = frontier.back();
    frontier.pop_back();
    for (TxnId next : Successors(edges, node)) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return seen;
}

std::set<TxnId> Nodes(const Edges& edges) {
  std::set<TxnId> nodes;
  for (const auto& [edge, kinds] : edges) {
    nodes.insert(edge.first);
    nodes.insert(edge.second);
  }
  return nodes;
}

bool Acyclic(const Edges& edges) {
  for (TxnId node : Nodes(edges)) {
    if (ReachableFrom(edges, node).count(node) > 0) return false;
  }
  return true;
}

void EraseTxn(Edges& edges, TxnId txn) {
  for (auto it = edges.begin(); it != edges.end();) {
    if (it->first.first == txn || it->first.second == txn) {
      it = edges.erase(it);
    } else {
      ++it;
    }
  }
}

/// The g-2PL precedence-graph rules, written out naively.
struct ReferencePrecedence {
  Edges edges;

  void AddEdge(TxnId a, TxnId b, uint8_t kind) { edges[{a, b}] |= kind; }

  void ReplaceRequestInto(TxnId txn, uint8_t replacement) {
    for (auto it = edges.begin(); it != edges.end();) {
      if (it->first.second == txn && (it->second & core::kRequestEdge) != 0) {
        it->second = static_cast<uint8_t>(
            (it->second & ~core::kRequestEdge) | replacement);
      }
      it = it->second == 0 ? edges.erase(it) : std::next(it);
    }
  }

  void Contract(TxnId txn) {
    std::vector<TxnId> sources;
    std::vector<std::pair<TxnId, uint8_t>> targets;
    for (const auto& [edge, kinds] : edges) {
      if (edge.second == txn && (kinds & core::kStructuralEdge) != 0) {
        sources.push_back(edge.first);
      }
      if (edge.first == txn) targets.emplace_back(edge.second, kinds);
    }
    for (TxnId from : sources) {
      for (const auto& [to, kinds] : targets) {
        if (from != to) edges[{from, to}] |= kinds;
      }
    }
    EraseTxn(edges, txn);
  }
};

template <typename T>
std::set<T> AsSet(const std::vector<T>& values) {
  return std::set<T>(values.begin(), values.end());
}

// Transaction ids live in a sliding window [base, base + kWindow): new ids
// enter at the top while the oldest is removed, so slots are recycled.
constexpr TxnId kWindow = 10;

void CheckPrecedence(const core::PrecedenceGraph& graph,
                     const ReferencePrecedence& ref, TxnId base,
                     rng::Rng& rng) {
  ASSERT_EQ(graph.num_edges(), static_cast<int64_t>(ref.edges.size()));
  ASSERT_EQ(graph.num_nodes(), Nodes(ref.edges).size());
  ASSERT_EQ(graph.IsAcyclic(), Acyclic(ref.edges));
  for (TxnId a = base - 2; a < base + kWindow; ++a) {
    const std::set<TxnId> reach = ReachableFrom(ref.edges, a);
    ASSERT_EQ(AsSet(graph.OutTargets(a)), Successors(ref.edges, a)) << a;
    bool has_in = false;
    for (const auto& [edge, kinds] : ref.edges) has_in |= edge.second == a;
    ASSERT_EQ(graph.HasInEdges(a), has_in) << a;
    std::unordered_set<TxnId> candidates;
    std::set<TxnId> expected_hits;
    for (TxnId b = base - 2; b < base + kWindow; ++b) {
      ASSERT_EQ(graph.CanReach(a, b), a == b || reach.count(b) > 0)
          << a << "->" << b;
      ASSERT_EQ(graph.HasEdge(a, b), ref.edges.count({a, b}) > 0);
      if (rng.Bernoulli(0.4)) {
        candidates.insert(b);
        if (b != a && reach.count(b) > 0) expected_hits.insert(b);
      }
    }
    const std::vector<TxnId> hits = graph.ReachableAmong(a, candidates);
    ASSERT_EQ(hits.size(), AsSet(hits).size()) << "duplicate hits from " << a;
    ASSERT_EQ(AsSet(hits), expected_hits) << "from " << a;
  }
}

TEST(TxnGraphDifferentialTest, PrecedenceGraphMatchesReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    rng::Rng rng(seed);
    core::PrecedenceGraph graph;
    ReferencePrecedence ref;
    TxnId base = 0;
    const auto pick = [&] { return base + rng.UniformInt(0, kWindow - 1); };
    for (int step = 0; step < 400; ++step) {
      const int64_t op = rng.UniformInt(0, 99);
      const TxnId txn = pick();
      if (op < 45) {
        const TxnId other = pick();
        if (other == txn) continue;
        const core::EdgeKind kind =
            rng.Bernoulli(0.5) ? core::kRequestEdge : core::kStructuralEdge;
        graph.AddEdge(txn, other, kind);
        ref.AddEdge(txn, other, kind);
      } else if (op < 58) {
        graph.RemoveRequestEdgesInto(txn);
        ref.ReplaceRequestInto(txn, 0);
      } else if (op < 71) {
        graph.PromoteRequestEdgesInto(txn);
        ref.ReplaceRequestInto(txn, core::kStructuralEdge);
      } else if (op < 81) {
        graph.Contract(txn);
        ref.Contract(txn);
      } else if (op < 88) {
        graph.RemoveTxn(txn);
        EraseTxn(ref.edges, txn);
      } else {
        // Retire the oldest id (contracted or removed) and admit a new one.
        if (rng.Bernoulli(0.5)) {
          graph.Contract(base);
          ref.Contract(base);
        } else {
          graph.RemoveTxn(base);
          EraseTxn(ref.edges, base);
        }
        ++base;
      }
      CheckPrecedence(graph, ref, base, rng);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(base, 20) << "ids must cycle through the window";
  }
}

/// Waits in insertion order, as the waits-for graph keeps them.
using Waits = std::map<TxnId, std::vector<TxnId>>;

Edges AsEdges(const Waits& waits) {
  Edges edges;
  for (const auto& [waiter, holders] : waits) {
    for (TxnId holder : holders) edges[{waiter, holder}] = 1;
  }
  return edges;
}

/// Depth-first search for a cycle through `start`, recursive, following
/// waits in insertion order.
bool FindCycle(const Waits& waits, TxnId node, TxnId start,
               std::set<TxnId>& visited, std::vector<TxnId>& path) {
  auto it = waits.find(node);
  if (it == waits.end()) return false;
  for (TxnId next : it->second) {
    if (next == start) return true;
    if (!visited.insert(next).second) continue;
    path.push_back(next);
    if (FindCycle(waits, next, start, visited, path)) return true;
    path.pop_back();
  }
  return false;
}

void CheckWaitsFor(const db::WaitsForGraph& wfg, const Waits& waits,
                   TxnId base) {
  const Edges edges = AsEdges(waits);
  ASSERT_EQ(wfg.num_nodes(), Nodes(edges).size());
  for (TxnId txn = base - 2; txn < base + kWindow; ++txn) {
    auto it = waits.find(txn);
    ASSERT_EQ(wfg.OutDegree(txn),
              it == waits.end() ? 0 : static_cast<int32_t>(it->second.size()));
    const std::vector<TxnId> cycle = wfg.CycleThrough(txn);
    if (ReachableFrom(edges, txn).count(txn) == 0) {
      ASSERT_TRUE(cycle.empty()) << "phantom cycle through " << txn;
      continue;
    }
    // A real cycle: starts at txn, distinct members, every hop a wait.
    ASSERT_FALSE(cycle.empty()) << "missed cycle through " << txn;
    ASSERT_EQ(cycle.front(), txn);
    ASSERT_EQ(AsSet(cycle).size(), cycle.size());
    for (size_t i = 0; i < cycle.size(); ++i) {
      const TxnId next = cycle[(i + 1) % cycle.size()];
      ASSERT_EQ(edges.count({cycle[i], next}), 1u)
          << cycle[i] << " does not wait for " << next;
    }
    // And the first one in wait-insertion order.
    std::set<TxnId> visited{txn};
    std::vector<TxnId> expected{txn};
    ASSERT_TRUE(FindCycle(waits, txn, txn, visited, expected));
    ASSERT_EQ(cycle, expected);
  }
}

TEST(TxnGraphDifferentialTest, WaitsForGraphMatchesReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    rng::Rng rng(seed);
    db::WaitsForGraph wfg;
    Waits waits;
    TxnId base = 0;
    const auto pick = [&] { return base + rng.UniformInt(0, kWindow - 1); };
    const auto remove = [&](TxnId txn) {
      wfg.RemoveTxn(txn);
      waits.erase(txn);
      for (auto it = waits.begin(); it != waits.end();) {
        std::erase(it->second, txn);
        it = it->second.empty() ? waits.erase(it) : std::next(it);
      }
    };
    for (int step = 0; step < 400; ++step) {
      const int64_t op = rng.UniformInt(0, 99);
      const TxnId txn = pick();
      if (op < 55) {
        std::vector<TxnId> holders;
        for (int64_t n = rng.UniformInt(1, 3); n > 0; --n) {
          holders.push_back(pick());  // may repeat, may name the waiter
        }
        wfg.AddWaits(txn, holders);
        for (TxnId holder : holders) {
          std::vector<TxnId>& out = waits[txn];
          if (holder != txn &&
              std::find(out.begin(), out.end(), holder) == out.end()) {
            out.push_back(holder);
          }
        }
        if (waits[txn].empty()) waits.erase(txn);
      } else if (op < 75) {
        wfg.ClearWaits(txn);
        waits.erase(txn);
      } else if (op < 88) {
        remove(txn);
      } else {
        remove(base);
        ++base;
      }
      CheckWaitsFor(wfg, waits, base);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(base, 20) << "ids must cycle through the window";
  }
}

// CycleThrough returns at once for a transaction nobody waits for. On
// random waits-for graphs, sparse enough that many transactions have no
// in-edges, every transaction's result must equal a full depth-first
// search that has no such early exit.
TEST(TxnGraphDifferentialTest, CycleThroughEarlyOutMatchesFullSearch) {
  int64_t without_in_edges = 0;
  int64_t with_in_edges = 0;
  int64_t cycles = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    rng::Rng rng(seed);
    db::WaitsForGraph wfg;
    Waits waits;
    const int64_t nodes = rng.UniformInt(2, 24);
    const int64_t edges = rng.UniformInt(1, 2 * nodes);
    for (int64_t e = 0; e < edges; ++e) {
      const TxnId waiter = 1 + rng.UniformInt(0, nodes - 1);
      const TxnId holder = 1 + rng.UniformInt(0, nodes - 1);
      wfg.AddWaits(waiter, {holder});
      std::vector<TxnId>& out = waits[waiter];
      if (holder != waiter &&
          std::find(out.begin(), out.end(), holder) == out.end()) {
        out.push_back(holder);
      }
      if (out.empty()) waits.erase(waiter);
    }
    std::set<TxnId> waited_for;
    for (const auto& [waiter, holders] : waits) {
      waited_for.insert(holders.begin(), holders.end());
    }
    for (TxnId txn = 1; txn <= nodes; ++txn) {
      std::set<TxnId> visited{txn};
      std::vector<TxnId> expected{txn};
      if (!FindCycle(waits, txn, txn, visited, expected)) expected.clear();
      ASSERT_EQ(wfg.CycleThrough(txn), expected) << "txn " << txn;
      (waited_for.count(txn) > 0 ? with_in_edges : without_in_edges) += 1;
      cycles += expected.empty() ? 0 : 1;
    }
  }
  // Both branches, and real cycles, were exercised.
  EXPECT_GT(without_in_edges, 500);
  EXPECT_GT(with_in_edges, 500);
  EXPECT_GT(cycles, 100);
}

TEST(TxnGraphTest, SlotsAreReusedAfterRemoval) {
  // A chain whose head is removed as its tail grows: ten thousand ids
  // pass through, but only a handful are ever live at once.
  db::TxnGraph graph;
  graph.AddEdge(0, 1, 1);
  graph.AddEdge(1, 2, 1);
  graph.AddEdge(2, 3, 1);
  for (TxnId txn = 4; txn <= 10000; ++txn) {
    graph.AddEdge(txn - 1, txn, 1);
    graph.RemoveTxn(txn - 4);
    ASSERT_TRUE(graph.CanReach(txn - 3, txn));
    ASSERT_FALSE(graph.CanReach(txn, txn - 1));
    ASSERT_FALSE(graph.CanReach(txn - 4, txn));
  }
  EXPECT_EQ(graph.num_nodes(), 4u);
  EXPECT_EQ(graph.num_edges(), 3);
  EXPECT_LE(graph.num_slots(), 5u);
  // Removing the last edges frees every slot.
  graph.RemoveTxn(9998);
  graph.RemoveOutEdges(9999);
  EXPECT_EQ(graph.num_nodes(), 0u);
  EXPECT_EQ(graph.num_edges(), 0);
}

TEST(TxnGraphTest, EpochWrapClearsStaleStamps) {
  // Traversals stamp slots with a 32-bit epoch. One full traversal stamps
  // every slot with epoch 1, and a slot added afterwards holds 0. The epoch
  // is then set to its maximum, so the next query wraps it; stamps from
  // before the wrap must not read as "visited" or "candidate" then. Each
  // round puts a different query kind first after the wrap.
  constexpr TxnId kRoot = 100;
  constexpr TxnId kLate = 50;  // joins after the first traversal
  constexpr TxnId kNodes = 16;
  std::unordered_set<TxnId> all{kLate};
  std::vector<TxnId> ring;
  for (TxnId txn = 0; txn < kNodes; ++txn) {
    all.insert(txn);
    ring.push_back(txn);
  }
  const std::set<TxnId> all_sorted(all.begin(), all.end());
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    db::TxnGraph graph;
    for (TxnId txn = 0; txn < kNodes; ++txn) {
      graph.AddEdge(kRoot, txn, 1);
      graph.AddEdge(txn, (txn + 1) % kNodes, 1);  // the ring 0 -> ... -> 0
    }
    ASSERT_EQ(graph.ReachableAmong(kRoot, all).size(),
              static_cast<size_t>(kNodes));
    graph.AddEdge(kRoot, kLate, 1);
    graph.set_epoch_for_testing(std::numeric_limits<uint32_t>::max());
    for (int i = 0; i < 8; ++i) {
      switch ((round + i) % 4) {
        case 0:
          EXPECT_EQ(AsSet(graph.ReachableAmong(kRoot, all)), all_sorted);
          break;
        case 1:
          EXPECT_EQ(graph.ReachableAmong(kRoot, {3}), std::vector<TxnId>{3});
          break;
        case 2:
          EXPECT_TRUE(graph.CanReach(0, kNodes - 1));
          break;
        default:
          EXPECT_EQ(graph.CycleThrough(0), ring);
      }
    }
  }
}

/// ReachableAmong's early exits (no candidate with a node; every stamped
/// candidate found) must not change its result: on random DAGs, the hits
/// equal a full depth-first search that visits out-edges in insertion
/// order and keeps the candidates it discovers, and their set equals an
/// exhaustive reachability search. Candidate lists mix in the source,
/// duplicates and ids without a node.
TEST(TxnGraphTest, ReachableAmongMatchesExhaustiveSearch) {
  constexpr TxnId kNodes = 24;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    rng::Rng rng(seed);
    db::TxnGraph graph;
    // Out-edges per node in insertion order (the graph's traversal order).
    std::map<TxnId, std::vector<TxnId>> out;
    Edges edges;
    const int num_edges = static_cast<int>(rng.UniformInt(0, 60));
    for (int e = 0; e < num_edges; ++e) {
      const TxnId a = rng.UniformInt(1, kNodes - 1);
      const TxnId b = rng.UniformInt(a + 1, kNodes);  // a < b: acyclic
      if (graph.AddEdge(a, b, 1)) out[a].push_back(b);
      edges[{a, b}] = 1;
    }
    for (int query = 0; query < 30; ++query) {
      const TxnId from = rng.UniformInt(1, kNodes);
      std::vector<TxnId> candidates;
      const int num_candidates = static_cast<int>(rng.UniformInt(0, 8));
      for (int c = 0; c < num_candidates; ++c) {
        // Up to kNodes + 4: a few ids that never get a node.
        candidates.push_back(rng.Bernoulli(0.1) ? from
                                                : rng.UniformInt(1, kNodes + 4));
      }
      const std::set<TxnId> wanted(candidates.begin(), candidates.end());
      std::vector<TxnId> expected;
      std::set<TxnId> visited{from};
      std::vector<TxnId> stack{from};
      while (!stack.empty()) {
        const TxnId node = stack.back();
        stack.pop_back();
        for (TxnId to : out[node]) {
          if (!visited.insert(to).second) continue;
          if (wanted.count(to) > 0) expected.push_back(to);
          stack.push_back(to);
        }
      }
      std::set<TxnId> exhaustive;
      for (TxnId t : ReachableFrom(edges, from)) {
        if (wanted.count(t) > 0) exhaustive.insert(t);
      }
      const std::vector<TxnId> hits = graph.ReachableAmong(from, candidates);
      ASSERT_EQ(hits, expected) << "from " << from;
      ASSERT_EQ(AsSet(hits), exhaustive) << "from " << from;
      const std::unordered_set<TxnId> as_set(candidates.begin(),
                                             candidates.end());
      ASSERT_EQ(graph.ReachableAmong(from, as_set), expected) << "from " << from;
    }
  }
}

}  // namespace
}  // namespace gtpl
