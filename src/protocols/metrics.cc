#include "protocols/metrics.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "db/txn_graph.h"

namespace gtpl::proto {

double RunResult::AbortPercent() const {
  const int64_t total = commits + aborts;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(aborts) / static_cast<double>(total);
}

double RunResult::Throughput() const {
  if (end_time <= 0) return 0.0;
  return 1000.0 * static_cast<double>(commits) /
         static_cast<double>(end_time);
}

bool HistoryIsSerializable(const std::vector<CommittedTxn>& history,
                           std::string* explanation) {
  // Per item: version -> writing txn, and version -> readers.
  struct ItemHistory {
    std::map<Version, TxnId> writers;           // sorted by version
    std::map<Version, std::vector<TxnId>> readers_of;  // keyed by version read
  };
  std::unordered_map<ItemId, ItemHistory> per_item;
  for (const CommittedTxn& txn : history) {
    for (const OpRecord& op : txn.ops) {
      ItemHistory& h = per_item[op.item];
      if (op.mode == LockMode::kExclusive) {
        auto [it, inserted] = h.writers.emplace(op.version_written, txn.id);
        if (!inserted) {
          if (explanation != nullptr) {
            *explanation = "two committed writers produced version " +
                           std::to_string(op.version_written) + " of item " +
                           std::to_string(op.item);
          }
          return false;
        }
        // A writer also observes the version it overwrites.
        h.readers_of[op.version_read];  // ensure key exists (no self edge)
      } else {
        h.readers_of[op.version_read].push_back(txn.id);
      }
    }
  }

  // The serialization graph, on the same dense graph as the protocols'
  // precedence and waits-for graphs.
  db::TxnGraph graph;
  auto add_edge = [&graph](TxnId a, TxnId b) {
    if (a != b) graph.AddEdge(a, b, 1);
  };
  for (const auto& [item, h] : per_item) {
    // Version order between consecutive committed writers, and the
    // read/write dependencies around each version.
    for (auto it = h.writers.begin(); it != h.writers.end(); ++it) {
      auto next = std::next(it);
      if (next != h.writers.end()) add_edge(it->second, next->second);
    }
    for (const auto& [version, readers] : h.readers_of) {
      // writer(version) -> readers (reads-from).
      if (auto w = h.writers.find(version); w != h.writers.end()) {
        for (TxnId r : readers) add_edge(w->second, r);
      }
      // readers -> writer of the next version (read happens before
      // overwrite).
      auto overwriter = h.writers.upper_bound(version);
      if (overwriter != h.writers.end()) {
        for (TxnId r : readers) add_edge(r, overwriter->second);
      }
    }
    // Writers read the version they overwrite; add writer-observed edges.
  }
  // Writers' own reads: writer of v+1 read version v, so writer(v) ->
  // writer(v+1) is already covered by version order when versions are
  // consecutive; non-consecutive gaps can only come from aborted in-between
  // writers, which never install. Handle the observed-read explicitly:
  for (const CommittedTxn& txn : history) {
    for (const OpRecord& op : txn.ops) {
      if (op.mode != LockMode::kExclusive) continue;
      const ItemHistory& h = per_item[op.item];
      if (auto w = h.writers.find(op.version_read); w != h.writers.end()) {
        add_edge(w->second, txn.id);
      }
    }
  }

  if (!graph.IsAcyclic()) {
    if (explanation != nullptr) {
      *explanation = "serialization graph contains a cycle";
    }
    return false;
  }
  return true;
}

}  // namespace gtpl::proto
