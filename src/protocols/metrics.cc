#include "protocols/metrics.h"

#include <algorithm>

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
  // Every committed write as (item, version written, writer), later sorted
  // by item and version. Flat vectors instead of per-item maps: the checker
  // runs on whole recorded histories, where node-based maps cost several
  // times the memory.
  struct Write {
    ItemId item;
    Version version;
    TxnId txn;
  };
  std::vector<Write> writes;
  for (const CommittedTxn& txn : history) {
    for (const OpRecord& op : txn.ops) {
      if (op.mode == LockMode::kExclusive) {
        writes.push_back(Write{op.item, op.version_written, txn.id});
      }
    }
  }
  const auto by_version = [](const Write& a, const Write& b) {
    return a.item != b.item ? a.item < b.item : a.version < b.version;
  };
  {
    // Position in history order of every write, to report the first
    // duplicate the way a scan of the history would meet it.
    std::vector<size_t> order(writes.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return by_version(writes[a], writes[b]);
    });
    size_t duplicate = writes.size();  // history position of the first repeat
    for (size_t i = 1; i < order.size(); ++i) {
      const Write& prev = writes[order[i - 1]];
      const Write& cur = writes[order[i]];
      if (prev.item == cur.item && prev.version == cur.version) {
        duplicate = std::min(duplicate, order[i]);
      }
    }
    if (duplicate < writes.size()) {
      if (explanation != nullptr) {
        *explanation = "two committed writers produced version " +
                       std::to_string(writes[duplicate].version) +
                       " of item " + std::to_string(writes[duplicate].item);
      }
      return false;
    }
  }
  std::sort(writes.begin(), writes.end(), by_version);
  // The committed write of `version` of `item`, or of the first version
  // after it with `after`; null when there is none.
  const auto writer_of = [&writes, &by_version](ItemId item, Version version,
                                                bool after) -> const Write* {
    const Write key{item, version, kInvalidTxn};
    const auto it =
        after ? std::upper_bound(writes.begin(), writes.end(), key, by_version)
              : std::lower_bound(writes.begin(), writes.end(), key, by_version);
    if (it == writes.end() || it->item != item) return nullptr;
    if (!after && it->version != version) return nullptr;
    return &*it;
  };

  // The serialization graph, on the same dense graph as the protocols'
  // precedence and waits-for graphs.
  db::TxnGraph graph;
  auto add_edge = [&graph](TxnId a, TxnId b) {
    if (a != b) graph.AddEdge(a, b, 1);
  };
  // Version order between consecutive committed writers of an item.
  for (size_t i = 1; i < writes.size(); ++i) {
    if (writes[i - 1].item == writes[i].item) {
      add_edge(writes[i - 1].txn, writes[i].txn);
    }
  }
  for (const CommittedTxn& txn : history) {
    for (const OpRecord& op : txn.ops) {
      // Reads-from: the writer of the version read precedes the reader
      // (a writer reads the version it overwrites, too).
      if (const Write* w = writer_of(op.item, op.version_read, false)) {
        add_edge(w->txn, txn.id);
      }
      // A read happens before the next version overwrites it (writers are
      // ordered by the version order above).
      if (op.mode == LockMode::kShared) {
        if (const Write* next = writer_of(op.item, op.version_read, true)) {
          add_edge(txn.id, next->txn);
        }
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
