#ifndef GTPL_PROTOCOLS_G2PL_H_
#define GTPL_PROTOCOLS_G2PL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/txn_map.h"
#include "core/forward_list.h"
#include "core/window_manager.h"
#include "protocols/sharded.h"

namespace gtpl::proto {

/// Group two-phase locking (paper §3): the server collects requests into
/// forward lists; data items migrate client-to-client along the list, fusing
/// each lock release with the next grant; deadlocks are avoided by keeping
/// the transaction precedence graph acyclic; MR1W lets the writer following
/// a read group run concurrently with its readers.
///
/// The server-side brain is core::WindowManager, one per server shard, all
/// sharing a single ShardCoordinator: deadlock avoidance and forward-list
/// reordering consult one global precedence graph, so the
/// same-pair-same-order property holds across shards. With one server this
/// is the paper's model exactly. This engine supplies the messaging and the
/// client-side obligation tracking (an *obligation* is one occupied slot on
/// a dispatched forward list: receive the data, process it if the
/// transaction is alive, and forward it downstream at commit — or pass it
/// through unchanged after an abort). Obligation tracking is
/// shard-agnostic: items migrate client to client; only the request and
/// return endpoints differ per item.
class G2plEngine : public ShardedEngineBase {
 public:
  explicit G2plEngine(const SimConfig& config);

  const core::WindowManager& window_manager(int32_t shard = 0) const {
    return *wms_[static_cast<size_t>(shard)];
  }

  /// Transactions whose client-side state is still held: running, or
  /// finished with forward-list slots not yet forwarded. A drained
  /// transaction's state is freed, so this stays bounded by the clients'
  /// concurrency, not by run length.
  size_t live_txns() const { return txns_.size(); }

 protected:
  void SendRequest(TxnRun& run) override;
  void DoCommit(TxnRun& run) override;
  void OnClientAborted(TxnRun& run) override;
  void FillProtocolMetrics(RunResult* result) override;
  bool ShardVote(int32_t shard, TxnId txn, bool speculative) override;
  void OnCommitDecision(int32_t shard, TxnId txn) override;

 private:
  /// One slot on a dispatched forward list, tracked at the owning client.
  struct Obligation {
    ItemId item = kInvalidItem;
    std::shared_ptr<const core::ForwardList> fl;
    int32_t entry = 0;
    int32_t member = 0;
    bool is_writer = false;
    bool data_arrived = false;
    Version version = -1;
    int32_t releases_needed = 0;   // reader releases a writer must collect
    int32_t releases_received = 0;
    bool granted = false;   // OpGranted already issued for this slot
    bool forwarded = false; // slot completed
  };

  /// Transaction state that outlives the client's TxnRun: a finished
  /// transaction still occupies forward-list slots until every one of them
  /// has been forwarded. Only then is it *drained*: it leaves the
  /// precedence graph and its state is erased, so any later message for it
  /// (a reader release reaching an aborted writer that passed through
  /// without waiting) finds no state and is dropped.
  struct TxnState {
    int32_t client_index = 0;
    bool finished = false;
    bool committed = false;
    int32_t slots_outstanding = 0;
    /// One obligation per dispatched slot, in dispatch order (a
    /// transaction touches a handful of distinct items).
    std::vector<Obligation> slots;

    /// The slot of `item`; null before its window was dispatched.
    Obligation* SlotOf(ItemId item);
  };

  // --- window-manager callbacks (server side) -------------------------
  void WmDispatch(int32_t shard, ItemId item, Version version,
                  std::shared_ptr<const core::ForwardList> fl);
  void WmAbort(int32_t shard, TxnId txn, SiteId client_site);
  void WmExpand(int32_t shard, ItemId item, Version version,
                std::shared_ptr<const core::ForwardList> fl, TxnId txn,
                SiteId client_site, int32_t member_index);

  /// Emits the window event (dispatch or expansion) and the acyclicity
  /// audit of the global precedence graph that follows it.
  void TraceWindow(obs::EventKind kind, int32_t shard, ItemId item,
                   Version version, const core::ForwardList& fl, TxnId txn);

  // --- data migration --------------------------------------------------
  /// Sends `version` of `item` to entry `entry_index` of `fl` from
  /// `from_site` (the owning server at dispatch, else the forwarding
  /// writer): copies to every read-group member, or the writer directly;
  /// under MR1W also the early copy to the writer that follows a read group.
  void DeliverToEntry(SiteId from_site, ItemId item, Version version,
                      std::shared_ptr<const core::ForwardList> fl,
                      int32_t entry_index);

  /// Client receives a data copy for (txn, item) at the given FL position.
  /// `early_releases` > 0 marks the MR1W early-writer copy.
  void OnData(TxnId txn, ItemId item, Version version,
              std::shared_ptr<const core::ForwardList> fl,
              int32_t entry_index, int32_t member_index,
              int32_t early_releases);

  /// Client (a writer) receives a reader's release. In basic mode (MR1W
  /// off) the data rides along with the first release.
  void OnReaderRelease(TxnId writer_txn, ItemId item, Version version,
                       std::shared_ptr<const core::ForwardList> fl,
                       int32_t writer_entry_index);

  /// Routes the grant into the shared client lifecycle when the slot's
  /// owner is alive and this slot satisfies its current operation.
  void MaybeGrant(TxnId txn, ItemId item, Obligation& ob);

  /// Records a dispatched slot of `item` for `txn` (whose client is
  /// `client_index`).
  void AddSlot(TxnId txn, int32_t client_index, ItemId item);

  /// Forwards the slot if its conditions hold (data present, txn finished,
  /// releases collected unless aborted).
  void TryForward(TxnId txn, ItemId item);

  /// Drains `txn` once it is finished with every slot forwarded: retires it
  /// from the precedence graph and erases its state. No-op for a txn whose
  /// state is already gone.
  void CheckDrain(TxnId txn);

  /// Forwards every slot of the finished run's transaction, then drains it.
  void Finish(TxnRun& run, bool committed);

  /// The state of `txn`, created on first use. Like every reference into
  /// txns_, it is invalid once a transaction is added or drained.
  TxnState& EnsureTxn(TxnId txn, int32_t client_index);

  std::unique_ptr<core::ShardCoordinator> coordinator_;
  std::vector<std::unique_ptr<core::WindowManager>> wms_;
  TxnMap<TxnState> txns_;
};

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_G2PL_H_
