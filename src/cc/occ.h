#ifndef GTPL_CC_OCC_H_
#define GTPL_CC_OCC_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/txn_map.h"
#include "protocols/sharded.h"

namespace gtpl::cc {

/// Optimistic concurrency control with backward validation at commit.
///
/// The read phase takes no locks: each operation is one request/data round
/// that ships the item's current committed version (so response time per op
/// is the same WAN round s-2PL pays when uncontended — OCC removes lock
/// *waiting*, not propagation). At commit the client sends its read/write
/// set to the owning server(s); a server validates backward against the
/// committed store — every recorded version_read must still be current —
/// and a single-shard transaction installs its writes atomically with the
/// validation, so the validation instant is the serialization point.
///
/// Cross-server commits reuse the 2PC message pattern (prepare == validate
/// carrying the shard's slice of the read/write set, vote, decision), but
/// with validation instead of a lock-state check: a yes vote *reserves* the
/// validated items — later validations touching them in a conflicting mode
/// vote no — and parks the shard's write slice server-side, so the decision
/// message is control-only. Reservations are cleared by the decision
/// (commit) or by the client's abort cleanup message.
///
/// The commit thus costs one extra WAN round (single shard) or two (2PC)
/// on top of the pessimistic engines' commit path, the classic OCC
/// trade: no waiting during the read phase, paid for with validation
/// latency and restarts under contention.
///
/// With `client_cache` this is O2PL (DESIGN.md §3.3): clients keep the
/// copies they fetched or committed across transactions, so a read-phase
/// access to a cached item is served locally with no round. A miss fetches
/// through the same read-request/data round and joins the item's server
/// copy set; every install sends invalidations to the other copy holders,
/// and an abort evicts the transaction's items so the retry refetches.
/// Certification is unchanged — a stale cached read fails validation.
class OccEngine : public proto::ShardedEngineBase {
 public:
  OccEngine(const proto::SimConfig& config, bool client_cache);

 protected:
  void SendRequest(TxnRun& run) override;
  /// Installs happened at validation (single shard) or decision time (2PC);
  /// nothing travels at local-commit time.
  void DoCommit(TxnRun& run) override;
  void OnClientAborted(TxnRun& run) override;
  /// Certification commit: overrides the base 2PC entirely. Votes are
  /// decided by validation (data-dependent), so the geo-aware commit paths
  /// do not apply: cross-server commits always run the classic two-flight
  /// pattern and count commit_path_fallbacks when another path was asked.
  void StartCommit(TxnRun& run) override;
  /// kEarly's speculative prepares would route into the unreachable
  /// ShardVote below; OCC opts out (part of the classic fallback).
  void PreRequestHook(TxnRun& run) override { (void)run; }
  bool ShardVote(int32_t shard, TxnId txn, bool speculative)
      override;                                             // unreachable
  void OnCommitDecision(int32_t shard, TxnId txn) override; // unreachable

 private:
  /// Validation locks held between a yes vote and the decision/abort.
  struct Slot {
    int32_t readers = 0;
    TxnId writer = kInvalidTxn;
  };
  struct VoteCtx {
    int32_t votes_pending = 0;
    bool all_yes = true;
    std::vector<int32_t> participants;
    /// Fan-out instant and validates still in flight — mirrors the base
    /// CommitCtx so OCC reports the same per-round commit sub-spans.
    SimTime sent_time = 0;
    int32_t prepares_pending = 0;
  };

  void OnRead(int32_t shard, TxnId txn, SiteId client_site, ItemId item,
              LockMode mode);
  void SendValidate(int32_t shard, TxnRun& run, bool multi);
  void OnValidate(int32_t shard, TxnId txn, SiteId client_site,
                  std::vector<proto::OpRecord> records, bool multi);
  void OnOccVote(TxnId txn, int32_t shard, bool yes);
  /// `committer_site` rides the decision: the client finalizes its commit
  /// as it sends the decisions, so its run is gone by the time they land.
  void OnOccDecision(int32_t shard, TxnId txn, SiteId committer_site);

  bool ValidateOnShard(int32_t shard,
                       const std::vector<proto::OpRecord>& records);
  void Reserve(int32_t shard, TxnId txn,
               const std::vector<proto::OpRecord>& records);
  void ClearReservations(int32_t shard,
                         const std::vector<proto::OpRecord>& records);
  /// Installs the writes among `records`. Under the client cache, every
  /// other copy holder of a written item is invalidated and the committer
  /// (`committer_site`) becomes the only one.
  void InstallOnShard(int32_t shard, TxnId txn, SiteId committer_site,
                      const std::vector<proto::OpRecord>& records);

  std::vector<std::unordered_map<ItemId, Slot>> reserved_;   // per shard
  std::vector<TxnMap<std::vector<proto::OpRecord>>> prepared_;  // per shard
  TxnMap<VoteCtx> votes_;

  // O2PL's client cache (both empty without `client_cache_`).
  const bool client_cache_;
  std::vector<std::unordered_map<ItemId, Version>> caches_;  // per client
  std::vector<std::unordered_set<SiteId>> copy_sets_;        // per item
};

}  // namespace gtpl::cc

#endif  // GTPL_CC_OCC_H_
