#include "protocols/sharded.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "net/latency_model.h"

namespace gtpl::proto {

// ---------------------------------------------------------------------------
// ShardedEngineBase: routing + client-coordinated two-phase commit
// ---------------------------------------------------------------------------

ShardedEngineBase::ShardedEngineBase(const SimConfig& config)
    : EngineBase(config) {
  items_per_shard_ =
      (config.workload.num_items + config.num_servers - 1) /
      config.num_servers;
}

int32_t ShardedEngineBase::ShardOf(ItemId item) const {
  if (config().shard_routing == ShardRouting::kRange) {
    return std::min(item / items_per_shard_, num_servers() - 1);
  }
  return item % num_servers();
}

const std::vector<int32_t>& ShardedEngineBase::ParticipantsOf(
    const TxnRun& run) const {
  std::vector<int32_t>& shards = participants_;
  shards.clear();
  for (const workload::Operation& op : run.spec.ops) {
    shards.push_back(ShardOf(op.item));
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

std::vector<int32_t> ShardedEngineBase::WriteShardsOf(
    const TxnRun& run) const {
  std::vector<int32_t> shards;
  for (const workload::Operation& op : run.spec.ops) {
    if (op.mode == LockMode::kExclusive) shards.push_back(ShardOf(op.item));
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

void ShardedEngineBase::StartCommit(TxnRun& run) {
  // The by-value Start* parameters copy the scratch list.
  const std::vector<int32_t>& participants = ParticipantsOf(run);
  if (participants.size() <= 1) {
    // Single-shard transaction: the ordinary commit path (the only path
    // when num_servers == 1).
    EngineBase::StartCommit(run);
    return;
  }
  GTPL_CHECK(!run.finished);
  GTPL_CHECK(!run.doomed);
  switch (config().commit_path) {
    case CommitPath::kClassic:
      StartClassic(run, participants);
      return;
    case CommitPath::kEarly:
      StartEarly(run, participants);
      return;
    case CommitPath::kFastPath:
      if (WriteShardsOf(run).size() <= 1) {
        StartFastPath(run, participants);
      } else {
        StartClassic(run, participants);
      }
      return;
    case CommitPath::kCoord: {
      const int32_t coord = ChooseCoordinator(run, participants);
      if (coord < 0) {
        StartClassic(run, participants);
      } else {
        StartCoord(run, participants, coord);
      }
      return;
    }
  }
  GTPL_CHECK(false) << "unhandled commit path";
}

void ShardedEngineBase::StartClassic(TxnRun& run,
                                     std::vector<int32_t> participants) {
  const TxnId txn = run.id;
  ClientState& client = ClientAt(run.client_index);
  // Phase one: the coordinator (client) forces its prepare record, then
  // asks every participant server to vote.
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, txn,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  CommitCtx ctx;
  ctx.votes_pending = static_cast<int32_t>(participants.size());
  ctx.prepares_pending = static_cast<int32_t>(participants.size());
  ctx.participants = participants;
  ctx.flights = 2;
  ctx.vote_site = run.site();
  commits_[txn] = std::move(ctx);
  const SiteId from = run.site();
  auto send_prepares = [this, txn, from,
                        participants = std::move(participants)] {
    TxnRun* current = FindRun(txn);
    if (current == nullptr || current->finished || current->doomed) {
      commits_.Erase(txn);
      return;
    }
    CommitCtx* pending = commits_.Find(txn);
    GTPL_CHECK(pending != nullptr);
    pending->sent_time = simulator().Now();
    for (int32_t shard : participants) {
      network().Send(from, ServerSiteOf(shard), "prepare", [this, shard, txn] {
        OnPrepareArrived(shard, txn, /*speculative=*/false);
      });
    }
  };
  if (force_delay > 0) {
    simulator().Schedule(force_delay, std::move(send_prepares));
  } else {
    send_prepares();
  }
}

void ShardedEngineBase::PreRequestHook(TxnRun& run) {
  if (config().commit_path != CommitPath::kEarly || num_servers() <= 1) {
    return;
  }
  auto [found, inserted] = early_.TryEmplace(run.id);
  EarlyCtx& early = *found;
  if (inserted) {
    for (size_t i = 0; i < run.spec.ops.size(); ++i) {
      early.last_touch[ShardOf(run.spec.ops[i].item)] = i;
    }
    early.active = early.last_touch.size() > 1;
  }
  if (!early.active) return;
  const int32_t shard = ShardOf(run.op().item);
  auto last = early.last_touch.find(shard);
  if (last == early.last_touch.end() || last->second != run.current_op) {
    return;
  }
  // This request is the last one touching `shard`: piggyback a speculative
  // prepare so the vote overlaps the rest of the execution.
  ++early.prepares_sent;
  if (measuring()) ++early_prepares_;
  network().Send(run.site(), ServerSiteOf(shard), "prepare(early)",
                 [this, shard, txn = run.id] {
                   OnPrepareArrived(shard, txn, /*speculative=*/true);
                 });
}

void ShardedEngineBase::StartEarly(TxnRun& run,
                                   std::vector<int32_t> participants) {
  const TxnId txn = run.id;
  ClientState& client = ClientAt(run.client_index);
  // The coordinator still forces its prepare record — the commit point must
  // be recoverable — but the prepares themselves already flew with the
  // operations, so it then only waits for votes not yet home.
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, txn,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  auto begin_wait = [this, txn, participants = std::move(participants)] {
    TxnRun* current = FindRun(txn);
    if (current == nullptr || current->finished || current->doomed) return;
    const EarlyCtx* early = early_.Find(txn);
    GTPL_CHECK(early != nullptr && early->active)
        << "kEarly commit without speculative prepares";
    GTPL_CHECK_EQ(early->prepares_sent,
                  static_cast<int32_t>(participants.size()));
    CommitCtx ctx;
    ctx.participants = participants;
    ctx.vote_site = current->site();
    ctx.sent_time = simulator().Now();
    ctx.prepares_pending = 0;  // all prepares were speculative; sub-span 0
    int32_t have = 0;
    for (int32_t shard : participants) {
      have += early->votes.count(shard) > 0 ? 1 : 0;
    }
    ctx.votes_pending = static_cast<int32_t>(participants.size()) - have;
    ctx.flights = ctx.votes_pending == 0 ? 0 : 1;
    const bool complete = ctx.votes_pending == 0;
    commits_[txn] = std::move(ctx);
    if (complete) FinishVotedCommit(txn);
  };
  if (force_delay > 0) {
    simulator().Schedule(force_delay, std::move(begin_wait));
  } else {
    begin_wait();
  }
}

void ShardedEngineBase::StartFastPath(
    TxnRun& run, const std::vector<int32_t>& participants) {
  // Single-write-shard transaction: no prepare/vote round at all. The
  // client's forced commit record (EngineBase::StartCommit) is the commit
  // point, and the engine's ordinary release/forward messages carry the
  // piggybacked validation + decision to every participant — the read-only
  // shards still hold locks for a non-doomed transaction, so the
  // validation cannot fail (lock engines assert this in ServerOnRelease).
  if (measuring()) {
    ++cross_server_commits_;
    commit_participants_.Add(static_cast<double>(participants.size()));
    ++fastpath_commits_;
  }
  run.commit_flights = 0;
  EngineBase::StartCommit(run);
}

int32_t ShardedEngineBase::ChooseCoordinator(
    const TxnRun& run, const std::vector<int32_t>& participants) {
  // Candidate: the write-heaviest participant (most exclusive ops; lowest
  // shard id breaks ties). Read-only cross-server commits stay with the
  // client — there is no lock-hold pressure worth the handoff.
  std::unordered_map<int32_t, int32_t> writes;
  for (const workload::Operation& op : run.spec.ops) {
    if (op.mode == LockMode::kExclusive) ++writes[ShardOf(op.item)];
  }
  int32_t cand = -1;
  int32_t best = 0;
  for (int32_t shard : participants) {  // ascending; first max wins ties
    auto it = writes.find(shard);
    const int32_t count = it == writes.end() ? 0 : it->second;
    if (count > best) {
      best = count;
      cand = shard;
    }
  }
  if (cand < 0) return -1;
  // Score both placements from the static latency matrix (deterministic —
  // never the jitter stream). cost_* is the commit phase's contribution to
  // the client's response time; lag_* is when the commit decision reaches
  // the last participant (lock-hold time). Prefer the remote coordinator
  // only when its extra response cost is outweighed by the lock-hold
  // savings; under uniform latency that is never true, so kCoord degrades
  // to kClassic exactly (the equivalence suite pins this).
  const net::LatencyModel& lm = *network().latency_model();
  const SiteId client = run.site();
  const SiteId coord = ServerSiteOf(cand);
  SimTime cost_client = 0;
  SimTime decide_leg_client = 0;
  SimTime round_coord = 0;
  SimTime decide_leg_coord = 0;
  for (int32_t shard : participants) {
    const SiteId site = ServerSiteOf(shard);
    cost_client = std::max(cost_client, lm.BaseLatency(client, site) +
                                            lm.BaseLatency(site, client));
    decide_leg_client =
        std::max(decide_leg_client, lm.BaseLatency(client, site));
    if (shard == cand) continue;  // the coordinator's own shard votes inline
    round_coord = std::max(round_coord, lm.BaseLatency(coord, site) +
                                            lm.BaseLatency(site, coord));
    decide_leg_coord =
        std::max(decide_leg_coord, lm.BaseLatency(coord, site));
  }
  const SimTime handoff = lm.BaseLatency(client, coord);
  const SimTime votes_done = handoff + round_coord;
  const SimTime cost_coord = votes_done + lm.BaseLatency(coord, client);
  const SimTime lag_classic = cost_client + decide_leg_client;
  const SimTime lag_coord = votes_done + decide_leg_coord;
  const SimTime extra_response = cost_coord - cost_client;
  const SimTime lockhold_saving = lag_classic - lag_coord;
  return extra_response < lockhold_saving ? cand : -1;
}

void ShardedEngineBase::StartCoord(TxnRun& run,
                                   std::vector<int32_t> participants,
                                   int32_t coord_shard) {
  const TxnId txn = run.id;
  ClientState& client = ClientAt(run.client_index);
  // The client still forces its prepare record, then hands the whole 2PC to
  // the coordinator server: handoff -> prepares -> votes (at the
  // coordinator) -> decisions (from the coordinator) -> ack to the client.
  const int64_t lsn = client.wal->Append(db::LogRecordKind::kPrepare, txn,
                                         kInvalidItem, 0);
  const SimTime force_delay = client.wal->Force(lsn);
  CommitCtx ctx;
  ctx.votes_pending = static_cast<int32_t>(participants.size());
  ctx.prepares_pending = static_cast<int32_t>(participants.size());
  ctx.participants = std::move(participants);
  ctx.flights = 4;  // handoff + prepare + vote + ack on the response path
  ctx.vote_site = ServerSiteOf(coord_shard);
  ctx.coord_shard = coord_shard;
  commits_[txn] = std::move(ctx);
  const SiteId from = run.site();
  auto send_handoff = [this, txn, from, coord_shard] {
    TxnRun* current = FindRun(txn);
    if (current == nullptr || current->finished || current->doomed) {
      commits_.Erase(txn);
      return;
    }
    CommitCtx* pending = commits_.Find(txn);
    GTPL_CHECK(pending != nullptr);
    pending->sent_time = simulator().Now();
    network().Send(from, ServerSiteOf(coord_shard), "commit-handoff",
                   [this, coord_shard, txn] {
                     OnHandoffArrived(coord_shard, txn);
                   });
  };
  if (force_delay > 0) {
    simulator().Schedule(force_delay, std::move(send_handoff));
  } else {
    send_handoff();
  }
}

void ShardedEngineBase::OnHandoffArrived(int32_t coord_shard, TxnId txn) {
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished || run->doomed) {
    commits_.Erase(txn);  // no votes will ever tally
    return;
  }
  const CommitCtx* ctx = commits_.Find(txn);
  GTPL_CHECK(ctx != nullptr) << "handoff without a commit context";
  const std::vector<int32_t> participants = ctx->participants;
  // Fan the prepares over the (fast) server mesh; the coordinator's own
  // shard prepares locally below — never through the network, which would
  // charge a self-latency the real system does not pay.
  for (int32_t shard : participants) {
    if (shard == coord_shard) continue;
    network().Send(ServerSiteOf(coord_shard), ServerSiteOf(shard), "prepare",
                   [this, shard, txn] {
                     OnPrepareArrived(shard, txn, /*speculative=*/false);
                   });
  }
  OnPrepareArrived(coord_shard, txn, /*speculative=*/false);
}

void ShardedEngineBase::OnAckArrived(TxnId txn) {
  TxnRun* run = FindRun(txn);
  GTPL_CHECK(run != nullptr && !run->finished)
      << "commit ack for a finished transaction";
  GTPL_CHECK(!run->doomed) << "commit ack for a doomed transaction";
  EngineBase::StartCommit(*run);
}

bool ShardedEngineBase::RemoteCoordinated(TxnId txn) const {
  return remote_decided_.Contains(txn);
}

void ShardedEngineBase::OnTxnClosed(const TxnRun& run) {
  commits_.Erase(run.id);
  early_.Erase(run.id);
  remote_decided_.Erase(run.id);
}

void ShardedEngineBase::OnPrepareArrived(int32_t shard, TxnId txn,
                                         bool speculative) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kPrepare;
    event.txn = txn;
    event.shard = shard;
    event.site = ServerSiteOf(shard);
    if (speculative) event.label = "speculative";
    tracer().Emit(std::move(event));
  }
  const bool yes = ShardVote(shard, txn, speculative);
  // The participant forces its own prepare record before voting yes.
  if (yes) {
    const int64_t lsn = server_wal().Append(db::LogRecordKind::kPrepare, txn,
                                            kInvalidItem, 0);
    server_wal().Force(lsn);
  }
  TxnRun* run = FindRun(txn);
  if (run == nullptr) return;  // coordinator already moved on; drop the vote
  SiteId vote_to = run->site();
  if (!speculative) {
    if (CommitCtx* ctx = commits_.Find(txn)) {
      if (--ctx->prepares_pending == 0 && !run->finished) {
        // Last prepare of the fan-out landed: close the prepare sub-span.
        run->span.commit_prepare = simulator().Now() - ctx->sent_time;
      }
      vote_to = ctx->vote_site;
    }
  }
  const SiteId vote_from = ServerSiteOf(shard);
  if (vote_to == vote_from) {
    // The coordinator server's own shard: the vote is local.
    OnVoteArrived(txn, shard, yes);
    return;
  }
  network().Send(vote_from, vote_to, "vote",
                 [this, txn, shard, yes] { OnVoteArrived(txn, shard, yes); });
}

void ShardedEngineBase::OnVoteArrived(TxnId txn, int32_t shard, bool yes) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kVote;
    event.txn = txn;
    event.shard = shard;
    event.flag = yes;
    tracer().Emit(std::move(event));
  }
  CommitCtx* ctx = commits_.Find(txn);
  if (ctx == nullptr) {
    // kEarly: a speculative vote arriving before the commit point. Bank it
    // for StartEarly's tally; votes of dead runs are dropped.
    EarlyCtx* early = early_.Find(txn);
    if (early == nullptr || !early->active) return;
    TxnRun* run = FindRun(txn);
    if (run == nullptr || run->finished || run->doomed) return;
    if (yes) early->votes.insert(shard);
    return;
  }
  ctx->all_yes = ctx->all_yes && yes;
  if (--ctx->votes_pending > 0) return;
  FinishVotedCommit(txn);
}

void ShardedEngineBase::FinishVotedCommit(TxnId txn) {
  CommitCtx* found = commits_.Find(txn);
  GTPL_CHECK(found != nullptr);
  const bool all_yes = found->all_yes;
  const CommitCtx ctx = std::move(*found);
  commits_.Erase(txn);
  TxnRun* run = FindRun(txn);
  if (run == nullptr || run->finished || run->doomed) return;
  if (!all_yes) {
    // A no vote means that shard's server had already aborted the
    // transaction, and its abort decision doomed the run instantly — so
    // this branch is unreachable in practice; kept as a safety net.
    return;
  }
  // Close the vote sub-span: everything since the fan-out began that the
  // prepare sub-span did not absorb.
  run->span.commit_vote =
      simulator().Now() - ctx.sent_time - run->span.commit_prepare;
  GTPL_CHECK_GE(run->span.commit_vote, 0);
  if (measuring()) {
    ++cross_server_commits_;
    commit_participants_.Add(static_cast<double>(ctx.participants.size()));
    if (ctx.coord_shard >= 0) ++coord_remote_commits_;
  }
  // Phase two: the decision travels to every participant; the local commit
  // (forced commit record, then the protocol's release messages) proceeds
  // in parallel — or, with a remote coordinator, after the ack flies home.
  const SiteId decision_from =
      ctx.coord_shard >= 0 ? ServerSiteOf(ctx.coord_shard) : run->site();
  if (ctx.coord_shard >= 0) remote_decided_.Insert(txn);
  for (int32_t participant : ctx.participants) {
    if (participant == ctx.coord_shard) {
      OnDecisionArrived(participant, txn);  // the coordinator's own shard
      continue;
    }
    network().Send(
        decision_from, ServerSiteOf(participant), "commit-decision",
        [this, participant, txn] { OnDecisionArrived(participant, txn); });
  }
  run->commit_flights = ctx.flights;
  if (ctx.coord_shard >= 0) {
    network().Send(decision_from, run->site(), "commit-ack",
                   [this, txn] { OnAckArrived(txn); });
    return;
  }
  EngineBase::StartCommit(*run);
}

void ShardedEngineBase::OnDecisionArrived(int32_t shard, TxnId txn) {
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kDecide;
    event.txn = txn;
    event.shard = shard;
    event.site = ServerSiteOf(shard);
    tracer().Emit(std::move(event));
  }
  server_wal().Append(db::LogRecordKind::kCommit, txn, kInvalidItem, 0);
  OnCommitDecision(shard, txn);
}

void ShardedEngineBase::FillProtocolMetrics(RunResult* result) {
  result->cross_server_commits = cross_server_commits_;
  result->commit_participants = commit_participants_;
  result->fastpath_commits = fastpath_commits_;
  result->early_prepares = early_prepares_;
  result->coord_remote_commits = coord_remote_commits_;
  result->commit_path_fallbacks = commit_path_fallbacks_;
}

void ShardedEngineBase::RegisterMetrics(obs::MetricsRegistry* metrics) {
  EngineBase::RegisterMetrics(metrics);
  metrics->Register("inflight_2pc", -1, [this] {
    return static_cast<int64_t>(commits_.size());
  });
}

}  // namespace gtpl::proto
