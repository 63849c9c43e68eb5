#include "protocols/g2pl.h"

#include <utility>

#include "common/check.h"
#include "protocols/invariants.h"

namespace gtpl::proto {

G2plEngine::G2plEngine(const SimConfig& config) : ShardedEngineBase(config) {
  coordinator_ = std::make_unique<core::ShardCoordinator>();
  wms_.reserve(static_cast<size_t>(config.num_servers));
  for (int32_t shard = 0; shard < config.num_servers; ++shard) {
    core::WindowManager::Callbacks callbacks;
    callbacks.dispatch = [this, shard](
                             ItemId item, Version version,
                             std::shared_ptr<const core::ForwardList> fl) {
      WmDispatch(shard, item, version, std::move(fl));
    };
    callbacks.abort = [this, shard](TxnId txn, SiteId client_site) {
      WmAbort(shard, txn, client_site);
    };
    callbacks.expand = [this, shard](
                           ItemId item, Version version,
                           std::shared_ptr<const core::ForwardList> fl,
                           TxnId txn, SiteId client_site,
                           int32_t member_index) {
      WmExpand(shard, item, version, std::move(fl), txn, client_site,
               member_index);
    };
    callbacks.can_abort = [this](TxnId txn) {
      TxnRun* run = FindRun(txn);
      return run != nullptr && !run->finished && !run->doomed;
    };
    wms_.push_back(std::make_unique<core::WindowManager>(
        config.workload.num_items, config.g2pl, &store(),
        std::move(callbacks), coordinator_.get()));
  }
}

G2plEngine::TxnState& G2plEngine::EnsureTxn(TxnId txn, int32_t client_index) {
  auto [ts, inserted] = txns_.TryEmplace(txn);
  if (inserted) ts->client_index = client_index;
  return *ts;
}

G2plEngine::Obligation* G2plEngine::TxnState::SlotOf(ItemId item) {
  for (Obligation& ob : slots) {
    if (ob.item == item) return &ob;
  }
  return nullptr;
}

void G2plEngine::AddSlot(TxnId txn, int32_t client_index, ItemId item) {
  TxnState& ts = EnsureTxn(txn, client_index);
  ++ts.slots_outstanding;
  ts.slots.emplace_back().item = item;
}

void G2plEngine::SendRequest(TxnRun& run) {
  const TxnId txn = run.id;
  const SiteId site = run.site();
  const workload::Operation op = run.op();
  const int32_t restarts = ClientAt(run.client_index).restart_streak;
  EnsureTxn(txn, run.client_index);
  const int32_t shard = ShardOf(op.item);
  network().Send(site, ServerSiteOf(shard), "lock-request",
                 [this, shard, txn, site, op, restarts] {
                   NoteRequestAtServer(txn, op.item, op.mode, shard);
                   wms_[static_cast<size_t>(shard)]->OnRequest(
                       txn, site, op.item, op.mode, restarts);
                 });
}

void G2plEngine::TraceWindow(obs::EventKind kind, int32_t shard, ItemId item,
                             Version version, const core::ForwardList& fl,
                             TxnId txn) {
  if (!tracer().enabled()) return;
  obs::TraceEvent event;
  event.kind = kind;
  event.txn = txn;
  event.item = item;
  event.shard = shard;
  event.payload = static_cast<int64_t>(version);
  event.entries = ObsSnapshotForwardList(fl);
  tracer().Emit(std::move(event));
  obs::TraceEvent audit;
  audit.kind = obs::EventKind::kGraphCheck;
  audit.item = item;
  audit.shard = shard;
  audit.flag = coordinator_->graph().IsAcyclic();
  tracer().Emit(std::move(audit));
}

void G2plEngine::WmDispatch(int32_t shard, ItemId item, Version version,
                            std::shared_ptr<const core::ForwardList> fl) {
  TraceWindow(obs::EventKind::kWindowDispatch, shard, item, version, *fl,
              kInvalidTxn);
  for (int32_t e = 0; e < fl->num_entries(); ++e) {
    for (const core::FlMember& m : fl->entry(e).members) {
      AddSlot(m.txn, m.client - 1, item);
    }
  }
  DeliverToEntry(ServerSiteOf(shard), item, version, std::move(fl), 0);
}

void G2plEngine::WmAbort(int32_t shard, TxnId txn, SiteId client_site) {
  ServerAbortDecision(txn, client_site, ServerSiteOf(shard));
}

void G2plEngine::WmExpand(int32_t shard, ItemId item, Version version,
                          std::shared_ptr<const core::ForwardList> fl,
                          TxnId txn, SiteId client_site,
                          int32_t member_index) {
  TraceWindow(obs::EventKind::kWindowExpand, shard, item, version, *fl, txn);
  AddSlot(txn, client_site - 1, item);
  network().Send(ServerSiteOf(shard), client_site, "data(expand)",
                 [this, txn, item, version, fl = std::move(fl),
                  member_index] {
                   OnData(txn, item, version, fl, 0, member_index, 0);
                 });
}

void G2plEngine::DeliverToEntry(SiteId from_site, ItemId item,
                                Version version,
                                std::shared_ptr<const core::ForwardList> fl,
                                int32_t entry_index) {
  // Data messages carry the item plus a copy of the forward list — the
  // larger-but-fewer messages the paper deems cheap at gigabit rates.
  const uint64_t payload =
      net::kDataPayload +
      net::kFlSlotPayload * static_cast<uint64_t>(fl->num_members());
  const core::FlEntry& entry = fl->entry(entry_index);
  if (!entry.is_read_group) {
    const core::FlMember writer = entry.members[0];
    network().Send(
        from_site, writer.client, "data",
        [this, txn = writer.txn, item, version, fl, entry_index] {
          OnData(txn, item, version, fl, entry_index, 0, 0);
        },
        payload);
    return;
  }
  for (int32_t j = 0; j < entry.size(); ++j) {
    const core::FlMember reader = entry.members[static_cast<size_t>(j)];
    network().Send(
        from_site, reader.client, "data(copy)",
        [this, txn = reader.txn, item, version, fl, entry_index, j] {
          OnData(txn, item, version, fl, entry_index, j, 0);
        },
        payload);
  }
  // MR1W (paper §3.4): the writer that follows the read group receives the
  // data at the same time and executes concurrently; it may not release its
  // update before every reader's release reaches it.
  if (config().g2pl.mr1w && entry_index + 1 < fl->num_entries()) {
    const core::FlEntry& next = fl->entry(entry_index + 1);
    GTPL_CHECK(!next.is_read_group);
    const core::FlMember writer = next.members[0];
    network().Send(
        from_site, writer.client, "data(early)",
        [this, txn = writer.txn, item, version, fl, entry_index,
         releases = entry.size()] {
          OnData(txn, item, version, fl, entry_index + 1, 0, releases);
        },
        payload);
  }
}

void G2plEngine::OnData(TxnId txn, ItemId item, Version version,
                        std::shared_ptr<const core::ForwardList> fl,
                        int32_t entry_index, int32_t member_index,
                        int32_t early_releases) {
  TxnState* ts = txns_.Find(txn);
  if (ts == nullptr) return;  // drained
  Obligation* slot = ts->SlotOf(item);
  GTPL_CHECK(slot != nullptr) << "data for an undispatched slot";
  Obligation& ob = *slot;
  if (ob.data_arrived) {
    // A ride-along copy already arrived via a reader release (possible only
    // with reordering latency models); keep the established state.
    if (early_releases > 0) ob.releases_needed = early_releases;
  } else {
    ob.fl = std::move(fl);
    ob.entry = entry_index;
    ob.member = member_index;
    ob.is_writer = !ob.fl->entry(entry_index).is_read_group;
    ob.data_arrived = true;
    ob.version = version;
    if (early_releases > 0) ob.releases_needed = early_releases;
  }
  if (ts->finished) {
    TryForward(txn, item);
    return;
  }
  MaybeGrant(txn, item, ob);
}

void G2plEngine::OnReaderRelease(TxnId writer_txn, ItemId item,
                                 Version version,
                                 std::shared_ptr<const core::ForwardList> fl,
                                 int32_t writer_entry_index) {
  // A drained writer aborted and passed the item through without waiting;
  // its readers' releases still arrive and are dropped here.
  TxnState* ts = txns_.Find(writer_txn);
  if (ts == nullptr) return;
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kReaderRelease;
    event.txn = writer_txn;
    event.item = item;
    event.shard = ShardOf(item);
    tracer().Emit(std::move(event));
  }
  Obligation* slot = ts->SlotOf(item);
  GTPL_CHECK(slot != nullptr) << "reader release for an undispatched slot";
  Obligation& ob = *slot;
  if (ob.fl == nullptr) {
    // Basic mode (MR1W off): the first reader release carries the data.
    ob.fl = std::move(fl);
    ob.entry = writer_entry_index;
    ob.member = 0;
    ob.is_writer = true;
    GTPL_CHECK_GT(writer_entry_index, 0);
    ob.releases_needed = ob.fl->entry(writer_entry_index - 1).size();
  }
  ++ob.releases_received;
  GTPL_CHECK_LE(ob.releases_received, ob.releases_needed);
  if (!ob.data_arrived) {
    ob.data_arrived = true;
    ob.version = version;
  }
  if (ob.forwarded) return;  // aborted writer already passed it through
  if (ts->finished) {
    TryForward(writer_txn, item);
  } else {
    MaybeGrant(writer_txn, item, ob);
  }
}

void G2plEngine::MaybeGrant(TxnId txn, ItemId item, Obligation& ob) {
  if (ob.granted || !ob.data_arrived) return;
  // MR1W early writers may execute immediately; in basic mode a writer
  // behind a read group starts only once every reader has released to it.
  if (!config().g2pl.mr1w && ob.releases_received < ob.releases_needed) {
    return;
  }
  TxnRun* run = FindRun(txn);
  GTPL_CHECK(run != nullptr) << "live g-2PL txn without a run";
  if (run->doomed) return;  // abort notice in flight; pass through later
  GTPL_CHECK_EQ(run->op().item, item)
      << "grant does not match the sequentially outstanding operation";
  ob.granted = true;
  OpGranted(*run, ob.version);
}

void G2plEngine::TryForward(TxnId txn, ItemId item) {
  TxnState* state = txns_.Find(txn);
  if (state == nullptr) return;  // drained
  TxnState& ts = *state;
  Obligation* slot = ts.SlotOf(item);
  if (slot == nullptr) return;  // window not dispatched yet
  Obligation& ob = *slot;
  if (ob.forwarded || !ob.data_arrived || !ts.finished) return;
  // A committed writer may not release its update before all reader
  // releases arrive (MR1W rule); an aborted transaction waits for nothing.
  if (ts.committed && ob.releases_received < ob.releases_needed) return;
  ob.forwarded = true;
  const int32_t shard = ShardOf(item);
  if (ts.committed && ob.is_writer && tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kWriterRelease;
    event.txn = txn;
    event.item = item;
    event.shard = shard;
    tracer().Emit(std::move(event));
  }
  const Version version_out =
      ts.committed && ob.is_writer ? ob.version + 1 : ob.version;
  const SiteId from = ts.client_index + 1;
  if (tracer().enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kFlHandoff;
    event.txn = txn;
    event.site = from;
    event.item = item;
    event.shard = shard;
    event.flag = ts.committed;
    event.mode = ob.is_writer ? 1 : 0;
    event.payload = static_cast<int64_t>(version_out);
    event.label = ob.fl->IsLastEntry(ob.entry)
                      ? "return"
                      : (!ob.is_writer ? "reader-release" : "forward");
    tracer().Emit(std::move(event));
  }
  if (ob.fl->IsLastEntry(ob.entry)) {
    network().Send(
        from, ServerSiteOf(shard), "return",
        [this, shard, item, version_out] {
          wms_[static_cast<size_t>(shard)]->OnReturn(item, version_out);
          MaybeGcClientLogs();
        },
        net::kControlPayload + net::kDataPayload);
  } else if (!ob.is_writer) {
    const core::FlEntry& next = ob.fl->entry(ob.entry + 1);
    GTPL_CHECK(!next.is_read_group);
    const core::FlMember writer = next.members[0];
    const uint64_t release_payload =
        config().g2pl.mr1w ? net::kControlPayload
                           : net::kControlPayload + net::kDataPayload;
    network().Send(
        from, writer.client, "reader-release",
        [this, wt = writer.txn, item, version_out, fl = ob.fl,
         we = ob.entry + 1] {
          OnReaderRelease(wt, item, version_out, fl, we);
        },
        release_payload);
  } else {
    DeliverToEntry(from, item, version_out, ob.fl, ob.entry + 1);
  }
  --ts.slots_outstanding;
  GTPL_CHECK_GE(ts.slots_outstanding, 0);
  CheckDrain(txn);
}

void G2plEngine::CheckDrain(TxnId txn) {
  const TxnState* ts = txns_.Find(txn);
  if (ts == nullptr) return;  // already drained
  if (!ts->finished || ts->slots_outstanding != 0) return;
  // OnTxnDrained delegates to the shared coordinator, which retires the
  // transaction across every shard; any manager routes there.
  wms_[0]->OnTxnDrained(txn);
  txns_.Erase(txn);
}

void G2plEngine::Finish(TxnRun& run, bool committed) {
  TxnState& ts = EnsureTxn(run.id, run.client_index);
  ts.finished = true;
  ts.committed = committed;
  // TryForward may drain the transaction, which erases its state: look it
  // up again before each slot.
  for (size_t i = 0;; ++i) {
    const TxnState* state = txns_.Find(run.id);
    if (state == nullptr || i == state->slots.size()) break;
    TryForward(run.id, state->slots[i].item);
  }
  CheckDrain(run.id);
}

void G2plEngine::DoCommit(TxnRun& run) { Finish(run, /*committed=*/true); }

void G2plEngine::OnClientAborted(TxnRun& run) {
  Finish(run, /*committed=*/false);
}

bool G2plEngine::ShardVote(int32_t shard, TxnId txn, bool speculative) {
  (void)shard;  // deadlock avoidance is global; every shard sees the same
  (void)speculative;  // the vote takes no commit-promise action either way
  return !coordinator_->IsAborted(txn);
}

void G2plEngine::OnCommitDecision(int32_t shard, TxnId txn) {
  // Nothing further server-side: in g-2PL the committed data itself
  // migrates along the forward lists; the servers learn outcomes from the
  // return messages. The base class already logged the decision.
  (void)shard;
  (void)txn;
}

void G2plEngine::FillProtocolMetrics(RunResult* result) {
  ShardedEngineBase::FillProtocolMetrics(result);
  int64_t requests = 0;
  int64_t cap_samples = 0;
  double cap_sample_sum = 0.0;
  int64_t touched_items = 0;
  double final_cap_sum = 0.0;
  for (const auto& wm : wms_) {
    result->windows_dispatched += wm->windows_dispatched();
    result->read_group_expansions += wm->expansions();
    requests += wm->total_dispatched_requests();
    if (const core::AdaptiveWindowController* ctl =
            wm->adaptive_controller()) {
      cap_samples += ctl->windows_sampled();
      cap_sample_sum += ctl->cap_sample_sum();
      touched_items += ctl->TouchedItems();
      final_cap_sum += ctl->FinalCapSum();
      result->cap_increases += ctl->cap_increases();
      result->cap_decreases += ctl->cap_decreases();
    }
  }
  result->mean_forward_list_length =
      result->windows_dispatched > 0
          ? static_cast<double>(requests) /
                static_cast<double>(result->windows_dispatched)
          : 0.0;
  result->mean_effective_cap =
      cap_samples > 0 ? cap_sample_sum / static_cast<double>(cap_samples)
                      : 0.0;
  result->final_effective_cap =
      touched_items > 0
          ? final_cap_sum / static_cast<double>(touched_items)
          : 0.0;
}

}  // namespace gtpl::proto
