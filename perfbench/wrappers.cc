// Link-time interposition of each layer's entry points for the traced
// benchmark binary. The binary is linked with -Wl,--wrap=<symbol> for every
// WRAP(symbol) below (CMakeLists.txt collects them from this file): calls
// from other object files to <symbol> then reach __wrap_<symbol>, which
// times the call as a span and forwards to __real_<symbol>, the original.
// Calls inside one object file are not interposed, so a function whose
// only callers share its object file (PrecedenceGraph::CanReach,
// WindowManager::OnTxnAborted) is charged to its caller's self time.
//
// Each declaration must match the source signature exactly: the wrapper
// and the original share one calling convention, and a member function
// takes `this` as its first argument.

#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/precedence_graph.h"
#include "core/window_manager.h"
#include "db/lock_table.h"
#include "db/waits_for_graph.h"
#include "db/wal.h"
#include "net/link_model.h"
#include "net/network.h"
#include "rng/distributions.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workload/generator.h"

#define REAL(symbol) asm("__real_" #symbol)
#define WRAP(symbol) asm("__wrap_" #symbol)

using gtpl::ItemId;
using gtpl::LockMode;
using gtpl::SimTime;
using gtpl::SiteId;
using gtpl::TxnId;
using gtpl::Version;
using perfbench::ScopedSpan;
using perfbench::Site;
using Action = std::function<void()>;

// ---- sim -------------------------------------------------------------

void RealPush(gtpl::sim::EventQueue*, SimTime, uint64_t, Action)
    REAL(_ZN4gtpl3sim10EventQueue4PushElmSt8functionIFvvEE);
void WrapPush(gtpl::sim::EventQueue* self, SimTime time, uint64_t seq,
              Action action)
    WRAP(_ZN4gtpl3sim10EventQueue4PushElmSt8functionIFvvEE);
void WrapPush(gtpl::sim::EventQueue* self, SimTime time, uint64_t seq,
              Action action) {
  ScopedSpan span(Site::kEventQueuePush);
  RealPush(self, time, seq, std::move(action));
}

gtpl::sim::Event RealPop(gtpl::sim::EventQueue*)
    REAL(_ZN4gtpl3sim10EventQueue3PopEv);
gtpl::sim::Event WrapPop(gtpl::sim::EventQueue* self)
    WRAP(_ZN4gtpl3sim10EventQueue3PopEv);
gtpl::sim::Event WrapPop(gtpl::sim::EventQueue* self) {
  ScopedSpan span(Site::kEventQueuePop);
  return RealPop(self);
}

void RealSchedule(gtpl::sim::Simulator*, SimTime, Action)
    REAL(_ZN4gtpl3sim9Simulator8ScheduleElSt8functionIFvvEE);
void WrapSchedule(gtpl::sim::Simulator* self, SimTime delay, Action action)
    WRAP(_ZN4gtpl3sim9Simulator8ScheduleElSt8functionIFvvEE);
void WrapSchedule(gtpl::sim::Simulator* self, SimTime delay, Action action) {
  ScopedSpan span(Site::kSimulatorSchedule);
  RealSchedule(self, delay, std::move(action));
}

void RealScheduleAt(gtpl::sim::Simulator*, SimTime, Action)
    REAL(_ZN4gtpl3sim9Simulator10ScheduleAtElSt8functionIFvvEE);
void WrapScheduleAt(gtpl::sim::Simulator* self, SimTime when, Action action)
    WRAP(_ZN4gtpl3sim9Simulator10ScheduleAtElSt8functionIFvvEE);
void WrapScheduleAt(gtpl::sim::Simulator* self, SimTime when, Action action) {
  ScopedSpan span(Site::kSimulatorScheduleAt);
  RealScheduleAt(self, when, std::move(action));
}

// ---- net -------------------------------------------------------------

void RealSend(gtpl::net::Network*, SiteId, SiteId, std::string, Action,
              uint64_t)
    REAL(_ZN4gtpl3net7Network4SendEiiNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEEm);
void WrapSend(gtpl::net::Network* self, SiteId from, SiteId to,
              std::string label, Action on_deliver, uint64_t payload)
    WRAP(_ZN4gtpl3net7Network4SendEiiNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEEm);
void WrapSend(gtpl::net::Network* self, SiteId from, SiteId to,
              std::string label, Action on_deliver, uint64_t payload) {
  ScopedSpan span(Site::kNetworkSend);
  RealSend(self, from, to, std::move(label), std::move(on_deliver), payload);
}

SimTime RealAdmitUplink(gtpl::net::LinkModel*, SiteId, uint64_t, SimTime)
    REAL(_ZN4gtpl3net9LinkModel11AdmitUplinkEiml);
SimTime WrapAdmitUplink(gtpl::net::LinkModel* self, SiteId from,
                        uint64_t payload, SimTime now)
    WRAP(_ZN4gtpl3net9LinkModel11AdmitUplinkEiml);
SimTime WrapAdmitUplink(gtpl::net::LinkModel* self, SiteId from,
                        uint64_t payload, SimTime now) {
  ScopedSpan span(Site::kLinkAdmitUplink);
  return RealAdmitUplink(self, from, payload, now);
}

SimTime RealAdmitDownlink(gtpl::net::LinkModel*, SiteId, uint64_t, SimTime)
    REAL(_ZN4gtpl3net9LinkModel13AdmitDownlinkEiml);
SimTime WrapAdmitDownlink(gtpl::net::LinkModel* self, SiteId to,
                          uint64_t payload, SimTime now)
    WRAP(_ZN4gtpl3net9LinkModel13AdmitDownlinkEiml);
SimTime WrapAdmitDownlink(gtpl::net::LinkModel* self, SiteId to,
                          uint64_t payload, SimTime now) {
  ScopedSpan span(Site::kLinkAdmitDownlink);
  return RealAdmitDownlink(self, to, payload, now);
}

// ---- db --------------------------------------------------------------

gtpl::db::LockResult RealRequest(gtpl::db::LockTable*, TxnId, ItemId,
                                 LockMode)
    REAL(_ZN4gtpl2db9LockTable7RequestEliNS_8LockModeE);
gtpl::db::LockResult WrapRequest(gtpl::db::LockTable* self, TxnId txn,
                                 ItemId item, LockMode mode)
    WRAP(_ZN4gtpl2db9LockTable7RequestEliNS_8LockModeE);
gtpl::db::LockResult WrapRequest(gtpl::db::LockTable* self, TxnId txn,
                                 ItemId item, LockMode mode) {
  ScopedSpan span(Site::kLockRequest);
  const gtpl::db::LockResult result = RealRequest(self, txn, item, mode);
  if (result == gtpl::db::LockResult::kWaiting) {
    perfbench::ThreadRecorder().CountHit(Site::kLockRequest);
  }
  return result;
}

void RealReleaseAll(gtpl::db::LockTable*, TxnId,
                    const gtpl::db::LockTable::GrantCallback&)
    REAL(_ZN4gtpl2db9LockTable10ReleaseAllElRKSt8functionIFvliNS_8LockModeEEE);
void WrapReleaseAll(gtpl::db::LockTable* self, TxnId txn,
                    const gtpl::db::LockTable::GrantCallback& on_grant)
    WRAP(_ZN4gtpl2db9LockTable10ReleaseAllElRKSt8functionIFvliNS_8LockModeEEE);
void WrapReleaseAll(gtpl::db::LockTable* self, TxnId txn,
                    const gtpl::db::LockTable::GrantCallback& on_grant) {
  ScopedSpan span(Site::kLockReleaseAll);
  RealReleaseAll(self, txn, on_grant);
}

void RealAddWaits(gtpl::db::WaitsForGraph*, TxnId, const std::vector<TxnId>&)
    REAL(_ZN4gtpl2db13WaitsForGraph8AddWaitsElRKSt6vectorIlSaIlEE);
void WrapAddWaits(gtpl::db::WaitsForGraph* self, TxnId waiter,
                  const std::vector<TxnId>& holders)
    WRAP(_ZN4gtpl2db13WaitsForGraph8AddWaitsElRKSt6vectorIlSaIlEE);
void WrapAddWaits(gtpl::db::WaitsForGraph* self, TxnId waiter,
                  const std::vector<TxnId>& holders) {
  ScopedSpan span(Site::kWfgAddWaits);
  RealAddWaits(self, waiter, holders);
}

void RealClearWaits(gtpl::db::WaitsForGraph*, TxnId)
    REAL(_ZN4gtpl2db13WaitsForGraph10ClearWaitsEl);
void WrapClearWaits(gtpl::db::WaitsForGraph* self, TxnId txn)
    WRAP(_ZN4gtpl2db13WaitsForGraph10ClearWaitsEl);
void WrapClearWaits(gtpl::db::WaitsForGraph* self, TxnId txn) {
  ScopedSpan span(Site::kWfgClearWaits);
  RealClearWaits(self, txn);
}

void RealWfgRemoveTxn(gtpl::db::WaitsForGraph*, TxnId)
    REAL(_ZN4gtpl2db13WaitsForGraph9RemoveTxnEl);
void WrapWfgRemoveTxn(gtpl::db::WaitsForGraph* self, TxnId txn)
    WRAP(_ZN4gtpl2db13WaitsForGraph9RemoveTxnEl);
void WrapWfgRemoveTxn(gtpl::db::WaitsForGraph* self, TxnId txn) {
  ScopedSpan span(Site::kWfgRemoveTxn);
  RealWfgRemoveTxn(self, txn);
}

std::vector<TxnId> RealCycleThrough(const gtpl::db::WaitsForGraph*, TxnId)
    REAL(_ZNK4gtpl2db13WaitsForGraph12CycleThroughEl);
std::vector<TxnId> WrapCycleThrough(const gtpl::db::WaitsForGraph* self,
                                    TxnId start)
    WRAP(_ZNK4gtpl2db13WaitsForGraph12CycleThroughEl);
std::vector<TxnId> WrapCycleThrough(const gtpl::db::WaitsForGraph* self,
                                    TxnId start) {
  ScopedSpan span(Site::kWfgCycleThrough);
  std::vector<TxnId> cycle = RealCycleThrough(self, start);
  if (!cycle.empty()) {
    perfbench::ThreadRecorder().CountHit(Site::kWfgCycleThrough);
  }
  return cycle;
}

int64_t RealAppend(gtpl::db::WriteAheadLog*, gtpl::db::LogRecordKind, TxnId,
                   ItemId, Version)
    REAL(_ZN4gtpl2db13WriteAheadLog6AppendENS0_13LogRecordKindElil);
int64_t WrapAppend(gtpl::db::WriteAheadLog* self,
                   gtpl::db::LogRecordKind kind, TxnId txn, ItemId item,
                   Version version)
    WRAP(_ZN4gtpl2db13WriteAheadLog6AppendENS0_13LogRecordKindElil);
int64_t WrapAppend(gtpl::db::WriteAheadLog* self,
                   gtpl::db::LogRecordKind kind, TxnId txn, ItemId item,
                   Version version) {
  ScopedSpan span(Site::kWalAppend);
  return RealAppend(self, kind, txn, item, version);
}

SimTime RealForce(gtpl::db::WriteAheadLog*, int64_t)
    REAL(_ZN4gtpl2db13WriteAheadLog5ForceEl);
SimTime WrapForce(gtpl::db::WriteAheadLog* self, int64_t lsn)
    WRAP(_ZN4gtpl2db13WriteAheadLog5ForceEl);
SimTime WrapForce(gtpl::db::WriteAheadLog* self, int64_t lsn) {
  ScopedSpan span(Site::kWalForce);
  return RealForce(self, lsn);
}

// ---- core ------------------------------------------------------------

void RealOnRequest(gtpl::core::WindowManager*, TxnId, SiteId, ItemId,
                   LockMode, int32_t)
    REAL(_ZN4gtpl4core13WindowManager9OnRequestEliiNS_8LockModeEi);
void WrapOnRequest(gtpl::core::WindowManager* self, TxnId txn, SiteId client,
                   ItemId item, LockMode mode, int32_t restart_count)
    WRAP(_ZN4gtpl4core13WindowManager9OnRequestEliiNS_8LockModeEi);
void WrapOnRequest(gtpl::core::WindowManager* self, TxnId txn, SiteId client,
                   ItemId item, LockMode mode, int32_t restart_count) {
  ScopedSpan span(Site::kWindowOnRequest);
  RealOnRequest(self, txn, client, item, mode, restart_count);
}

void RealOnReturn(gtpl::core::WindowManager*, ItemId, Version)
    REAL(_ZN4gtpl4core13WindowManager8OnReturnEil);
void WrapOnReturn(gtpl::core::WindowManager* self, ItemId item,
                  Version version)
    WRAP(_ZN4gtpl4core13WindowManager8OnReturnEil);
void WrapOnReturn(gtpl::core::WindowManager* self, ItemId item,
                  Version version) {
  ScopedSpan span(Site::kWindowOnReturn);
  RealOnReturn(self, item, version);
}

void RealOnTxnDrained(gtpl::core::WindowManager*, TxnId)
    REAL(_ZN4gtpl4core13WindowManager12OnTxnDrainedEl);
void WrapOnTxnDrained(gtpl::core::WindowManager* self, TxnId txn)
    WRAP(_ZN4gtpl4core13WindowManager12OnTxnDrainedEl);
void WrapOnTxnDrained(gtpl::core::WindowManager* self, TxnId txn) {
  ScopedSpan span(Site::kWindowOnTxnDrained);
  RealOnTxnDrained(self, txn);
}

std::vector<TxnId> RealReachableAmong(const gtpl::core::PrecedenceGraph*,
                                      TxnId, const std::unordered_set<TxnId>&)
    REAL(_ZNK4gtpl4core15PrecedenceGraph14ReachableAmongElRKSt13unordered_setIlSt4hashIlESt8equal_toIlESaIlEE);
std::vector<TxnId> WrapReachableAmong(
    const gtpl::core::PrecedenceGraph* self, TxnId from,
    const std::unordered_set<TxnId>& candidates)
    WRAP(_ZNK4gtpl4core15PrecedenceGraph14ReachableAmongElRKSt13unordered_setIlSt4hashIlESt8equal_toIlESaIlEE);
std::vector<TxnId> WrapReachableAmong(
    const gtpl::core::PrecedenceGraph* self, TxnId from,
    const std::unordered_set<TxnId>& candidates) {
  ScopedSpan span(Site::kGraphReachableAmong);
  return RealReachableAmong(self, from, candidates);
}

void RealAddEdge(gtpl::core::PrecedenceGraph*, TxnId, TxnId,
                 gtpl::core::EdgeKind)
    REAL(_ZN4gtpl4core15PrecedenceGraph7AddEdgeEllNS0_8EdgeKindE);
void WrapAddEdge(gtpl::core::PrecedenceGraph* self, TxnId a, TxnId b,
                 gtpl::core::EdgeKind kind)
    WRAP(_ZN4gtpl4core15PrecedenceGraph7AddEdgeEllNS0_8EdgeKindE);
void WrapAddEdge(gtpl::core::PrecedenceGraph* self, TxnId a, TxnId b,
                 gtpl::core::EdgeKind kind) {
  ScopedSpan span(Site::kGraphAddEdge);
  RealAddEdge(self, a, b, kind);
}

void RealGraphRemoveTxn(gtpl::core::PrecedenceGraph*, TxnId)
    REAL(_ZN4gtpl4core15PrecedenceGraph9RemoveTxnEl);
void WrapGraphRemoveTxn(gtpl::core::PrecedenceGraph* self, TxnId txn)
    WRAP(_ZN4gtpl4core15PrecedenceGraph9RemoveTxnEl);
void WrapGraphRemoveTxn(gtpl::core::PrecedenceGraph* self, TxnId txn) {
  ScopedSpan span(Site::kGraphRemoveTxn);
  RealGraphRemoveTxn(self, txn);
}

void RealContract(gtpl::core::PrecedenceGraph*, TxnId)
    REAL(_ZN4gtpl4core15PrecedenceGraph8ContractEl);
void WrapContract(gtpl::core::PrecedenceGraph* self, TxnId txn)
    WRAP(_ZN4gtpl4core15PrecedenceGraph8ContractEl);
void WrapContract(gtpl::core::PrecedenceGraph* self, TxnId txn) {
  ScopedSpan span(Site::kGraphContract);
  RealContract(self, txn);
}

// ---- workload --------------------------------------------------------

gtpl::workload::TxnSpec RealNextTxn(gtpl::workload::WorkloadGenerator*)
    REAL(_ZN4gtpl8workload17WorkloadGenerator7NextTxnEv);
gtpl::workload::TxnSpec WrapNextTxn(gtpl::workload::WorkloadGenerator* self)
    WRAP(_ZN4gtpl8workload17WorkloadGenerator7NextTxnEv);
gtpl::workload::TxnSpec WrapNextTxn(gtpl::workload::WorkloadGenerator* self) {
  ScopedSpan span(Site::kNextTxn);
  return RealNextTxn(self);
}

std::vector<int32_t> RealSampleDistinct(gtpl::rng::Rng&, int32_t, int32_t)
    REAL(_ZN4gtpl3rng14SampleDistinctERNS0_3RngEii);
std::vector<int32_t> WrapSampleDistinct(gtpl::rng::Rng& rng, int32_t n,
                                        int32_t k)
    WRAP(_ZN4gtpl3rng14SampleDistinctERNS0_3RngEii);
std::vector<int32_t> WrapSampleDistinct(gtpl::rng::Rng& rng, int32_t n,
                                        int32_t k) {
  ScopedSpan span(Site::kSampleDistinct);
  return RealSampleDistinct(rng, n, k);
}
