#include "spans.h"

#include <memory>
#include <mutex>

namespace perfbench {
namespace {

constexpr SiteInfo kSites[kNumSites] = {
    {"RunSimulation", "protocols"},
    {"EventQueue::Push", "sim"},
    {"EventQueue::Pop", "sim"},
    {"Simulator::Schedule", "sim"},
    {"Simulator::ScheduleAt", "sim"},
    {"Network::Send", "net"},
    {"LinkModel::AdmitUplink", "net"},
    {"LinkModel::AdmitDownlink", "net"},
    {"LockTable::Request", "db"},
    {"LockTable::ReleaseAll", "db"},
    {"WaitsForGraph::AddWaits", "db"},
    {"WaitsForGraph::ClearWaits", "db"},
    {"WaitsForGraph::RemoveTxn", "db"},
    {"WaitsForGraph::CycleThrough", "db"},
    {"WriteAheadLog::Append", "db"},
    {"WriteAheadLog::Force", "db"},
    {"WindowManager::OnRequest", "core"},
    {"WindowManager::OnReturn", "core"},
    {"WindowManager::OnTxnDrained", "core"},
    {"PrecedenceGraph::ReachableAmong", "core"},
    {"PrecedenceGraph::AddEdge", "core"},
    {"PrecedenceGraph::RemoveTxn", "core"},
    {"PrecedenceGraph::Contract", "core"},
    {"WorkloadGenerator::NextTxn", "workload"},
    {"rng::SampleDistinct", "workload"},
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;  // guarded by mu
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;  // outlives exiting threads
  return *registry;
}

}  // namespace

const SiteInfo& InfoOf(Site site) { return kSites[static_cast<int>(site)]; }

SpanRecorder& RegisterThreadRecorder() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.recorders.push_back(std::make_unique<SpanRecorder>());
  return *registry.recorders.back();
}

Totals CollectTotals() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  Totals sum{};
  for (const auto& recorder : registry.recorders) {
    for (int i = 0; i < kNumSites; ++i) {
      const SiteTotals& t = recorder->totals()[static_cast<size_t>(i)];
      SiteTotals& s = sum[static_cast<size_t>(i)];
      s.calls += t.calls;
      s.inclusive_ns += t.inclusive_ns;
      s.self_ns += t.self_ns;
      s.hits += t.hits;
    }
  }
  return sum;
}

void ResetTotals() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& recorder : registry.recorders) recorder->Reset();
}

}  // namespace perfbench
