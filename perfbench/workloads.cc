#include "workloads.h"

#include <cstring>

#include "rng/rng.h"

namespace perfbench {
namespace {

using gtpl::proto::Protocol;
using gtpl::proto::SimConfig;

// Paper Table 1 defaults shared by every workload: 1-5 ops per txn, think
// U[1,3], idle U[2,10], MPL 1, uniform access (SimConfig's defaults).
SimConfig PaperConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 50;
  config.latency = 50;
  config.workload.num_items = 25;
  config.workload.read_prob = 0.5;
  return config;
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> workloads;

  Workload s2pl{"paper_s2pl", PaperConfig(Protocol::kS2pl), 20000, 2000};
  workloads.push_back(s2pl);

  Workload g2pl{"paper_g2pl", PaperConfig(Protocol::kG2pl), 10000, 2000};
  workloads.push_back(g2pl);

  // Nowait on 8 hash-routed servers, 64 clients and 512 items at latency
  // 100 under the parallel per-shard engine. The engine's memory is kept
  // small on purpose: the memory traffic of co-tenants on a shared host
  // swung its speed by up to 3.5x from one minute to the next at 1024
  // clients and 8192 items (~117 MB), and by 1.5x at 256 and 2048 (~23 MB).
  SimConfig parsim_config;
  parsim_config.protocol = Protocol::kNoWait;
  parsim_config.num_servers = 8;
  parsim_config.num_clients = 64;
  parsim_config.latency = 100;
  parsim_config.workload.num_items = 512;
  parsim_config.workload.read_prob = 0.8;
  parsim_config.instant_abort_notice = false;
  parsim_config.sim_threads = 2;
  workloads.push_back(Workload{"parsim_wide", parsim_config, 20000, 150});

  return workloads;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = BuildWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

uint64_t ReplicationSeed(uint64_t workload_seed, int64_t index) {
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  return gtpl::rng::SplitMix64(workload_seed +
                               static_cast<uint64_t>(index) * kGolden);
}

SimConfig MakeConfig(const Workload& workload, uint64_t seed,
                     int64_t measured_txns) {
  SimConfig config = workload.base;
  config.seed = seed;
  config.measured_txns = measured_txns;
  config.warmup_txns = measured_txns > 1 ? kWarmupTxns : 0;
  config.max_sim_time = workload.horizon_per_commit *
                        (config.measured_txns + config.warmup_txns + 1000);
  return config;
}

std::string Digest(const gtpl::proto::RunResult& result) {
  const double mean = result.response.mean();
  uint64_t mean_bits = 0;
  std::memcpy(&mean_bits, &mean, sizeof(mean_bits));
  return "commits=" + std::to_string(result.commits) +
         " aborts=" + std::to_string(result.aborts) +
         " total_commits=" + std::to_string(result.total_commits) +
         " total_aborts=" + std::to_string(result.total_aborts) +
         " events=" + std::to_string(result.events) +
         " messages=" + std::to_string(result.network.messages) +
         " end_time=" + std::to_string(result.end_time) +
         " response_bits=" + std::to_string(mean_bits);
}

}  // namespace perfbench
