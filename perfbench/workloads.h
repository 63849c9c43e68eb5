#ifndef GTPL_PERFBENCH_WORKLOADS_H_
#define GTPL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "protocols/config.h"
#include "protocols/metrics.h"

namespace perfbench {

/// Warmup commits before every measured replication.
inline constexpr int64_t kWarmupTxns = 1000;

/// Measured commits of the short replications of the correctness gate and
/// of the trace-streaming pass.
inline constexpr int64_t kCheckTxns = 2000;

/// One canonical simulator configuration the benchmark measures. A
/// replication is one proto::RunSimulation call of `measured_txns` measured
/// commits after kWarmupTxns warmup commits. A replication whose simulated
/// clock passes `horizon_per_commit` per commit (plus a thousand commits'
/// slack) stops and reports timed_out, about ten times the usual end time.
struct Workload {
  std::string name;
  gtpl::proto::SimConfig base;
  int64_t measured_txns = 0;
  gtpl::SimTime horizon_per_commit = 0;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Seed of replication `index` under the benchmark's workload seed: the
/// index-th SplitMix64 output of the stream at `workload_seed`.
uint64_t ReplicationSeed(uint64_t workload_seed, int64_t index);

/// The workload's configuration for one replication: `measured_txns`
/// measured commits (after kWarmupTxns, or none when `measured_txns` is the
/// set-up probe's 1) under simulation seed `seed`.
gtpl::proto::SimConfig MakeConfig(const Workload& workload, uint64_t seed,
                                  int64_t measured_txns);

/// The simulated outcome of a run in one comparable string: commits,
/// aborts, total commits and aborts, events, messages, end time and the bit
/// pattern of the mean response time. Host timing never enters it, so it
/// is identical for every run of one configuration, traced or not.
std::string Digest(const gtpl::proto::RunResult& result);

}  // namespace perfbench

#endif  // GTPL_PERFBENCH_WORKLOADS_H_
