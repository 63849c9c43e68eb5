// A18 — Extension: sticky client lock leases (DESIGN.md §14). The headline
// grid sweeps lease mode x contention (zipf skew) x WAN latency x the
// repeat-access fraction of the workload over a lock-table engine, so the
// table shows exactly when callback-revoked lease caching pays:
//
//  - At high skew *and* a high repeat fraction, hot items park at their
//    last client and repeat acquisitions are local hits (hits/c climbs
//    past 1), collapsing the op-wait p50 from ~2 RTT to near zero while
//    the contended tail still pays revoke round-trips.
//  - At low repeat fractions the cache rarely re-serves an entry before a
//    conflicting site claims it: every miss now costs revoke + re-grant
//    WAN rounds instead of one grant, and sticky loses outright — the
//    classic callback-caching trade (CSIM leases / YFS lock caching).
//  - Latency scales both effects: hits save more the longer the RTT, and
//    revokes cost more, so the crossover sits at the repeat fraction, not
//    at the RTT.
//
// The second table is the revoke-storm ablation: shrink the item universe
// at maximal skew so every grant lands on somebody else's cached lease.
// revokes/commit approaches hits/commit and the sticky column's advantage
// drains away — the storm regime the TTL and max-held knobs exist to tame.

#include <string>

#include "bench_common.h"
#include "lease/lease.h"

namespace gtpl::bench {
namespace {

struct Row {
  lease::LeaseMode mode;
  double zipf;
  SimTime latency;
  double repeat;
  int32_t items;
};

/// Lock engine under test: --cc if given (must accept the lease layer),
/// s-2PL otherwise.
const proto::EngineInfo& SelectedEngine(const harness::CliOptions& options) {
  return proto::Engines().For(options.cc.value_or(proto::Protocol::kS2pl));
}

/// Lease modes to sweep: the --lease mode alone if the flag was given,
/// otherwise both (none is the baseline column of every comparison).
std::vector<lease::LeaseMode> SelectedModes(const harness::CliOptions& options) {
  if (options.lease) return {*options.lease};
  return {lease::LeaseMode::kNone, lease::LeaseMode::kSticky};
}

proto::SimConfig LeaseBaseConfig(const harness::CliOptions& options,
                                 const proto::EngineInfo& engine) {
  proto::SimConfig config = PaperBaseConfig();
  harness::ApplyScale(options.scale, &config);
  config.protocol = engine.value;
  config.num_clients = 20;
  config.workload.num_items = 128;
  config.workload.read_prob = 0.5;
  return config;
}

void ApplyLease(const harness::CliOptions& options, lease::LeaseMode mode,
                proto::SimConfig* config) {
  config->lease = {mode, options.lease_ttl, options.lease_max_held};
  const Status status = config->Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "config rejected: %s\n", status.message().c_str());
    std::exit(2);
  }
}

void AddLeaseRow(harness::Table& table, const Row& row,
                 const harness::PointResult& point) {
  table.AddRow({lease::ToString(row.mode), harness::Fmt(row.zipf, 2),
                std::to_string(row.latency), harness::Fmt(row.repeat, 1),
                std::to_string(row.items),
                harness::Fmt(point.response.mean, 0),
                harness::Fmt(point.op_wait_p50, 0),
                harness::Fmt(point.abort_pct.mean, 1),
                harness::Fmt(point.lease_hits_per_commit, 2),
                harness::Fmt(point.lease_revokes_per_commit, 2),
                harness::Fmt(point.lease_releases_per_commit, 2),
                harness::Fmt(point.mean_lease_revoke_wait, 1),
                harness::Fmt(100 * point.response.relative_precision, 1)});
}

void Run(const harness::CliOptions& options) {
  const proto::EngineInfo& engine = SelectedEngine(options);
  const std::vector<lease::LeaseMode> modes = SelectedModes(options);
  const std::vector<std::string> columns = {
      "lease", "zipf",  "latency", "repeat", "items",   "resp",    "opw p50",
      "abort%", "hit/c", "rvk/c",  "rel/c",  "rvkwait", "ci%"};

  harness::Table headline(columns);
  TagGrid<Row> grid(options);
  for (const lease::LeaseMode mode : modes) {
    for (double zipf : {0.5, 0.9}) {
      for (SimTime latency : {100, 500, 1000}) {
        for (double repeat : {0.5, 0.9}) {
          proto::SimConfig config = LeaseBaseConfig(options, engine);
          config.latency = latency;
          config.workload.zipf_theta = zipf;
          config.workload.repeat_prob = repeat;
          ApplyLease(options, mode, &config);
          grid.Add(Row{mode, zipf, latency, repeat,
                       config.workload.num_items},
                   config);
        }
      }
    }
  }
  grid.Run();
  grid.Each([&headline](const Row& row, const harness::PointResult& point) {
    AddLeaseRow(headline, row, point);
  });
  std::printf("sticky leases (%s): mode x contention x latency x repeat "
              "fraction\n",
              engine.name);
  headline.Print(options.csv_path);
  grid.PrintSummary();

  harness::Table storm(columns);
  TagGrid<Row> ablation(options);
  for (const lease::LeaseMode mode : modes) {
    for (int32_t items : {16, 64, 256}) {
      proto::SimConfig config = LeaseBaseConfig(options, engine);
      config.latency = 500;
      config.workload.num_items = items;
      config.workload.zipf_theta = 0.95;
      config.workload.repeat_prob = 0.9;
      ApplyLease(options, mode, &config);
      ablation.Add(Row{mode, 0.95, 500, 0.9, items}, config);
    }
  }
  ablation.Run();
  ablation.Each([&storm](const Row& row, const harness::PointResult& point) {
    AddLeaseRow(storm, row, point);
  });
  std::printf("\nrevoke-storm ablation (zipf 0.95, repeat 0.9, latency 500): "
              "shrinking the item\nuniverse turns every grant into a "
              "callback — revokes/commit chases hits/commit\nand the sticky "
              "advantage drains\n");
  storm.Print();
  ablation.PrintSummary();
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "A18 extension: sticky client lock leases — mode x skew x latency x "
      "repeat fraction",
      options);
  gtpl::bench::Run(options);
  return 0;
}
