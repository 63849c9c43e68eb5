// A17 — Extension: geo-aware commit paths. Every registered commit-path
// variant (classic, early, fastpath, coord) swept over WAN latency x write
// mix on a 4-server shard layout, with the commit phase split into its
// per-round sub-spans (prepare flight, vote flight, residual) and the
// blocking WAN-flight count per cross-server commit:
//
//  - classic pays two flights (prepare out, votes back) on every
//    cross-server commit; the prepare and vote sub-spans each show one
//    one-way latency.
//  - early overlaps the prepare/vote round with execution (speculative
//    prepares piggybacked on each shard's last operation): under pure
//    propagation every vote is home by commit time, so flights drop to 0
//    and the cross-commit span p50 collapses.
//  - fastpath skips 2PC for single-write-shard transactions (the dominant
//    class under a read-heavy mix) — those commit at 0 flights, the rest
//    fall back to classic, and the p50 of the cross-commit span drops by
//    at least one WAN round.
//  - coord degrades to classic under uniform latency (the placement rule
//    never fires); the second table gives it a fast server mesh
//    (--server-latency) where remote coordination pays two extra client
//    flights to deliver decisions over the cheap mesh — lock-hold
//    reduction traded against response time.

#include "bench_common.h"
#include "protocols/commit.h"

namespace gtpl::bench {
namespace {

struct Row {
  const proto::CommitPathInfo* path;
  SimTime latency;
  SimTime server_latency;
  double read_prob;
};

std::vector<const proto::CommitPathInfo*> SelectedPaths(
    const harness::CliOptions& options) {
  std::vector<const proto::CommitPathInfo*> paths;
  for (const proto::CommitPathInfo& info : proto::CommitPaths()) {
    if (options.commit && *options.commit != info.value) continue;
    paths.push_back(&info);
  }
  return paths;
}

void AddRow(harness::Table& table, const Row& row,
            const harness::PointResult& point) {
  table.AddRow({row.path->name, std::to_string(row.latency),
                std::to_string(row.server_latency),
                harness::Fmt(row.read_prob, 1),
                harness::Fmt(point.response.mean, 0),
                harness::Fmt(point.abort_pct.mean, 1),
                harness::Fmt(point.cross_server_pct, 1),
                harness::Fmt(point.mean_commit_prepare, 1),
                harness::Fmt(point.mean_commit_vote, 1),
                harness::Fmt(point.mean_commit_phase, 1),
                harness::Fmt(point.xcommit_p50, 0),
                harness::Fmt(point.mean_commit_flights, 2),
                harness::Fmt(point.fastpath_pct, 1),
                harness::Fmt(point.coord_remote_pct, 1),
                harness::Fmt(100 * point.response.relative_precision, 1)});
}

void Run(const harness::CliOptions& options) {
  const std::vector<const proto::CommitPathInfo*> paths =
      SelectedPaths(options);
  const proto::Protocol engine = options.cc.value_or(proto::Protocol::kS2pl);
  const std::vector<std::string> columns = {
      "commit", "latency", "srvlat", "readp",   "resp", "abort%",
      "cross%", "prep",    "vote",   "commit",  "xp50", "flights",
      "fast%",  "coord%",  "ci%"};

  harness::Table main_table(columns);
  TagGrid<Row> grid(options);
  for (const proto::CommitPathInfo* path : paths) {
    for (SimTime latency : {100, 500, 750}) {
      for (double read_prob : {0.5, 0.8}) {
        proto::SimConfig config = PaperBaseConfig();
        harness::ApplyScale(options.scale, &config);
        config.protocol = engine;
        config.num_servers = 4;
        config.latency = latency;
        config.commit_path = path->value;
        config.workload.read_prob = read_prob;
        grid.Add(Row{path, latency, -1, read_prob}, config);
      }
    }
  }
  grid.Run();
  grid.Each([&main_table](const Row& row, const harness::PointResult& point) {
    AddRow(main_table, row, point);
  });
  std::printf("commit paths: variant x latency x write mix (4 servers), "
              "per-round commit sub-spans\n");
  main_table.Print(options.csv_path);
  grid.PrintSummary();

  // The placement ablation compares the client against the chosen
  // coordinator, so it runs only the classic and coord paths; a --commit
  // selection without either leaves it nothing to run.
  std::vector<const proto::CommitPathInfo*> placement_paths;
  for (const proto::CommitPathInfo* path : paths) {
    if (path->value == proto::CommitPath::kClassic ||
        path->value == proto::CommitPath::kCoord) {
      placement_paths.push_back(path);
    }
  }
  if (placement_paths.empty()) return;
  harness::Table coord_table(columns);
  TagGrid<Row> ablation(options);
  for (const proto::CommitPathInfo* path : placement_paths) {
    for (SimTime server_latency : {200, 50, 10}) {
      proto::SimConfig config = PaperBaseConfig();
      harness::ApplyScale(options.scale, &config);
      config.protocol = engine;
      config.num_servers = 4;
      config.latency = 200;
      config.server_latency = server_latency;
      config.commit_path = path->value;
      config.workload.read_prob = 0.5;
      ablation.Add(Row{path, 200, server_latency, 0.5}, config);
    }
  }
  ablation.Run();
  ablation.Each(
      [&coord_table](const Row& row, const harness::PointResult& point) {
        AddRow(coord_table, row, point);
      });
  std::printf("\ncoordinator placement ablation (latency 200, shrinking "
              "server mesh):\nremote coordination turns on as the mesh gets "
              "cheap relative to the WAN\n");
  coord_table.Print();
  ablation.PrintSummary();
}

}  // namespace
}  // namespace gtpl::bench

int main(int argc, char** argv) {
  const gtpl::harness::CliOptions options = gtpl::bench::ParseOrDie(argc, argv);
  gtpl::harness::PrintBanner(
      "A17 extension: geo-aware commit paths — variant x latency x write mix",
      options);
  gtpl::bench::Run(options);
  return 0;
}
