#!/usr/bin/env python3
"""Host-performance benchmark of the gtpl simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the two runners (perfbench/CMakeLists.txt) into .bench_build/ under
the checkout, runs one workload and prints, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end host metrics of the untraced runner; with
--trace 1 they are the per-layer metrics of the interposed runner, checked
against an untraced pass over the same replication seeds. README.md
describes the workloads and every metric.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CONFIG_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper_s2pl", "paper_g2pl", "parsim_wide")

# A run must end within 180 s once built; leave headroom for start-up.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SIM_SITES = {"EventQueue::Push", "EventQueue::Pop", "Simulator::Schedule",
             "Simulator::ScheduleAt"}
LINK_SITES = {"LinkModel::AdmitUplink", "LinkModel::AdmitDownlink"}
LOCK_SITES = {"LockTable::Request", "LockTable::ReleaseAll"}
WFG_SITES = {"WaitsForGraph::AddWaits", "WaitsForGraph::ClearWaits",
             "WaitsForGraph::RemoveTxn", "WaitsForGraph::CycleThrough"}
CORE_SITES = {"WindowManager::OnRequest", "WindowManager::OnReturn",
              "WindowManager::OnTxnDrained",
              "PrecedenceGraph::ReachableAmong", "PrecedenceGraph::AddEdge",
              "PrecedenceGraph::RemoveTxn", "PrecedenceGraph::Contract"}

# Interposed sites each workload never reaches; every other site must be
# called at least once per traced pass. A wrapper that silently stops
# interposing (an inlined or re-signatured entry point) fails this check.
# No workload runs the finite-bandwidth link model (the only caller of
# ScheduleAt); perfbench_test checks those wrappers.
EXPECTED_IDLE = {
    "paper_s2pl": CORE_SITES | LINK_SITES | {"Simulator::ScheduleAt"},
    "paper_g2pl": LOCK_SITES | WFG_SITES | LINK_SITES |
                  {"Simulator::ScheduleAt"},
    # The parallel engine keeps its own per-LP queues and channels.
    "parsim_wide": CORE_SITES | LINK_SITES | WFG_SITES |
                   {"Simulator::Schedule", "Simulator::ScheduleAt",
                    "Network::Send"},
}
PARALLEL_WORKLOADS = {"parsim_wide"}

END_TO_END_UNITS = {
    "commits_per_s": "commits/s",
    "events_per_s": "events/s",
    "cpu_us_per_commit": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A failure of the benchmark itself: no result may be printed."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources missing under {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        home = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$",
                         cache.read_text(), re.M)
        if home is None or Path(home.group(1)).resolve() != HERE:
            shutil.rmtree(BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench_e2e", "perfbench_traced"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")


def check_symbol_tables():
    """The untraced runner must link no wrapper; the traced one all of them."""
    wanted = set()
    for line in (HERE / "wrappers.cc").read_text().splitlines():
        found = re.search(r"WRAP\((_Z[A-Za-z0-9_]+)\)", line)
        if found:
            wanted.add("__wrap_" + found.group(1))

    def wrappers_in(binary):
        out = subprocess.run(["nm", str(binary)], capture_output=True,
                             text=True, check=True, timeout=60).stdout
        return {parts[-1] for parts in map(str.split, out.splitlines())
                if parts and parts[-1].startswith("__wrap_")}

    plain = wrappers_in(BUILD / "perfbench_e2e")
    if plain:
        raise BenchError(f"untraced runner links wrappers: {sorted(plain)}")
    missing = wanted - wrappers_in(BUILD / "perfbench_traced")
    if not wanted or missing:
        raise BenchError(f"traced runner lacks wrappers: {sorted(missing)}")


def run_runner(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    command = [str(BUILD / binary)] + args
    try:
        done = subprocess.run(command, cwd=BUILD, capture_output=True,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{binary} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{binary} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def fast_decile(values):
    """The 90th percentile, as statistics.quantiles gives it (one value
    alone is its own percentile)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(raw):
    """End-to-end metrics and failure counts of one --mode e2e pass.

    Each timing metric is the fastest decile of its per-replication rates:
    the 90th percentile of commits or events per second, and the 10th
    percentile of CPU time per commit and of set-up time. On a shared host
    interference only ever adds time, in stretches of seconds to minutes
    that slow the whole machine by a third or more; a run's median follows
    how much of the run such stretches covered, while the fastest decile
    follows the program whenever the run saw a quiet stretch at all."""
    reps = raw["reps"]
    gate = raw["gate"]
    failed = sum(1 for r in reps if r["timed_out"])
    failed += int(not gate["deterministic"])
    failed += int(not gate["serializable"])
    failed += int(gate["timed_out"])
    # The gate runs three short replications: two plain, one with history.
    attempted = len(reps) + 3
    metrics = {
        "commits_per_s": fast_decile(
            r["total_commits"] / r["wall_s"] for r in reps),
        "events_per_s": fast_decile(r["events"] / r["wall_s"] for r in reps),
        "cpu_us_per_commit": 1e6 / fast_decile(
            r["total_commits"] / r["cpu_s"] for r in reps),
        "setup_s": 1.0 / fast_decile(1.0 / s for s in raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    median_rate = statistics.median(r["total_commits"] / r["wall_s"]
                                    for r in reps)
    median_response = statistics.median(r["response_mean"] for r in reps)
    log(f"{len(reps)} measured replications, {len(raw['setup_s'])} set-up "
        f"probes, median commits/s {median_rate:.0f}, median simulated "
        f"response {median_response:.2f}, gate {gate}")
    return ({name: metric(value, END_TO_END_UNITS[name])
             for name, value in metrics.items()}, attempted, failed)


def check_coverage(workload, traced):
    sites = traced["sites"]
    idle = EXPECTED_IDLE[workload]
    wrong = [f"{name}={site['calls']}" for name, site in sites.items()
             if name != "RunSimulation" and
             (site["calls"] == 0) != (name in idle)]
    windows = sum(r["sync_windows"] for r in traced["reps"])
    if (windows > 0) != (workload in PARALLEL_WORKLOADS):
        wrong.append(f"sync_windows={windows}")
    if wrong:
        raise BenchError(f"interposed call pattern on {workload} differs "
                         f"from the prediction: {', '.join(wrong)}")


def per_layer(workload, traced, plain, stream):
    """Per-layer metrics and failure counts of one traced pass, the untraced
    pass over the same seeds and the trace-streaming pass."""
    check_coverage(workload, traced)
    reps = traced["reps"]
    failed = sum(1 for t, p in zip(reps, plain["reps"])
                 if t["digest"] != p["digest"] or t["timed_out"]
                 or p["timed_out"])
    failed += int(stream["plain_digest"] != stream["stream_digest"])
    attempted = 2 * len(reps) + 2

    sites = traced["sites"]
    n = len(reps)
    commits = sum(r["total_commits"] for r in reps)
    wall = sum(r["wall_s"] for r in reps)
    cpu = sum(r["cpu_s"] for r in reps)

    def calls(*names):
        return sum(sites[name]["calls"] for name in names)

    def self_ns_per_call(name):
        return ratio(sites[name]["self_ns"], sites[name]["calls"])

    def layer_self_s(layer):
        return sum(s["self_ns"] for s in sites.values()
                   if s["layer"] == layer) / 1e9

    layers = ("sim", "net", "db", "core", "workload")
    layer_self = {layer: layer_self_s(layer) for layer in layers}
    # What no interposed layer claims is the engines' own code: lifecycle,
    # policies, 2PC, callback bodies. Parallel passes charge thread time, so
    # their base is process CPU time rather than wall time.
    base = cpu if workload in PARALLEL_WORKLOADS else wall
    protocols_self = base - sum(layer_self.values())
    windows = sum(r["sync_windows"] for r in reps)
    lp_windows = sum(r["sync_windows"] * r["lps"] for r in reps)
    imbalance = [ratio(r["max_lp_events"] * r["lps"], r["sum_lp_events"])
                 for r in reps]
    overhead = [t["wall_s"] / p["wall_s"] - 1.0
                for t, p in zip(reps, plain["reps"])]

    values = [
        ("sim.events_per_commit", ratio(sum(r["events"] for r in reps),
                                        commits), "events/commit"),
        ("sim.push_ns", self_ns_per_call("EventQueue::Push"), "ns"),
        ("sim.pop_ns", self_ns_per_call("EventQueue::Pop"), "ns"),
        ("sim.self_s", layer_self["sim"] / n, "s"),
        ("sim.par_windows_per_commit", ratio(windows, commits),
         "windows/commit"),
        ("sim.par_stall_ratio",
         ratio(sum(r["sync_stalls"] for r in reps), lp_windows), "ratio"),
        ("sim.par_lp_imbalance", statistics.median(imbalance), "ratio"),
        ("net.msgs_per_commit", ratio(sum(r["messages"] for r in reps),
                                      commits), "msgs/commit"),
        ("net.send_ns", self_ns_per_call("Network::Send"), "ns"),
        ("net.self_s", layer_self["net"] / n, "s"),
        ("db.lock_requests_per_commit",
         ratio(calls("LockTable::Request"), commits), "calls/commit"),
        ("db.lock_wait_ratio", ratio(sites["LockTable::Request"]["hits"],
                                     calls("LockTable::Request")), "ratio"),
        ("db.lock_request_ns", self_ns_per_call("LockTable::Request"), "ns"),
        ("db.release_ns", self_ns_per_call("LockTable::ReleaseAll"), "ns"),
        ("db.wfg_calls_per_commit", ratio(calls(*WFG_SITES), commits),
         "calls/commit"),
        ("db.cycle_ns", self_ns_per_call("WaitsForGraph::CycleThrough"),
         "ns"),
        ("db.cycle_hit_ratio",
         ratio(sites["WaitsForGraph::CycleThrough"]["hits"],
               calls("WaitsForGraph::CycleThrough")), "ratio"),
        ("db.self_s", layer_self["db"] / n, "s"),
        ("core.window_requests_per_commit",
         ratio(calls("WindowManager::OnRequest"), commits), "calls/commit"),
        ("core.on_request_ns", self_ns_per_call("WindowManager::OnRequest"),
         "ns"),
        ("core.on_return_ns", self_ns_per_call("WindowManager::OnReturn"),
         "ns"),
        ("core.reach_calls_per_commit",
         ratio(calls("PrecedenceGraph::ReachableAmong"), commits),
         "calls/commit"),
        ("core.reach_ns", self_ns_per_call("PrecedenceGraph::ReachableAmong"),
         "ns"),
        ("core.self_s", layer_self["core"] / n, "s"),
        ("workload.next_txn_ns",
         self_ns_per_call("WorkloadGenerator::NextTxn"), "ns"),
        ("workload.self_s", layer_self["workload"] / n, "s"),
        ("protocols.self_s", protocols_self / n, "s"),
        ("obs.trace_bytes_per_commit",
         ratio(stream["stream_bytes"], stream["total_commits"]), "B/commit"),
        ("obs.stream_s", stream["stream_wall_s"] - stream["plain_wall_s"],
         "s"),
        ("bench.traced_wall_s", wall / n, "s"),
        ("bench.trace_overhead", statistics.median(overhead), "ratio"),
    ]
    base_name = "CPU" if workload in PARALLEL_WORKLOADS else "wall"
    log(f"{n} traced replications; self-time shares of traced {base_name}: " +
        ", ".join(f"{layer} {layer_self[layer] / base:.2f}"
                  for layer in layers) +
        f", protocols {protocols_self / base:.2f}")
    return ({name: metric(value, unit) for name, value, unit in values},
            attempted, failed)


def check_metric_names(metrics, declared):
    for name, entry in metrics.items():
        if not METRIC_NAME.match(name) or not UNIT.match(entry["unit"]):
            raise BenchError(f"malformed metric {name!r}: {entry}")
    if set(metrics) != declared:
        raise BenchError(
            f"metrics differ from BENCHMARK.json: emitted-only "
            f"{sorted(set(metrics) - declared)}, missing "
            f"{sorted(declared - set(metrics))}")


def declared_metrics(trace):
    config = json.loads(CONFIG_PATH.read_text())
    return {entry["name"]
            for entry in config["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        declared = declared_metrics(args.trace)
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        check_symbol_tables()
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.trace == 0:
            raw = run_runner("perfbench_e2e", common + [
                "--mode", "e2e", "--seconds", str(args.seconds)], deadline)
            metrics, attempted, failed = end_to_end(raw)
        else:
            # Half the budget traced; the untraced pass then replays exactly
            # those replication seeds, so digests compare one to one.
            traced = run_runner("perfbench_traced", common + [
                "--mode", "reps", "--seconds", str(args.seconds / 2)],
                deadline)
            plain = run_runner("perfbench_e2e", common + [
                "--mode", "reps", "--count", str(len(traced["reps"]))],
                deadline)
            stream = run_runner("perfbench_e2e", common + [
                "--mode", "stream"], deadline)["stream"]
            metrics, attempted, failed = per_layer(args.workload, traced,
                                                   plain, stream)
        check_metric_names(metrics, declared)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
