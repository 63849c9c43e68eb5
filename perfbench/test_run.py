"""Tests of run.py's metric assembly: python3 -m unittest test_run (from
perfbench/). They use synthetic runner output, so no build is needed."""

import unittest

import run


def replication(seed, wall_s=0.5, digest="d", lps=0, windows=0):
    return {"seed": seed, "wall_s": wall_s, "cpu_s": wall_s,
            "commits": 1000, "total_commits": 1100, "events": 20000,
            "messages": 11000, "response_mean": 300.0, "timed_out": False,
            "lps": lps,
            "sync_windows": windows, "sync_stalls": 0,
            "max_lp_events": 10100 if lps else 0,
            "sum_lp_events": 20000 if lps else 0,
            "digest": f"{digest}{seed}"}


def e2e_raw():
    return {"setup_s": [0.001, 0.002, 0.0015],
            "reps": [replication(s, 0.4 + 0.01 * s) for s in range(5)],
            "gate": {"deterministic": True, "serializable": True,
                     "timed_out": False},
            "peak_rss_kb": 8192}


def sites_for(workload):
    idle = run.EXPECTED_IDLE[workload]
    names = (["RunSimulation"] + sorted(run.SIM_SITES | run.LINK_SITES |
                                        run.LOCK_SITES | run.WFG_SITES |
                                        run.CORE_SITES) +
             ["Network::Send", "WriteAheadLog::Append",
              "WriteAheadLog::Force", "WorkloadGenerator::NextTxn",
              "rng::SampleDistinct"])
    layer = {"Network::Send": "net", "WriteAheadLog::Append": "db",
             "WriteAheadLog::Force": "db",
             "WorkloadGenerator::NextTxn": "workload",
             "rng::SampleDistinct": "workload", "RunSimulation": "protocols"}
    for group, name in ((run.SIM_SITES, "sim"), (run.LINK_SITES, "net"),
                        (run.LOCK_SITES, "db"), (run.WFG_SITES, "db"),
                        (run.CORE_SITES, "core")):
        layer.update(dict.fromkeys(group, name))
    return {name: {"layer": layer[name],
                   "calls": 0 if name in idle else 10,
                   "inclusive_ns": 0 if name in idle else 2000,
                   "self_ns": 0 if name in idle else 1000,
                   "hits": 0 if name in idle else 3}
            for name in names}


def traced_pass(workload):
    parallel = workload in run.PARALLEL_WORKLOADS
    reps = [replication(s, 0.6, lps=8 if parallel else 0,
                        windows=40 if parallel else 0) for s in range(3)]
    return {"reps": reps, "sites": sites_for(workload)}


def stream_pass():
    return {"plain_wall_s": 0.02, "stream_wall_s": 0.05,
            "stream_bytes": 600000, "total_commits": 3000,
            "plain_digest": "x", "stream_digest": "x"}


class MetricNameTest(unittest.TestCase):
    def check_names(self, metrics, trace):
        for name, entry in metrics.items():
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(entry["unit"], name)
            self.assertRegex(entry["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertEqual(set(metrics), run.declared_metrics(trace))

    def test_end_to_end_metrics_match_declaration(self):
        metrics, attempted, failed = run.end_to_end(e2e_raw())
        self.check_names(metrics, trace=0)
        self.assertEqual((attempted, failed), (8, 0))
        for entry in metrics.values():
            self.assertGreater(entry["value"], 0)

    def test_per_layer_metrics_match_declaration(self):
        for workload in run.WORKLOADS:
            traced = traced_pass(workload)
            plain = {"reps": [replication(s, 0.5) for s in range(3)]}
            metrics, attempted, failed = run.per_layer(
                workload, traced, plain, stream_pass())
            self.check_names(metrics, trace=1)
            self.assertEqual((attempted, failed), (8, 0))
            self.assertAlmostEqual(
                metrics["bench.trace_overhead"]["value"], 0.2)


class GateTest(unittest.TestCase):
    def test_gate_failures_count_against_attempts(self):
        raw = e2e_raw()
        raw["gate"]["serializable"] = False
        raw["reps"][0]["timed_out"] = True
        _, attempted, failed = run.end_to_end(raw)
        self.assertEqual((attempted, failed), (8, 2))

    def test_digest_mismatch_fails_the_replication(self):
        traced = traced_pass("paper_s2pl")
        plain = {"reps": [replication(s, 0.5) for s in range(3)]}
        plain["reps"][1]["digest"] = "other"
        _, _, failed = run.per_layer("paper_s2pl", traced, plain,
                                     stream_pass())
        self.assertEqual(failed, 1)

    def test_silent_wrapper_fails_loudly(self):
        traced = traced_pass("paper_g2pl")
        traced["sites"]["PrecedenceGraph::ReachableAmong"]["calls"] = 0
        with self.assertRaises(run.BenchError):
            run.check_coverage("paper_g2pl", traced)

    def test_unexpected_calls_fail_loudly(self):
        traced = traced_pass("paper_s2pl")
        traced["sites"]["PrecedenceGraph::ReachableAmong"]["calls"] = 5
        with self.assertRaises(run.BenchError):
            run.check_coverage("paper_s2pl", traced)

    def test_parallel_telemetry_only_on_parallel_workload(self):
        traced = traced_pass("paper_s2pl")
        traced["reps"][0]["sync_windows"] = 3
        with self.assertRaises(run.BenchError):
            run.check_coverage("paper_s2pl", traced)


if __name__ == "__main__":
    unittest.main()
