"""Self-test of the qsslab benchmark: python3 qssbench/selftest.py

Runs every workload at a tiny size, checks that each metric BENCHMARK.json
names is emitted with its unit, that traced call counts repeat exactly at
one seed, that the tracer restores what it patched, that the output checks
reject doctored reports, and that the benchmark refuses a directory without
qsslab sources.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

SEED = 12345


def benchmark_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny(workload: str, trace: bool) -> dict:
    return run.run_benchmark(workload, SEED, 0.01, trace, size=run.TINY)[0]


def remove_empty_work_root() -> None:
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass


def exact_counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bytes")}


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = benchmark_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_calls_repeat_across_traced_runs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = exact_counts(tiny(workload, True)), exact_counts(tiny(workload, True))
                self.assertTrue(any(first.values()))
                self.assertEqual(first, second)


class TracerRestores(unittest.TestCase):
    def test_patches_every_importer_and_restores(self):
        sys.path.insert(0, os.path.join(run.ROOT, "src"))
        try:
            import tracer
            from qsslab import analysis, attack, protocol, quantum
        finally:
            sys.path.pop(0)
        holders = [(m, "apply_unitary") for m in (quantum, protocol, attack, analysis)]
        holders += [(quantum, "check_unitary"), (quantum.State, "__init__")]
        originals = [vars(obj)[name] for obj, name in holders]
        t = tracer.Tracer()
        t.install()
        try:
            for (obj, name), original in zip(holders, originals):
                self.assertIsNot(vars(obj)[name], original, f"{obj.__name__}.{name}")
        finally:
            t.restore()
        self.assertTrue(t.is_restored())
        for (obj, name), original in zip(holders, originals):
            self.assertIs(vars(obj)[name], original)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        """One genuine repeat of each workload, produced by the qsslab CLI."""
        cls.scenarios, cls.reps = {}, {}
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=run.WORK_ROOT, prefix="selftest-")
        code = (
            "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import child, qsslab.cli as cli\n"
            "argv = json.loads(sys.argv[3])\n"
            "code = cli.main(argv)\n"
            "print(json.dumps({'exit_code': code, **child.collect_outputs(sys.argv[4])}))\n"
        )
        for workload in run.WORKLOADS:
            scenario = run.make_scenario(workload, SEED, run.TINY)
            rep_dir = os.path.join(cls.tmp, workload)
            os.makedirs(rep_dir)
            path = os.path.join(rep_dir, "scenario.json")
            with open(path, "w") as fh:
                json.dump(scenario, fh)
            argv = [a.replace("{rep}", rep_dir) for a in run.command_argv(workload, path)]
            out = subprocess.run(
                [sys.executable, "-c", code, os.path.join(run.ROOT, "src"), run.HERE,
                 json.dumps(argv), rep_dir],
                capture_output=True, text=True, check=True, env=run.child_env(),
            ).stdout
            cls.scenarios[workload] = scenario
            cls.reps[workload] = json.loads(out.splitlines()[-1])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)
        remove_empty_work_root()

    def problems(self, workload, rep):
        return run.check_rep(workload, self.scenarios[workload], rep)

    def doctored(self, workload, **changes):
        rep = copy.deepcopy(self.reps[workload])
        report = json.loads(rep["report"])
        report.update(changes)
        rep["report"] = json.dumps(report)
        return rep

    def test_genuine_outputs_pass(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.problems(workload, self.reps[workload]), [])

    def test_doctored_run_reports_fail(self):
        for workload, changes in (
            ("qgwz", {"max_trace_distance": 0.1}),
            ("qgwz", {"helstrom_bound": 0.55}),
            ("qgwz", {"attacker_accuracy": 1.0}),
            ("qgwz", {"first_detection_pass_rate": 0.99}),
            ("honest", {"first_detection_pass_rate": 0.99}),
            ("honest", {"recovery_accuracy": 0.99}),
            ("honest", {"trials": 1}),
        ):
            with self.subTest(workload=workload, changes=changes):
                self.assertTrue(self.problems(workload, self.doctored(workload, **changes)))

    def test_bad_exit_code_and_missing_transcripts_fail(self):
        rep = dict(self.reps["qgwz"], exit_code=2)
        self.assertTrue(self.problems("qgwz", rep))
        t = self.reps["honest"]["transcripts"]
        for transcripts in (None, dict(t, count=t["count"] - 1), dict(t, min_bytes=0)):
            rep = dict(self.reps["honest"], transcripts=transcripts)
            self.assertTrue(self.problems("honest", rep))

    def test_doctored_sweep_tables_fail(self):
        lines = self.reps["sweep"]["report"].splitlines()
        row = lines[1].split(",")
        row[3] = "0.1"
        for table in (lines[:-1], [lines[0], ",".join(row)] + lines[2:]):
            rep = dict(self.reps["sweep"], report="\n".join(table) + "\n")
            self.assertTrue(self.problems("sweep", rep))

    def test_differing_repeats_fail(self):
        rep = self.reps["qgwz"]
        other = self.doctored("qgwz", seed=0)
        timing = {"wall_s": 1.0, "calib_s": 0.01}
        child = {"ok": True, "traced": False, "setup_s": 0.1, "calib_s": 0.01,
                 "peak_rss_mb": 1.0, "reps": [dict(rep, **timing), dict(rep, **timing)]}
        self.assertTrue(run.summarize("qgwz", self.scenarios["qgwz"], [child], False)[0]["correct"])
        child["reps"][1] = dict(other, **timing)
        result = run.summarize("qgwz", self.scenarios["qgwz"], [child], False)[0]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], self.scenarios["qgwz"]["run"]["trials"])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.WORK_ROOT, prefix="bare-")
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "qssbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, "qssbench/run.py", "--workload", "honest", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, env=env,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            remove_empty_work_root()
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
