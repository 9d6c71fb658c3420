"""Benchmark of the qsslab command line on seeded scenarios.

Usage:
    python3 qssbench/run.py --workload {honest,qgwz,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; qsslab is imported from ``src/``.
The benchmark writes scenario files generated from ``--seed`` into a work
directory under ``.benchwork/`` and passes only those files to
``qsslab.cli.main``, inside fresh single-threaded child interpreters
(``child.py``). Every repeat's outputs are checked. Stdout carries an
``env`` line (provenance), a ``raw`` line (figures before the host-speed
correction described at CALIB_NOMINAL_S) and, last, one JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``). ``attempted`` counts items
(trials, or sweep grid points) run; ``failed`` counts items of repeats whose
output failed a check, so failed/attempted is the failed-check fraction. The
exit code is 0 only when every check passed, and 2 when the checkout has no
qsslab sources. ``python3 qssbench/selftest.py`` tests the benchmark itself.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".benchwork")

# Why each workload is in the benchmark (copied into BENCHMARK.json).
WHY = {
    "honest": "Protocol phases and 2-amplitude engine ops do nearly all the work, so "
              "attack-layer changes should not move it; the only workload that renders "
              "and writes transcripts",
    "qgwz": "The paper's headline campaign: qsslab run with the adaptive controlled-gate "
            "attack (d=4 ancilla), dominated by adversary hooks and 8-amplitude engine ops",
    "sweep": "The exact-analysis path (build_entangler, partial_trace, eigvalsh) on a "
             "seeded d=8 grid with a 16x16 entangler; the protocol layer is not used at all",
}
WORKLOADS = tuple(WHY)

# Work per repeat of the command, sized so a run holds many repeats.
FULL = {"honest_trials": 25, "qgwz_trials": 10, "sweep_grid": (2, 5, 10)}
TINY = {"honest_trials": 2, "qgwz_trials": 2, "sweep_grid": (1, 2, 2)}

# Untraced child interpreters per run; each reports one set-up time.
CHILDREN = 8
# Repeats of a traced child; spans of all of them are held in memory.
TRACED_REPS = 5
CHILD_GRACE_S = 60.0
# Host-speed correction. Neighbours on a shared host slow every instruction
# stream by up to 2x for minutes at a time, which moves the median rate of a
# run by 15-20% from run to run. Each child times a fixed calibration loop
# (child.calibrate) around every repeat; rates and set-up times are scaled to
# the speed at which that loop takes CALIB_NOMINAL_S, a fixed scale close to
# its time on an uncontended 2-core VM (Python 3.11, numpy 2.4). The
# uncorrected figures are printed on the "raw" line.
CALIB_NOMINAL_S = 0.010
TD_TOL = 1e-10

# Child processes run a plain single-threaded baseline.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Layer spans reported as .calls and/or .self_s.
CALLS_AND_SELF = (
    "quantum.State", "quantum.apply_unitary", "quantum.check_unitary",
    "quantum.measure_qubit_z", "quantum.measure_projective",
    "quantum.partial_trace", "quantum.trace_distance",
    "protocol.Transcript.log",
    "attack.split_product", "attack.build_entangler",
    "analysis.indistinguishability",
)
SELF_ONLY = (
    "protocol.encryption_phase", "protocol.first_detection",
    "protocol.encode_message", "protocol.recovery_phase",
    "protocol.Transcript.serialize",
    "attack.on_photon_forward", "attack.on_check_announcement",
    "attack.on_photon_return", "attack.on_finish",
    "analysis.monte_carlo", "analysis.sweep",
    "cli.load_scenario", "cli.cmd_run",
)

PER_LAYER = (
    *((f"{n}.calls", "count", "lower") for n in CALLS_AND_SELF),
    *((f"{n}.self_s", "s", "lower") for n in CALLS_AND_SELF + SELF_ONLY),
    ("protocol.photons", "count", "higher"),
    ("analysis.run_trial.calls", "count", "lower"),
    ("analysis.run_trial.ms_p50", "ms", "lower"),
    ("analysis.run_trial.ms_p90", "ms", "lower"),
    ("cli.transcript_bytes", "bytes", "lower"),
    ("trace.uncovered_frac", "fraction", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# -- seeded inputs ---------------------------------------------------------


def make_scenario(workload: str, seed: int, size: dict = FULL) -> dict:
    """Scenario document for ``workload``; the same seed gives the same document."""
    rng = random.Random(f"{workload}:{seed}")
    proto_seed = rng.randrange(2**31)
    if workload == "honest":
        # Shaped like configs/honest.json: 3 agents, 32-bit messages, 72 photons.
        return {
            "protocol": {"agents": 3, "message_length": 32, "check_fraction_first": 0.5,
                         "second_checks": 4, "angle_distribution": "uniform",
                         "seed": proto_seed},
            "attack": {"kind": "none"},
            "run": {"trials": size["honest_trials"]},
        }
    if workload == "qgwz":
        # Shaped like configs/qgwz.json: d=4 ancilla, 100-bit messages, 136 photons.
        amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        return {
            "protocol": {"agents": 3, "message_length": 100, "check_fraction_first": 0.25,
                         "second_checks": 2, "angle_distribution": "uniform",
                         "seed": proto_seed},
            "attack": {"kind": "qgwz",
                       "ancilla_state": [[a.real / norm, a.imag / norm] for a in amps],
                       "guess_rule": [0, 1]},
            "run": {"trials": size["qgwz_trials"]},
        }
    if workload == "sweep":
        n_tp, n_a2, n_theta = size["sweep_grid"]
        return {
            "protocol": {"agents": 3, "seed": proto_seed},
            "run": {"sweep": {
                "theta_prime": [rng.uniform(0.0, 2 * math.pi) for _ in range(n_tp)],
                "alpha_sq": [rng.uniform(0.0, 1.0) for _ in range(n_a2)],
                "theta": [rng.uniform(0.0, 2 * math.pi) for _ in range(n_theta)],
                "ancilla_dim": 8,
            }},
        }
    raise ValueError(f"unknown workload {workload!r}")


def items_per_rep(scenario: dict) -> int:
    """Trials of a run scenario, or grid points of a sweep scenario."""
    run = scenario["run"]
    if "trials" in run:
        return run["trials"]
    grid = run["sweep"]
    return len(grid["theta_prime"]) * len(grid["alpha_sq"]) * len(grid["theta"])


def command_argv(workload: str, scenario_path: str) -> list[str]:
    """``qsslab`` arguments for one repeat; ``{rep}`` is the repeat's directory."""
    if workload == "sweep":
        return ["sweep", scenario_path, "--out", "{rep}/report.csv"]
    argv = ["run", scenario_path, "--format", "json-lines", "--out", "{rep}/report.jsonl"]
    if workload == "honest":
        argv += ["--transcripts", "{rep}/transcripts"]
    return argv


# -- output checks ---------------------------------------------------------


def check_rep(workload: str, scenario: dict, rep: dict) -> list[str]:
    """Problems found in one repeat's outputs; empty when all checks pass."""
    problems = []
    if rep["exit_code"] != 0:
        problems.append(f"exit code {rep['exit_code']}")
    if rep["report"] is None:
        return problems + ["no report written"]
    if workload == "sweep":
        return problems + check_sweep_table(scenario, rep["report"])
    try:
        report = json.loads(rep["report"])
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    problems += check_run_report(workload, scenario, report)
    if workload == "honest":
        t = rep["transcripts"]
        trials = scenario["run"]["trials"]
        if t is None or t["count"] != trials or t["min_bytes"] == 0:
            problems.append(f"expected {trials} non-empty transcript files, got {t}")
    return problems


def check_run_report(workload: str, scenario: dict, report: dict) -> list[str]:
    problems = []
    trials = scenario["run"]["trials"]
    if report.get("trials") != trials:
        problems.append(f"trials {report.get('trials')} != {trials}")
    for key in ("first_detection_pass_rate", "recovery_accuracy"):
        if report.get(key) != 1:
            problems.append(f"{key} = {report.get(key)}, expected 1")
    if workload != "qgwz":
        return problems
    td, hb = report.get("max_trace_distance"), report.get("helstrom_bound")
    if not (isinstance(td, (int, float)) and td <= TD_TOL):
        problems.append(f"max_trace_distance = {td} > {TD_TOL}")
    if not (isinstance(hb, (int, float)) and hb <= 0.5 + TD_TOL):
        problems.append(f"helstrom_bound = {hb} > 0.5 + {TD_TOL}")
    # Every trial passes first detection, so every message bit gets a guess.
    guessed = trials * scenario["protocol"]["message_length"]
    se = 0.5 / math.sqrt(guessed)
    acc = report.get("attacker_accuracy")
    if not (isinstance(acc, (int, float)) and abs(acc - 0.5) <= 5 * se):
        problems.append(f"attacker_accuracy = {acc} not within 5 SE ({se:.4g}) of 0.5")
    return problems


def check_sweep_table(scenario: dict, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = items_per_rep(scenario)
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} sweep rows, expected {expected}")
    try:
        worst = max((float(r["trace_distance"]) for r in rows), default=0.0)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"unreadable sweep table: {exc}"]
    if not worst <= TD_TOL:
        problems.append(f"trace_distance {worst} > {TD_TOL}")
    return problems


def output_digest(rep: dict) -> str:
    """Digest of everything a repeat wrote; repeats at one seed must agree."""
    h = hashlib.sha256((rep["report"] or "").encode())
    h.update(json.dumps(rep["transcripts"], sort_keys=True).encode())
    return h.hexdigest()


# -- child processes -------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workdir: str, workload: str, scenario_path: str, budget_s: float,
              trace: bool, max_reps: int = 0) -> dict:
    """Start one measured interpreter, wait for it, and return its result.

    The child repeats the command until ``budget_s`` is spent or, when
    ``max_reps`` is set, after that many repeats.
    """
    os.makedirs(workdir)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"scenario": scenario_path, "argv": command_argv(workload, scenario_path),
                   "budget_s": budget_s, "max_reps": max_reps, "trace": trace}, fh)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget_s + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    result_path = os.path.join(workdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(f"child exited with {proc.returncode}\n{out}{err}")
        return {"ok": False, "reps": []}
    with open(result_path) as fh:
        result = json.load(fh)
    result["ok"] = True
    result["setup_s"] = result["t_ready"] - t_spawn
    result["spans_path"] = os.path.join(workdir, "spans.bin")
    return result


# -- the run ---------------------------------------------------------------


def environment() -> dict:
    """Provenance printed with every result."""
    import importlib.metadata
    import platform

    rev = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            rev = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                src.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "thread_vars_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_child": {v: "1" for v in THREAD_VARS},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: dict = FULL) -> tuple[dict, dict]:
    """Run one workload; return the result object and the uncorrected figures."""
    if not os.path.isfile(os.path.join(ROOT, "src", "qsslab", "cli.py")):
        raise SetupError(f"no qsslab sources under {os.path.join(ROOT, 'src')}")
    scenario = make_scenario(workload, seed, size)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        scenario_path = os.path.join(work, "scenario.json")
        with open(scenario_path, "w") as fh:
            json.dump(scenario, fh)
        children = []
        if trace:
            # A few traced repeats, then untraced ones for the rest of the time
            # as the base of trace.overhead_ratio.
            deadline = time.monotonic() + seconds
            child = run_child(os.path.join(work, "traced"), workload, scenario_path,
                              seconds, True, TRACED_REPS)
            if child["ok"]:
                child["trace"] = load_trace(child["spans_path"])
            children.append(dict(child, traced=True))
            budget = max(deadline - time.monotonic(), seconds / CHILDREN)
            child = run_child(os.path.join(work, "untraced"), workload, scenario_path,
                              budget, False)
            children.append(dict(child, traced=False))
        else:
            for i in range(CHILDREN):
                child = run_child(os.path.join(work, f"child{i}"), workload, scenario_path,
                                  seconds / CHILDREN, False)
                children.append(dict(child, traced=False))
        return summarize(workload, scenario, children, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def load_trace(path: str) -> dict:
    import tracer

    return tracer.derive(*tracer.load(path))


def summarize(workload: str, scenario: dict, children: list[dict],
              trace: bool) -> tuple[dict, dict]:
    """Check every repeat and reduce the children's measurements to the
    result object, plus the uncorrected rate and set-up time."""
    items = items_per_rep(scenario)
    attempted = failed = 0
    correct = True
    first_digest = None
    for child in children:
        if not child["ok"]:
            attempted += items
            failed += items
            correct = False
            continue
        if child["traced"] and not child["restored"]:
            sys.stderr.write("tracer left a patched name in place\n")
            correct = False
        for rep in child["reps"]:
            attempted += items
            problems = check_rep(workload, scenario, rep)
            digest = output_digest(rep)
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append("output differs from the first repeat at this seed")
            if problems:
                failed += items
                correct = False
                sys.stderr.write(f"{workload}: " + "; ".join(problems) + "\n")

    rates: dict[bool, list[float]] = {False: [], True: []}
    raw_rates = []
    for child in children:
        for rep in child["reps"]:
            rates[child["traced"]].append(items / rep["wall_s"] * rep["calib_s"] / CALIB_NOMINAL_S)
            raw_rates.append(items / rep["wall_s"])
    ok = [c for c in children if c["ok"]]
    raw = {}
    if ok:
        raw = {"items_per_s": statistics.median(raw_rates),
               "setup_s": statistics.median(c["setup_s"] for c in ok),
               "calib_s": statistics.median(c["calib_s"] for c in ok)}
    values: dict[str, float] = {}
    if not trace:
        if ok:
            values = {
                "items_per_s": statistics.median(rates[False]),
                "setup_s": statistics.median(
                    c["setup_s"] * CALIB_NOMINAL_S / c["calib_s"] for c in ok),
                "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in ok),
            }
        units = dict(END_TO_END)
    else:
        traced = [c for c in ok if c["traced"]]
        if traced and rates[False]:
            values = layer_values(traced[0], rates)
        units = {name: unit for name, unit, _ in PER_LAYER}
    if set(values) != set(units):
        correct = False
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }, raw


def layer_values(child: dict, rates: dict) -> dict:
    t = child["trace"]
    values: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = t["calls"].get(name, 0)
    for name in CALLS_AND_SELF + SELF_ONLY:
        values[f"{name}.self_s"] = t["self_s"].get(name, 0.0)
    values["protocol.photons"] = t["counters"].get("protocol.photons", 0)
    values["analysis.run_trial.calls"] = t["calls"].get("analysis.run_trial", 0)
    values["analysis.run_trial.ms_p50"] = t["run_trial_ms_p50"]
    values["analysis.run_trial.ms_p90"] = t["run_trial_ms_p90"]
    first = child["reps"][0]["transcripts"]
    values["cli.transcript_bytes"] = first["bytes"] if first else 0
    values["trace.uncovered_frac"] = t["uncovered_frac"]
    values["trace.overhead_ratio"] = statistics.median(rates[True]) / statistics.median(rates[False])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = environment()
        result, raw = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    print("raw " + json.dumps(raw, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
