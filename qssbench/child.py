"""One measured interpreter of the qsslab benchmark.

Usage: python3 child.py SPEC.json

SPEC names the scenario file, the ``qsslab`` argument list (with ``{rep}``
standing for a per-repeat directory), the wall budget in seconds, a repeat
limit (0 for none) and whether to trace. The process imports qsslab, loads
the scenario once (the end of set-up), then calls ``qsslab.cli.main``
repeatedly until the budget or the repeat limit is reached, at least once.
A fixed calibration loop is timed before the first repeat and after each
one, so the parent can correct for the speed of a shared host. Each repeat's
outputs are hashed and kept for the parent's checks. The result goes to
``result.json`` next to SPEC; spans of a traced process go to ``spans.bin``.
"""
import sys
import time


def main() -> int:
    import json

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import qsslab.cli as cli

    cli.load_scenario(spec["scenario"])
    t_ready = time.monotonic()

    import os
    import resource
    import shutil

    workdir = os.path.dirname(os.path.abspath(sys.argv[1]))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    calib = [calibrate()]
    reps = []
    try:
        while True:
            rep_dir = os.path.join(workdir, f"rep{len(reps)}")
            os.makedirs(rep_dir)
            argv = [a.replace("{rep}", rep_dir) for a in spec["argv"]]
            if tracer is not None:
                tracer.begin_rep()
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
            calib.append(calibrate())
            reps.append({"exit_code": code, "wall_s": wall,
                         "calib_s": (calib[-2] + calib[-1]) / 2, **collect_outputs(rep_dir)})
            shutil.rmtree(rep_dir)
            if (time.monotonic() - t_ready >= spec["budget_s"]
                    or len(reps) == spec["max_reps"]):
                break
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "t_ready": t_ready,
        "calib_s": sorted(calib)[len(calib) // 2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
    }
    if tracer is not None:
        tracer.save(os.path.join(workdir, "spans.bin"))
        result["restored"] = tracer.is_restored()
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def calibrate(steps: int = 600) -> float:
    """Seconds taken by a fixed loop shaped like qsslab's inner loop: small
    complex numpy ops, a norm and string formatting. It does not touch qsslab,
    so a change to the program never changes it."""
    import numpy as np

    t0 = time.perf_counter()
    v = np.ones(8, dtype=complex) / np.sqrt(8)
    m = np.eye(8, dtype=complex)
    chars = 0
    for i in range(steps):
        c, s = np.cos(i), np.sin(i)
        op = np.array([[c, -s], [s, c]], dtype=complex)
        w = (v.reshape(-1, 2) @ op.T).reshape(-1)
        v = w / np.sqrt(float(np.vdot(w, w).real))
        m = m @ np.eye(8, dtype=complex)
        chars += len(f"step={i} amp={float(v[0].real):.17g}")
    return time.perf_counter() - t0


def collect_outputs(rep_dir: str) -> dict:
    """Report text, plus digest, count and sizes of transcript files."""
    import hashlib
    import os

    out = {"report": None, "transcripts": None}
    for name in sorted(os.listdir(rep_dir)):
        path = os.path.join(rep_dir, name)
        if name == "transcripts":
            files = sorted(os.listdir(path))
            digest = hashlib.sha256()
            sizes = []
            for f in files:
                with open(os.path.join(path, f), "rb") as fh:
                    data = fh.read()
                digest.update(f.encode() + b"\0" + data + b"\0")
                sizes.append(len(data))
            out["transcripts"] = {
                "count": len(files),
                "min_bytes": min(sizes, default=0),
                "bytes": sum(sizes),
                "sha256": digest.hexdigest(),
            }
        elif name.startswith("report"):
            with open(path) as fh:
                out["report"] = fh.read()
    return out


if __name__ == "__main__":
    sys.exit(main())
