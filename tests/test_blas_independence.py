"""The exact analysis gives the same bytes under every OpenBLAS kernel.

OpenBLAS picks its kernel from the CPU when numpy loads it, and
``OPENBLAS_CORETYPE`` forces another one. The trace distances are computed
with ``np.einsum`` and elementwise ops only, no LAPACK and no BLAS product,
so the sweep tables of both shipped configs and the qgwz report (whose
``max_trace_distance`` comes from them) must be byte-identical under each
forced kernel to the default kernel's. OpenBLAS reads the variable once, so
each kernel runs in its own interpreter, which writes all three outputs.

Out of scope: ``NPY_DISABLE_CPU_FEATURES``. numpy's complex multiply follows
the SIMD level, so turning CPU features off may still move the last bits.
"""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORETYPES = ("Haswell", "Sandybridge", "Prescott")

# qsslab arguments of each output, each written to its own --out file.
OUTPUTS = (
    ["sweep", "configs/qgwz.json"],
    ["sweep", "configs/honest.json"],
    ["run", "configs/qgwz.json", "--format", "json-lines"],
)

SCRIPT = """
import sys
from qsslab.cli import main
for i, argv in enumerate({outputs!r}):
    assert main([*argv, "--out", f"{{sys.argv[1]}}/{{i}}.out"]) == 0
"""


def start(out_dir: pathlib.Path, coretype: str | None) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out_dir.mkdir()
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT.format(outputs=[list(o) for o in OUTPUTS]), str(out_dir)],
        cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True,
    )


def digests(out_dir: pathlib.Path) -> list[str]:
    return [hashlib.sha256((out_dir / f"{i}.out").read_bytes()).hexdigest()
            for i in range(len(OUTPUTS))]


def test_outputs_do_not_follow_the_openblas_kernel(tmp_path):
    kernels = (None, *CORETYPES)
    procs = {kernel: start(tmp_path / str(kernel), kernel) for kernel in kernels}
    for kernel, proc in procs.items():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, (kernel, err)
    default = digests(tmp_path / "None")
    found = {kernel: digests(tmp_path / kernel) for kernel in CORETYPES}
    assert found == {kernel: default for kernel in CORETYPES}, json.dumps(
        dict(zip(map(" ".join, OUTPUTS), zip(default, *found.values()))), indent=1)
