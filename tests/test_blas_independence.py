"""The exact analysis and the attack give the same bytes under every OpenBLAS kernel.

OpenBLAS picks its kernel from the CPU when numpy loads it, and
``OPENBLAS_CORETYPE`` forces another one. The trace distances are computed
with ``np.einsum`` and elementwise ops only, no LAPACK and no BLAS product,
so the sweep tables of both shipped configs and the qgwz report (whose
``max_trace_distance`` comes from them) must be byte-identical under each
forced kernel to the default kernel's. OpenBLAS reads the variable once, so
each kernel runs in its own interpreter, which writes all three outputs.

The adversary's hooks are elementwise sums on span coordinates too, so each
interpreter also runs, under its kernel, the tests whose pins pass through
them: a d = 8 batch equals its batches of one
(``test_batch.test_batch_matches_batches_of_one``), and the qgwz and skewed
``--transcripts`` directories hash to their pinned digests
(``test_engine_equivalence``).

Each interpreter also evaluates every fixture of ``qsslab verify``
(``cli.FIXTURES``). Every fixture value must be byte-identical to the
default kernel's, except five that still pass through BLAS or LAPACK and
move under some kernels (``KERNEL_BOUND``): criterion 3's
``attacker-factor-overlap``, ``HT-norm`` and ``HT-overlap`` split the photon
off with ``np.linalg.svd``, and criterion 6's ``rotation-additivity`` and
``rotation-commutation`` multiply 2 x 2 rotations with ``@``.

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

# The fixtures of ``qsslab verify`` whose values may follow the kernel.
KERNEL_BOUND = {"attacker-factor-overlap", "HT-norm", "HT-overlap", "rotation-additivity",
                "rotation-commutation"}

SCRIPT = """
import pathlib, sys
from qsslab.cli import FIXTURES, main
import test_batch, test_engine_equivalence as golden
out = pathlib.Path(sys.argv[1])
for i, argv in enumerate({outputs!r}):
    assert main([*argv, "--out", str(out / f"{{i}}.out")]) == 0
(out / "fixtures.out").write_text("".join(
    f"{{fx.name}} {{fx.value:.17g}}\\n" for group in FIXTURES.values() for fx in group()))
test_batch.test_batch_matches_batches_of_one("general-d8")
for name in ("qgwz", "skewed"):
    (out / name).mkdir()
golden.test_cli_transcripts_byte_identical("configs/qgwz.json", out / "qgwz")
golden.test_cli_transcripts_byte_identical_skewed_ancilla(out / "skewed")
"""


def start(out_dir: pathlib.Path, coretype: str | None) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]))
    out_dir.mkdir()
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT.format(outputs=[list(o) for o in OUTPUTS]), str(out_dir)],
        cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True,
    )


def digests(out_dir: pathlib.Path) -> list[str]:
    return [hashlib.sha256((out_dir / f"{i}.out").read_bytes()).hexdigest()
            for i in range(len(OUTPUTS))]


def fixture_lines(out_dir: pathlib.Path) -> list[str]:
    """The ``name value`` line of each fixture that must not follow the kernel."""
    lines = (out_dir / "fixtures.out").read_text().splitlines()
    return [line for line in lines if line.split()[0] not in KERNEL_BOUND]


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
    # 27 fixtures, all five kernel-bound ones among them.
    default = fixture_lines(tmp_path / "None")
    assert len(default) == 27 - len(KERNEL_BOUND)
    for kernel in CORETYPES:
        assert fixture_lines(tmp_path / kernel) == default, kernel
