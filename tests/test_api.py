"""The package's public names, and the README's library sketch run as written.

The scalar gate layer is not part of the package: it lives in
``tests/scalar_reference.py``. ``apply_unitary`` stays importable from the
four modules whose copies the benchmark's tracer patches
(``qssbench/selftest.py``), and from nowhere else. Transcripts live in
``qsslab.transcript``, which the engine (``qsslab.protocol``) does not
import: a run's transcript is its row of ``render_transcripts(batch)``.
A batch's arrays are its only result: the row view, one record per run,
lives in ``tests/row_view.py``.
"""
import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import qsslab
from qsslab import analysis, attack, cli, protocol, quantum, transcript

ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BatchResult",
    "ConfigError",
    "EntanglerSpec",
    "EntanglingAdversary",
    "GuessRule",
    "InvariantError",
    "NullAdversary",
    "ProtocolConfig",
    "ScenarioReport",
    "State",
    "SweepGrid",
    "Transcript",
    "basis_state",
    "build_entangler",
    "canonical_angle",
    "helstrom_bound",
    "indistinguishability",
    "monte_carlo",
    "qgwz_spec",
    "random_entangler_spec",
    "render_transcripts",
    "rotation_operator",
    "run_batch",
    "run_batches",
    "run_protocol_batch",
    "summarize",
    "sweep",
]

ROW_VIEW_NAMES = [
    "RunResult",
    "DetectionVerdict",
    "run_protocol",
    "run_trials",
    "_FAILED_FIRST_DETECTION",
    "MissingAngleError",
]

REFERENCE_NAMES = [
    "apply_controlled",
    "apply_ccy",
    "partial_trace",
    "trace_distance",
    "global_phase_equal",
    "split_product",
    "counterfactual_joint_distance",
    "_joint_distances",
    "_complete_basis",
    "_build_entangler",
    "grid_specs",
    "tensor",
    "overlap",
    "ket0",
    "_per_ancilla_dim",
    "_encoded_rows",
    "_trace_distances",
    "eigvalsh_distances",
    "entangler_distances",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(qsslab.__all__) == PUBLIC_NAMES
    for name in qsslab.__all__:
        assert getattr(qsslab, name) is not None


@pytest.mark.parametrize("module", [qsslab, quantum, attack, analysis, protocol, cli, transcript])
def test_scalar_reference_is_not_in_the_package(module):
    assert [name for name in REFERENCE_NAMES if hasattr(module, name)] == []


def test_reference_names_resolve_in_the_reference():
    import scalar_reference

    assert [name for name in REFERENCE_NAMES if not hasattr(scalar_reference, name)] == []


def test_no_per_operator_path_in_src():
    # The exact analysis and verify run on entangler stacks; the one-State
    # helpers and the per-spec grouping are defined and named nowhere in src/.
    gone = {"_per_ancilla_dim", "_spec_distances", "tensor", "overlap", "ket0"}
    found = []
    for path in sorted((ROOT / "src" / "qsslab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, attr, None) for attr in ("id", "name", "attr", "arg")}
            found += [f"{path.name}:{node.lineno} {name}" for name in names & gone]
    assert found == []


@pytest.mark.parametrize("module", [qsslab, quantum, attack, analysis, protocol, cli, transcript])
def test_row_view_is_not_in_the_package(module):
    assert [name for name in ROW_VIEW_NAMES if hasattr(module, name)] == []


def test_batch_result_is_its_arrays():
    # No indexing or iteration by run; len counts the runs.
    row_methods = ["__getitem__", "__iter__", "_second_fields"]
    assert [name for name in row_methods if hasattr(protocol.BatchResult, name)] == []
    assert protocol.BatchResult.__bases__ == (object,)
    assert "__len__" in vars(protocol.BatchResult)


def test_apply_unitary_only_where_the_tracer_patches_it():
    holders = [m for m in (qsslab, quantum, protocol, attack, analysis, cli, transcript)
               if hasattr(m, "apply_unitary")]
    assert holders == [quantum, protocol, attack, analysis]
    assert all(m.apply_unitary is quantum.apply_unitary for m in holders)


def test_transcripts_are_not_in_the_engine():
    moved = ["Transcript", "render_transcripts", "render_transcript", "format_floats", "_prefix"]
    assert [name for name in moved if hasattr(protocol, name)] == []


def test_protocol_imports_nothing_from_transcript():
    tree = ast.parse(pathlib.Path(protocol.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "quantum.MINUS_I_SIGMA_Y" in imported
    assert [name for name in imported if "transcript" in name.split(".")] == []


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def unused_imports(path: pathlib.Path) -> list[str]:
    """``file:line name`` for each name that ``path`` imports and never
    reads; an import line marked ``# noqa: F401`` is kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # The package's __init__ imports its public names to export them.
    paths = sorted((ROOT / "src" / "qsslab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    paths = [p for p in paths if p.name != "__init__.py"]
    assert len(paths) > 20
    assert [name for path in paths for name in unused_imports(path)] == []
