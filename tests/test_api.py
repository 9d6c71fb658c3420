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
import inspect
import os
import pathlib
import re
import subprocess
import sys
import textwrap

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
    "spec_arrays",
    "apply_photon_op",
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
    # helpers, the per-spec grouping, the stacked spec fields, the matrix
    # product on the photon and a second completion of E are defined and
    # named nowhere in src/.
    gone = {"_per_ancilla_dim", "_spec_distances", "tensor", "overlap", "ket0", "spec_arrays",
            "_block_entries", "apply_photon_op", "completion"}
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
    assert "quantum.rotate_photons" in imported
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


def run_path() -> dict[str, ast.AST]:
    """The source tree of every ``qsslab`` function and class that a run
    reaches, by qualified name: ``protocol.run_protocol_batch``, the
    adversary and its guess rule, and every function or class of the package
    that they call, transitively. ``quantum.check_norms`` is left out: its
    ``einsum`` only feeds a check."""
    todo = [protocol.run_protocol_batch, attack.EntanglingAdversary, attack.GuessRule]
    trees = {}
    while todo:
        obj = todo.pop()
        name = f"{obj.__module__.removeprefix('qsslab.')}.{obj.__qualname__}"
        if name in trees or obj is quantum.check_norms:
            continue
        trees[name] = ast.parse(textwrap.dedent(inspect.getsource(obj)))
        namespace = vars(sys.modules[obj.__module__])
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callee = namespace.get(node.func.id)
                if ((inspect.isfunction(callee) or inspect.isclass(callee))
                        and callee.__module__.startswith("qsslab.")):
                    todo.append(callee)
    return trees


def test_adversary_uses_no_matrix_product():
    # The run path applies its rotations, the encoding, the adversary's
    # block and its Gram matrix as elementwise sums (``attack._apply``), so
    # no BLAS or LAPACK kernel picks the bits of a run.
    trees = run_path()
    phases = {"protocol.encryption_phase", "protocol.first_detection", "protocol.encode_message",
              "protocol._second_phase", "protocol.recovery_phase", "attack._apply",
              "quantum.rotate_photons", "quantum.measure_photons_z"}
    assert phases <= set(trees)
    banned = {"matmul", "dot", "vdot", "einsum", "linalg"}
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and node.attr in banned:
                found.append(f"{name}:{node.lineno} {node.attr}")
    assert found == []


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


def unreferenced_definitions(src: pathlib.Path) -> list[str]:
    """``file:line name`` for each top-level function or class of the
    package in ``src`` that no module there names, reads or imports, and
    that ``qsslab.__all__`` does not export."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set(qsslab.__all__)
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return [f"{path.name}:{node.lineno} {node.name}" for path, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # The package's __init__ imports its public names to export them.
    paths = sorted((ROOT / "src" / "qsslab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    paths = [p for p in paths if p.name != "__init__.py"]
    assert len(paths) > 20
    assert [name for path in paths for name in unused_imports(path)] == []


def test_no_module_defines_a_name_the_package_never_uses():
    # The same lint for definitions: a top-level function or class that
    # nothing in src/ uses and the package does not export is dead code.
    assert unreferenced_definitions(ROOT / "src" / "qsslab") == []
