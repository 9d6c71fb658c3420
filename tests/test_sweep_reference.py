"""The stacked sweep against the per-spec reference sweep.

``analysis.sweep`` evaluates a grid in chunks of stacked entangler
blocks, one ``_ancilla_distances`` call per chunk, and
``analysis.sweep_table`` formats the table in blocks of lines, one ``%``
operation each. Their trace distances must equal, and their tables match
byte for byte, those of the reference below: the earlier per-spec path, one
``indistinguishability`` call per (theta', alpha^2) spec and one f-string
per table line. Its values are also checked, within ``EIGVALSH_TOL``,
against the eigvalsh kernel, ``scalar_reference.eigvalsh_distances``, and
the sweep's bits against the whole-E kernel it replaced,
``scalar_reference.entangler_distances``.
"""
import json
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from qsslab import analysis
from qsslab.analysis import SweepGrid, helstrom_bound
from qsslab.attack import EntanglerSpec, build_entanglers, spec_arrays
from qsslab.cli import DEFAULT_GRID
from qsslab.quantum import basis_state

from scalar_reference import EIGVALSH_TOL, eigvalsh_distances, entangler_distances, grid_specs

ROOT = pathlib.Path(__file__).resolve().parents[1]


# -- the reference: the per-spec sweep ------------------------------------


def indistinguishability(spec: EntanglerSpec, thetas) -> np.ndarray:
    """The trace distances of one spec at ``thetas``: the package's exact
    analysis of a list of one."""
    return analysis.indistinguishability([spec], thetas)[0]


@dataclass(frozen=True)
class SweepRow:
    theta_prime: float
    alpha_sq: float
    theta: float
    trace_distance: float
    helstrom: float


def grid_spec(grid: SweepGrid, theta_prime: float, alpha_sq: float) -> EntanglerSpec:
    n_anc = (grid.ancilla_dim - 1).bit_length()
    return EntanglerSpec(
        epsilon=basis_state(n_anc, 0),
        epsilon_perp=basis_state(n_anc, 1),
        alpha=float(np.sqrt(alpha_sq)),
        beta=float(np.sqrt(1.0 - alpha_sq)),
        theta_prime=theta_prime,
    )


def sweep(grid: SweepGrid) -> list[SweepRow]:
    rows = []
    for tp in grid.theta_prime_values:
        for a2 in grid.alpha_sq_values:
            tds = indistinguishability(grid_spec(grid, tp, a2), grid.theta_values)
            rows += [
                SweepRow(tp, a2, theta, td, helstrom_bound(td))
                for theta, td in zip(grid.theta_values, tds.tolist())
            ]
    return rows


def sweep_table(rows: list[SweepRow]) -> str:
    lines = ["theta_prime,alpha_sq,theta,trace_distance,helstrom"]
    for r in rows:
        lines.append(
            f"{r.theta_prime:.17g},{r.alpha_sq:.17g},{r.theta:.17g},"
            f"{r.trace_distance:.17g},{r.helstrom:.17g}"
        )
    return "\n".join(lines) + "\n"


# -- the grids --------------------------------------------------------------


def random_grid(seed: int, dim: int, shape: tuple[int, int, int]) -> SweepGrid:
    """Angles in [-20, 20), so many lie below 0 or above 2 pi, and alpha^2
    drawn from {0, 1, uniform}."""
    rng = np.random.default_rng(seed)
    n_tp, n_a2, n_theta = shape
    return SweepGrid(
        theta_prime_values=tuple(rng.uniform(-20.0, 20.0, n_tp).tolist()),
        alpha_sq_values=tuple(rng.choice([0.0, 1.0, rng.uniform()]) for _ in range(n_a2)),
        theta_values=tuple(rng.uniform(-20.0, 20.0, n_theta).tolist()),
        ancilla_dim=dim,
    )


def config_grid(name: str) -> SweepGrid:
    sw = json.loads((ROOT / "configs" / name).read_text())["run"]["sweep"]
    return SweepGrid(tuple(sw["theta_prime"]), tuple(sw["alpha_sq"]), tuple(sw["theta"]),
                     sw["ancilla_dim"])


GRIDS = [
    pytest.param(DEFAULT_GRID, id="default-grid"),
    pytest.param(config_grid("qgwz.json"), id="qgwz-config"),
    *(pytest.param(random_grid(10 + i, dim, (3, 4, 7)), id=f"random-d{dim}")
      for i, dim in enumerate((2, 4, 8))),
    *(pytest.param(SweepGrid((tp,), (a2,), (th,), dim), id=f"one-point-d{dim}-a{a2}")
      for dim, tp, a2, th in ((2, 0.5, 0.5, 1.0), (4, -7.5, 0.0, 13.0), (8, 30.0, 1.0, -0.4))),
    pytest.param(SweepGrid((-1.0, 0.0, 7.0), (0.0, 1.0), (-6.5, 0.0, 6.5, 12.6), 8),
                 id="alpha-0-and-1"),
    # More than one chunk at the shipped chunk size, with a short last
    # chunk: 15 specs of 20 angles are chunks of 6, 6 and 3 specs.
    pytest.param(random_grid(20, 4, (5, 3, 20)), id="spec-chunks"),
    # More angles than one chunk holds: each spec in slices of 128 and 72.
    pytest.param(random_grid(21, 8, (2, 1, 200)), id="theta-chunks"),
]


@pytest.mark.parametrize("grid", GRIDS)
def test_sweep_matches_reference(grid):
    rows = sweep(grid)
    tds = analysis.sweep(grid)
    assert tds.shape == (len(grid.theta_prime_values) * len(grid.alpha_sq_values),
                         len(grid.theta_values))
    assert tds.ravel().tolist() == [r.trace_distance for r in rows]
    assert "".join(analysis.sweep_table(grid, tds)) == sweep_table(rows)
    specs = [grid_spec(grid, tp, a2) for tp in grid.theta_prime_values
             for a2 in grid.alpha_sq_values]
    thetas = np.tile(grid.theta_values, (len(specs), 1))
    fields = spec_arrays(specs)
    eigvalsh = eigvalsh_distances(fields[0], build_entanglers(*fields), thetas)
    assert np.abs(tds - eigvalsh).max() <= EIGVALSH_TOL


@pytest.mark.parametrize("block_lines", [1, 4, 7, 13])
def test_table_blocks_match_reference(monkeypatch, block_lines):
    # 2 x 2 x 3 points: blocks of one line, a short last block, blocks that
    # end exactly at the table's end, and one block for the whole table.
    grid = random_grid(40, 4, (2, 2, 3))
    rows = sweep(grid)
    monkeypatch.setattr(analysis, "_TABLE_BLOCK_LINES", block_lines)
    blocks = list(analysis.sweep_table(grid, analysis.sweep(grid)))
    assert blocks[0] == "theta_prime,alpha_sq,theta,trace_distance,helstrom\n"
    lines = [block.count("\n") for block in blocks[1:]]
    assert sum(lines) == len(rows) and max(lines) <= block_lines
    assert lines[:-1] == [block_lines] * (len(lines) - 1)
    assert "".join(blocks) == sweep_table(rows)


@pytest.mark.parametrize("chunk_points, shape, calls", [
    # The shipped chunk size: the benchmark's grid shape, 10 specs of 10
    # angles, is one call.
    (None, (2, 5, 10), 1),
    # 2 specs of 3 angles per chunk: chunks of 2, 2, 2 and 1 specs.
    (7, (7, 1, 3), 4),
    # 1 spec per chunk, its 10 angles in slices of 4, 4 and 2.
    (4, (2, 2, 10), 12),
    # 1 spec of 5 angles per chunk, the chunk not filled.
    (9, (3, 1, 5), 3),
])
def test_chunks_match_reference(monkeypatch, chunk_points, shape, calls):
    grid = random_grid(30, 2, shape)
    rows = sweep(grid)
    kernel = analysis._ancilla_distances
    chunks = []

    def counted(gram, blocks, thetas):
        out = kernel(gram, blocks, thetas)
        assert gram.shape == (len(blocks), 2, 2) and blocks.shape == (len(thetas), 4, 4)
        chunks.append(out.size)
        return out

    if chunk_points is not None:
        monkeypatch.setattr(analysis, "_SWEEP_CHUNK_POINTS", chunk_points)
    monkeypatch.setattr(analysis, "_ancilla_distances", counted)
    tds = analysis.sweep(grid)
    assert len(chunks) == calls
    assert max(chunks) <= analysis._SWEEP_CHUNK_POINTS and sum(chunks) == len(rows)
    assert tds.ravel().tolist() == [r.trace_distance for r in rows]
    assert "".join(analysis.sweep_table(grid, tds)) == sweep_table(rows)


def benchmark_shaped_grid(seed: int) -> SweepGrid:
    """2 theta' x 5 alpha^2 x 10 theta values at d = 8, the shape and the
    ranges of the benchmark's sweep grid."""
    rng = np.random.default_rng(seed)
    return SweepGrid(tuple(rng.uniform(0.0, 2 * np.pi, 2).tolist()),
                     tuple(rng.uniform(0.0, 1.0, 5).tolist()),
                     tuple(rng.uniform(0.0, 2 * np.pi, 10).tolist()), 8)


@pytest.mark.parametrize("grid", [
    pytest.param(DEFAULT_GRID, id="default-grid"),
    pytest.param(config_grid("qgwz.json"), id="qgwz-config"),
    pytest.param(benchmark_shaped_grid(50), id="benchmark-shaped"),
])
def test_sweep_has_the_bits_of_the_entangler_kernel(grid):
    # On the pinned grids the block kernel computes every trace distance
    # with the bits of the whole-E kernel it replaced.
    fields = spec_arrays(grid_specs(grid))
    thetas = np.tile(grid.theta_values, (len(fields[0]), 1))
    want = entangler_distances(fields[0], fields[1], build_entanglers(*fields), thetas)
    assert analysis.sweep(grid).tobytes() == want.tobytes()


def test_sweep_table_does_not_depend_on_the_ancilla_dimension():
    base = random_grid(60, 2, (4, 3, 9))
    grids = [SweepGrid(base.theta_prime_values, base.alpha_sq_values, base.theta_values, dim)
             for dim in (2, 4, 8)]
    tables = ["".join(analysis.sweep_table(grid, analysis.sweep(grid))) for grid in grids]
    assert tables[0].count("\n") == 4 * 3 * 9 + 1
    assert tables[1] == tables[0] and tables[2] == tables[0]
