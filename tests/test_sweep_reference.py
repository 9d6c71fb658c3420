"""The stacked sweep against the per-spec reference sweep.

``analysis.sweep`` evaluates a grid in chunks of stacked specs, one
``_ancilla_distances`` call per chunk, and ``analysis.sweep_table``
formats the whole table in one ``%`` operation. Their trace distances must
equal, and their tables match byte for byte, those of the reference below:
the earlier per-spec path, one kernel call per (theta', alpha^2) spec and one
f-string per table line, kept here verbatim with its own kernel.
"""
import json
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from qsslab import analysis
from qsslab.analysis import SweepGrid, helstrom_bound
from qsslab.attack import EntanglerSpec, build_entangler
from qsslab.cli import DEFAULT_GRID
from qsslab.quantum import MINUS_I_SIGMA_Y, apply_photon_op, basis_state

ROOT = pathlib.Path(__file__).resolve().parents[1]


# -- the reference: the per-spec sweep, verbatim --------------------------


def _encoded_rows(spec: EntanglerSpec, thetas):
    """The entangler E, and the joint (ancilla, photon) rows E(|eps> (x) U(theta)|0>)
    with message bit 0 and bit 1 encoded on the photon, shape (2, len(thetas), 2d)."""
    entangler = build_entangler(spec)
    thetas = np.asarray(thetas, dtype=float)
    chi = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    joint = (spec.epsilon.amps[None, :, None] * chi[:, None, :]).reshape(len(chi), -1)
    # One matrix-vector product per row, as a batched matmul. The row form
    # ``joint @ E.T`` is one gemm whose results differ in the last bits, and
    # so would break the byte-pinned sweep tables and reports.
    bit0 = (entangler @ joint[..., None])[..., 0]
    return entangler, np.stack([bit0, apply_photon_op(bit0, MINUS_I_SIGMA_Y)])


def _trace_distances(rho: np.ndarray) -> np.ndarray:
    """Trace distance between the bit-0 and bit-1 density matrices, per angle."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho[0] - rho[1])), axis=1)


def indistinguishability(spec: EntanglerSpec, thetas) -> np.ndarray:
    """Trace distance between the attacker's post-inverse ancilla states
    conditioned on message bit 0 vs 1, computed exactly at each photon angle
    in ``thetas``; ``helstrom_bound`` of it is the best guessing probability."""
    entangler, rows = _encoded_rows(spec, thetas)
    # E^-1 in the same matrix-vector form. Read as a d x 2 (ancilla, photon)
    # matrix M, each row gives the ancilla's reduced state M M^dagger.
    m = (entangler.conj().T @ rows[..., None]).reshape(*rows.shape[:2], -1, 2)
    return _trace_distances(m @ m.conj().swapaxes(-1, -2))


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
    assert analysis.sweep_table(grid, tds) == sweep_table(rows)


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

    def counted(epsilon, entanglers, thetas):
        out = kernel(epsilon, entanglers, thetas)
        chunks.append(out.size)
        return out

    if chunk_points is not None:
        monkeypatch.setattr(analysis, "_SWEEP_CHUNK_POINTS", chunk_points)
    monkeypatch.setattr(analysis, "_ancilla_distances", counted)
    tds = analysis.sweep(grid)
    assert len(chunks) == calls
    assert max(chunks) <= analysis._SWEEP_CHUNK_POINTS and sum(chunks) == len(rows)
    assert tds.ravel().tolist() == [r.trace_distance for r in rows]
    assert analysis.sweep_table(grid, tds) == sweep_table(rows)
