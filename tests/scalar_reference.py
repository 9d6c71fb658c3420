"""The scalar gate layer, kept as a reference for the tests.

Every command of qsslab runs on the row kernels of ``qsslab.quantum``,
``qsslab.attack`` and ``qsslab.analysis``. The functions below are the
earlier one-``State``-at-a-time path, kept verbatim: controlled gates,
partial trace, trace distance, equality up to a global phase, the
controlled-controlled-(-i*sigma_y) gate of the attack, the product
splitter, and the joint-state distance of an attacker who keeps the photon.
The tests check the engine against them. ``counterfactual_joint_distance``
runs on the engine's own ``_encoded_rows``, ``_per_ancilla_dim`` and
``_trace_distances``, so it computes the same bits as it did inside
``qsslab.analysis``.

``_complete_basis`` and ``_build_entangler`` are the earlier entangler
builder, one spec at a time by Gram-Schmidt, kept verbatim but for the
per-spec cache that sat on ``_build_entangler``; ``grid_specs`` is the
earlier spec list of a sweep grid. The closed-form stack of
``qsslab.attack.build_entanglers`` is checked against them.

Tests import this module as they import ``conftest``.
"""
from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from qsslab.analysis import SweepGrid, _encoded_rows, _per_ancilla_dim, _trace_distances
from qsslab.attack import EntanglerSpec, build_entanglers, spec_arrays
from qsslab.quantum import (
    ATOL_STATE,
    MINUS_I_SIGMA_Y,
    InvariantError,
    State,
    basis_state,
    check_unitary,
    overlap,
    rotation_operator,
)


def apply_controlled(state: State, controls: list[int], target: int, op: np.ndarray) -> State:
    """Apply a 2x2 ``op``, already unitary, to ``target`` on components where
    every control bit is 1."""
    n = state.num_qubits
    controls = list(controls)
    if not controls:
        raise ValueError("controls must be nonempty")
    indices = controls + [target]
    if len(set(indices)) != len(indices):
        raise ValueError(f"overlapping control/target indices: {indices}")
    if any(q < 0 or q >= n for q in indices):
        raise ValueError(f"qubit index out of range for {n} qubits: {indices}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"controlled op must be 2x2, got {op.shape}")

    idx = np.arange(2**n)
    active = np.ones(2**n, dtype=bool)
    for c in controls:
        active &= ((idx >> (n - 1 - c)) & 1) == 1
    tbit = 1 << (n - 1 - target)
    i0 = idx[active & ((idx & tbit) == 0)]
    i1 = i0 | tbit
    amps = state.amps.copy()
    a0, a1 = amps[i0], amps[i1]
    amps[i0] = op[0, 0] * a0 + op[0, 1] * a1
    amps[i1] = op[1, 0] * a0 + op[1, 1] * a1
    return State(amps)


def partial_trace(state: State, keep: list[int]) -> np.ndarray:
    """Reduced density matrix over ``keep`` (in the given order)."""
    n = state.num_qubits
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    if len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
        raise ValueError(f"invalid keep set for {n} qubits: {keep}")
    traced = [q for q in range(n) if q not in keep]
    t = state.amps.reshape([2] * n)
    rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    # Remaining axes follow the original qubit order; permute to the requested one.
    remaining = [q for q in range(n) if q in keep]
    order = [remaining.index(q) for q in keep]
    k = len(keep)
    rho = rho.transpose(order + [k + o for o in order])
    return rho.reshape(2**k, 2**k)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    eigs = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(eigs)))


def global_phase_equal(a: State, b: State, tol: float = ATOL_STATE) -> bool:
    """True iff the states agree up to an unobservable global phase."""
    return abs(overlap(a, b)) >= 1.0 - tol


def apply_ccy(joint: State) -> State:
    """Direct controlled-controlled-(-i*sigma_y): ancilla pair controls, photon target."""
    return apply_controlled(joint, controls=[0, 1], target=2, op=MINUS_I_SIGMA_Y)


def split_product(joint: State, ancilla_qubits: int) -> tuple[State, State]:
    """Factor a product state into (ancilla factor, photon factor).

    Raises ``InvariantError`` if the state carries residual entanglement.
    """
    n = joint.num_qubits
    mat = joint.amps.reshape(2**ancilla_qubits, 2 ** (n - ancilla_qubits))
    u, s, vh = np.linalg.svd(mat)
    if s[0] < 1.0 - 1e-8:
        raise InvariantError(f"state is not a product (leading Schmidt weight {s[0]})")
    return State(u[:, 0]), State(s[0] * vh[0, :])


def _joint_distances(specs: list[EntanglerSpec], thetas: np.ndarray) -> np.ndarray:
    fields = spec_arrays(specs)
    rows = _encoded_rows(fields[0], build_entanglers(*fields), thetas)
    return _trace_distances(rows[..., :, None] * rows.conj()[..., None, :])


def counterfactual_joint_distance(specs: Iterable[EntanglerSpec], thetas) -> np.ndarray:
    """Diagnostic: trace distance of the *joint* states when the attacker keeps
    the photon and skips the inverse entangler, shaped like
    ``indistinguishability``. Nonzero for generic theta, which shows the
    indistinguishability test is sensitive."""
    return _per_ancilla_dim(_joint_distances, specs, thetas)


def _complete_basis(seeds: list[np.ndarray], dim: int, reverse: bool = False) -> np.ndarray:
    """Extend orthonormal ``seeds`` to a full basis (columns) via Gram-Schmidt."""
    basis = [v.astype(complex) for v in seeds]
    candidates = range(dim - 1, -1, -1) if reverse else range(dim)
    for i in candidates:
        if len(basis) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for b in basis:
            v -= np.vdot(b, v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            basis.append(v / norm)
    if len(basis) != dim:
        raise InvariantError("failed to complete orthonormal basis")
    return np.column_stack(basis)


def _build_entangler(spec: EntanglerSpec, completion: str) -> np.ndarray:
    dim = 2 * spec.ancilla_dim
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    rot = rotation_operator(spec.theta_prime)
    sources = [np.kron(spec.epsilon.amps, e0), np.kron(spec.epsilon.amps, e1)]
    images = [
        spec.alpha * np.kron(spec.epsilon.amps, chi)
        + spec.beta * np.kron(spec.epsilon_perp.amps, rot @ chi)
        for chi in (e0, e1)
    ]
    src = _complete_basis(sources, dim, reverse=(completion == "reversed"))
    img = _complete_basis(images, dim, reverse=(completion == "reversed"))
    entangler = img @ src.conj().T
    check_unitary(entangler)
    entangler.flags.writeable = False
    return entangler


def grid_specs(grid: SweepGrid) -> list[EntanglerSpec]:
    """The entangler spec of each (theta', alpha^2) pair of ``grid``, alpha^2
    fastest: the rows of ``sweep(grid)``."""
    n_anc = (grid.ancilla_dim - 1).bit_length()
    epsilon, epsilon_perp = basis_state(n_anc, 0), basis_state(n_anc, 1)
    return [
        EntanglerSpec(
            epsilon=epsilon,
            epsilon_perp=epsilon_perp,
            alpha=math.sqrt(a2),
            beta=math.sqrt(1.0 - a2),
            theta_prime=tp,
        )
        for tp in grid.theta_prime_values
        for a2 in grid.alpha_sq_values
    ]
