"""The scalar gate layer, kept as a reference for the tests.

Every command of qsslab runs on the row kernels of ``qsslab.quantum``,
``qsslab.attack`` and ``qsslab.analysis``. The functions below are the
earlier one-``State``-at-a-time path, kept verbatim: controlled gates,
partial trace, trace distance, equality up to a global phase, the
controlled-controlled-(-i*sigma_y) gate of the attack, the product
splitter, and the joint-state distance of an attacker who keeps the photon.
The tests check the engine against them.

``eigvalsh_distances`` is the earlier trace-distance kernel of
``qsslab.analysis``, kept verbatim with its ``_encoded_rows`` and
``_trace_distances``: E and E^-1 on the full (ancilla, photon) rows, a
batched M M^dagger and ``eigvalsh``. ``entangler_distances`` is the closed
form on span(eps, eps_perp) that replaced it, kept verbatim but for its
name: it contracts the whole E with (eps, eps_perp) (x) I. The kernel on
E's 4 x 4 block that replaced that one is checked against both. ``counterfactual_joint_distance``
runs on the same ``_encoded_rows`` and ``_trace_distances``, with its specs
grouped by ancilla dimension as ``_per_ancilla_dim`` did inside
``qsslab.analysis``, so it computes the same bits as it did there.

``ket0``, ``tensor`` and ``overlap`` are the earlier one-``State`` helpers:
the zero state, the Kronecker product of two states, and their inner
product. The package builds and compares its rows as arrays.

``_complete_basis`` and ``_build_entangler`` are the earlier entangler
builder, one spec at a time by Gram-Schmidt, kept verbatim but for the
per-spec cache that sat on ``_build_entangler``; ``grid_specs`` is the
earlier spec list of a sweep grid. The closed-form stack of
``qsslab.attack.build_entanglers`` is checked against them. The package
writes one completion of E; the reference's "reversed" completion is the
second one that the tests compare it with: the two agree on the pinned
columns, E on |eps> (x) C^2, and differ off them.

``spec_arrays`` stacks the fields of specs of one ancilla dimension, and
``apply_photon_op`` applies one 2 x 2 operator to the photon of every row
as a matrix product: the earlier package helpers that the kernels above
were written on, kept verbatim.

Tests import this module as they import ``conftest``.
"""
from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from qsslab.analysis import _SUPPORT_ATOL, SweepGrid
from qsslab.attack import EntanglerSpec, build_entanglers
from qsslab.quantum import (
    ATOL_STATE,
    MINUS_I_SIGMA_Y,
    InvariantError,
    State,
    basis_state,
    check_unitary,
    rotation_operator,
)


def spec_arrays(specs) -> tuple[np.ndarray, ...]:
    """The fields of ``specs``, all of one ancilla dimension d, stacked:
    |eps> and |eps_perp> (S, d), alpha, beta and theta' (S,)."""
    return (
        np.stack([spec.epsilon.amps for spec in specs]),
        np.stack([spec.epsilon_perp.amps for spec in specs]),
        np.array([spec.alpha for spec in specs]),
        np.array([spec.beta for spec in specs]),
        np.array([spec.theta_prime for spec in specs]),
    )


def apply_photon_op(amps: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Apply one 2x2 operator, already checked unitary where it was built,
    to the photon (last qubit) of every row of ``amps``."""
    return (amps.reshape(-1, 2) @ op.T).reshape(amps.shape)


def ket0(num_qubits: int = 1) -> State:
    return basis_state(num_qubits, 0)


def tensor(a: State, b: State) -> State:
    return State((a.amps[:, None] * b.amps[None, :]).reshape(-1))


def overlap(a: State, b: State) -> complex:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


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


# ``analysis._ancilla_distances`` and ``eigvalsh_distances`` agree to
# rounding: about 1e-15, for trace distances up to 1.
EIGVALSH_TOL = 1e-12


def _encoded_rows(epsilon: np.ndarray, entanglers: np.ndarray, thetas: np.ndarray):
    """The joint (ancilla, photon) rows E(|eps> (x) U(theta)|0>) with message
    bit 0 and bit 1 encoded on the photon, shape (2, S, T, 2d), for S specs
    of one ancilla dimension given by their |eps> (S, d) and entanglers E
    (S, 2d, 2d), and their (S, T) angles."""
    chi = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    joint = (epsilon[:, None, :, None] * chi[:, :, None, :]).reshape(*thetas.shape, -1)
    # One matrix-vector product per row, as a batched matmul. The row form
    # ``joint @ E.T`` is one gemm whose results differ in the last bits, and
    # so would break the byte-pinned sweep tables and reports.
    bit0 = (entanglers[:, None] @ joint[..., None])[..., 0]
    return np.stack([bit0, apply_photon_op(bit0, MINUS_I_SIGMA_Y)])


def _trace_distances(rho: np.ndarray) -> np.ndarray:
    """Trace distance between the bit-0 and bit-1 density matrices, per angle.
    The difference is taken in place, in ``rho[0]``, to save a stack's copy."""
    diff = rho[0]
    diff -= rho[1]
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def eigvalsh_distances(epsilon: np.ndarray, entanglers: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The earlier ``analysis._ancilla_distances``: the trace distances (S, T)
    of ``indistinguishability`` for S specs given as in ``_encoded_rows``,
    by E^-1 on the full rows, a batched M M^dagger and ``eigvalsh``."""
    rows = _encoded_rows(epsilon, entanglers, thetas)
    # E^-1 in the same matrix-vector form. Read as a d x 2 (ancilla, photon)
    # matrix M, each row gives the ancilla's reduced state M M^dagger.
    inverses = entanglers.conj().swapaxes(-1, -2)[:, None]
    m = (inverses @ rows[..., None]).reshape(*rows.shape[:3], -1, 2)
    return _trace_distances(m @ m.conj().swapaxes(-1, -2))


def entangler_distances(
    epsilon: np.ndarray, epsilon_perp: np.ndarray, entanglers: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    """The earlier ``analysis._ancilla_distances``: the trace distances
    (S, T) of ``indistinguishability`` for S specs of one ancilla dimension
    d, given by their |eps> and |eps_perp> (S, d), entanglers E (S, 2d, 2d)
    and (S, T) angles.

    E maps span(eps, eps_perp) (x) C^2 into itself, so after E^-1 the ancilla
    is a 2 x 2 density matrix in the (eps, eps_perp) basis. Each E is
    contracted once: C = E((eps, eps_perp) (x) I), F = E(|eps> (x) I) its
    first two columns, and W_b = C^dagger (I (x) G_b) F for the encodings
    G_0 = I and G_1 = -i sigma_y. The photon (cos theta, sin theta) then
    leaves K_b = W_b (cos theta, sin theta), an (ancilla, photon) 2 x 2
    matrix, and rho_b = K_b K_b^dagger. The eigenvalues of the Hermitian
    2 x 2 X = rho_0 - rho_1 are tr X / 2 +- r, for
    r = sqrt(((x00 - x11) / 2)^2 + |x01|^2), so its trace distance is the
    larger of |tr X| / 2 and r.

    Only ``np.einsum`` without ``optimize`` and elementwise ops: no LAPACK
    and no BLAS product, so the bits do not follow the host's BLAS kernel.
    Raises ``InvariantError`` when a photon leaves more than
    ``_SUPPORT_ATOL`` of its weight outside span(eps, eps_perp) (x) C^2.
    """
    n_specs, d = epsilon.shape
    # (eps, eps_perp) (x) I, transposed: row (k, q) holds |k> (x) |q>. With
    # its zeros, the contraction runs along E's contiguous last axis, at
    # about twice the speed; the zero terms leave every sum as it was.
    frame = np.zeros((n_specs, 2, 2, d, 2), dtype=complex)
    frame[:, :, 0, :, 0] = frame[:, :, 1, :, 1] = np.stack([epsilon, epsilon_perp], axis=1)
    # c[s, y]: column y = (k, q) of C, as (ancilla a, photon p) amplitudes.
    c = np.einsum("syj,sxj->syx", frame.reshape(n_specs, 4, 2 * d), entanglers, optimize=False)
    # (I (x) -i sigma_y) F flips F's photon p and negates the new p = 0.
    f = c[:, :2].reshape(n_specs, 2, d, 2)
    encoded = np.stack([f, f[..., ::-1] * np.array([-1.0, 1.0])]).reshape(2, n_specs, 2, 2 * d)
    # w[b, s, q]: column q of W_b, its entries (ancilla k, photon r) as 2k + r.
    w = np.einsum("syx,bsqx->bsqy", c.conj(), encoded, optimize=False)
    # K_b as (real, imag) pairs: k[b, s, t] holds 4k + 2r + (0 or 1).
    w = w.view(float)
    k = (w[:, :, None, 0] * np.cos(thetas)[..., None]
         + w[:, :, None, 1] * np.sin(thetas)[..., None])
    diag = (k * k).reshape(*k.shape[:-1], 2, 4).sum(axis=-1)
    leak = np.max(1.0 - diag.sum(axis=-1), initial=0.0)
    if not leak <= _SUPPORT_ATOL:
        raise InvariantError(
            f"a photon leaves weight {leak:.3e} outside span(eps, eps_perp) (x) C^2 "
            f"after the inverse entangler, more than {_SUPPORT_ATOL}"
        )
    rows = k.view(complex)
    off = (rows[..., :2] * rows[..., 2:].conj()).sum(axis=-1)
    x00, x11 = diag[0, ..., 0] - diag[1, ..., 0], diag[0, ..., 1] - diag[1, ..., 1]
    x01 = off[0] - off[1]
    half = (x00 - x11) / 2
    r = np.sqrt(half * half + x01.real * x01.real + x01.imag * x01.imag)
    return np.maximum(np.abs(x00 + x11) / 2, r)


def _per_ancilla_dim(kernel, specs, thetas) -> np.ndarray:
    """``kernel(specs, thetas)`` evaluated on the specs of each ancilla
    dimension as one stack, gathered into one (S, T) array in spec order.

    ``thetas`` is one (T,) vector shared by every spec or one (S, T) row per
    spec."""
    specs = list(specs)
    thetas = np.asarray(thetas, dtype=float)
    thetas = np.broadcast_to(thetas, (len(specs), thetas.shape[-1]))
    dims = [spec.ancilla_dim for spec in specs]
    if len(set(dims)) == 1:
        # One dimension: the kernel's own result, its angles in the C order
        # a gather would give them (``np.cos`` of a strided array can differ
        # in the last bit).
        return kernel(specs, np.ascontiguousarray(thetas))
    out = np.empty(thetas.shape)
    for d in set(dims):
        idx = [i for i, dim in enumerate(dims) if dim == d]
        out[idx] = kernel([specs[i] for i in idx], thetas[idx])
    return out


def _joint_distances(specs: list[EntanglerSpec], thetas: np.ndarray) -> np.ndarray:
    rows = _encoded_rows(spec_arrays(specs)[0], build_entanglers(specs), thetas)
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
