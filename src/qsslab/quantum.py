"""Dense statevector engine for few-qubit simulations.

Conventions (fixed and tested):
- qubit index 0 is the most significant bit of the amplitude index,
  so a joint state is a plain Kronecker product (``np.kron``) and ``|10>``
  has index 2.
- rotations are real y-axis rotations ``U(t) = [[cos t, -sin t], [sin t, cos t]]``,
  which compose additively: ``U(a) @ U(b) = U(a + b)``.
- all angles are canonicalized to [0, 2*pi).

``State`` holds one checked state: an input, an ancilla basis vector, a
fixture. The engine itself is batched kernels that act on many photons at
once: an array of shape (..., D), such as (n_photons, D) or
(trials, n_photons, D), whose rows are joint states with the photon as the
last (least significant) qubit: D = 2 for a bare photon, and 4 under
attack, where a row holds the coordinates of the (ancilla, photon) state on
span(eps, eps_perp) (x) C^2 (``attack.EntanglingAdversary``).
Each operator is checked unitary once, where it is built: ``MINUS_I_SIGMA_Y``
at import, a batch of rotations in ``rotate_photons``, each spec's entangler
block in ``attack.EntanglerSpec`` (``attack.entangler_blocks``), which the
attack and the exact analysis read, and a stack of whole entanglers in
``attack.build_entanglers``. The run path applies no matrix product: the
rotations, the encoding (``protocol.encode_message``) and the attack's
block are written out as elementwise sums. The norm invariant is checked on
every ``State`` and row-wise on a batch (``check_norms``). A ``State`` has
no value identity: ``==`` is ``is``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# Tolerance of the stored invariants: norms and unitarity.
ATOL_STATE = 1e-10

MINUS_I_SIGMA_Y = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


class InvariantError(Exception):
    """A numerical invariant that should hold by construction was violated."""


def canonical_angles(thetas) -> np.ndarray:
    """Reduce angles elementwise to the canonical range [0, 2*pi)."""
    t = np.mod(thetas, TWO_PI)
    return np.where(t == TWO_PI, 0.0, t)


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi); bit for bit
    ``canonical_angles`` on one Python float, without a numpy call."""
    t = float(theta) % TWO_PI
    return 0.0 if t == TWO_PI else t


def rotation_operator(theta: float) -> np.ndarray:
    """Y-axis rotation by ``theta``; maps |0> to cos(theta)|0> + sin(theta)|1>."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = c
    out[0, 1] = -s
    out[1, 0] = s
    out[1, 1] = c
    return out


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_norm_sq(norm_sq: float) -> None:
    if not np.isfinite(norm_sq):
        raise InvariantError("non-finite amplitude")
    if abs(norm_sq - 1.0) > 2 * ATOL_STATE:
        raise InvariantError(
            f"state norm {np.sqrt(norm_sq)} deviates from 1 by more than {ATOL_STATE}"
        )


@dataclass(frozen=True, eq=False)
class State:
    """Normalized pure state over ``num_qubits`` qubits (MSB-first indexing)."""

    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 1 or not _is_power_of_two(amps.size):
            raise ValueError(f"amplitude vector length {amps.size} is not a power of 2")
        _check_norm_sq(float(np.vdot(amps, amps).real))
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def num_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amps.size


def basis_state(num_qubits: int, index: int) -> State:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return State(amps)


def check_unitary(op: np.ndarray) -> None:
    """Raise ``InvariantError`` unless ``op``, one operator or a stack of
    them (..., n, n), is unitary within ``ATOL_STATE``.

    Run once where an operator is built, never per application.
    """
    op = np.asarray(op)
    if op.ndim < 2 or op.shape[-1] != op.shape[-2]:
        raise ValueError(f"operator shape {op.shape} is not square")
    err = np.max(np.abs(op.conj().swapaxes(-1, -2) @ op - np.eye(op.shape[-1])), initial=0.0)
    if not err <= ATOL_STATE:
        raise InvariantError(f"operator is not unitary (max deviation {err:.3e})")


check_unitary(MINUS_I_SIGMA_Y)
MINUS_I_SIGMA_Y.flags.writeable = False


def apply_unitary(state: State, op: np.ndarray) -> State:
    """Apply ``op``, already checked unitary where it was built, to ``state``.

    A (dim, dim) ``op`` acts on the whole register, a (2, 2) ``op`` on its
    last qubit, the photon. No command calls it; it stays because
    qssbench/selftest.py checks that the benchmark's tracer patches it here
    and in the modules that import it.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape == (state.dim, state.dim):
        return State(op @ state.amps)
    if op.shape == (2, 2):
        return State((state.amps.reshape(-1, 2) @ op.T).reshape(-1))
    raise ValueError(
        f"operator shape {op.shape} acts neither on all {state.num_qubits} qubits "
        "nor on the last one"
    )


def rotate_photons(amps: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Rotate the photon (last qubit) of every row of ``amps`` (..., D) by the
    matching angle of ``thetas`` (...).

    One batched y-rotation kernel; the rotations are checked unitary once,
    as a batch, when they are built.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    # For U = [[c, -s], [s, c]], U^dagger U - I = (c^2 + s^2 - 1) I.
    err = np.max(np.abs(c * c + s * s - 1.0), initial=0.0)
    if not err <= ATOL_STATE:
        raise InvariantError(f"rotation is not unitary (max deviation {err:.3e})")
    rows = amps.reshape(*amps.shape[:-1], -1, 2)
    c, s = c[..., None], s[..., None]
    out = np.empty_like(rows)
    out[..., 0] = c * rows[..., 0] - s * rows[..., 1]
    out[..., 1] = s * rows[..., 0] + c * rows[..., 1]
    return out.reshape(amps.shape)


def check_norms(amps: np.ndarray) -> None:
    """The ``State`` norm invariant, checked on every row of a batch (..., D) at once."""
    rows = amps.reshape(-1, amps.shape[-1])
    # One pass over the real and imaginary parts of each row. The sum only
    # feeds the check, so its order is free.
    parts = np.ascontiguousarray(rows, dtype=complex).view(float)
    drift = np.abs(np.einsum("ij,ij->i", parts, parts) - 1.0)
    if len(drift) and not drift.max() <= 2 * ATOL_STATE:
        # argmax lands on the first NaN, if any, else on the worst drift.
        worst = rows[np.argmax(drift)]
        _check_norm_sq(float(np.vdot(worst, worst).real))


def sample_outcomes(probs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Born-rule outcome per row of ``probs`` (n, k) for uniforms ``r`` (n,).

    Picks the first outcome whose cumulative probability exceeds ``r``. When
    rounding leaves the total below ``r``, picks the last outcome with
    positive probability, never one that cannot occur.
    """
    # Column by column: the running sums are the bits of np.cumsum(probs, axis=1).
    cumulative = [probs[:, 0]]
    for j in range(1, probs.shape[1]):
        cumulative.append(cumulative[-1] + probs[:, j])
    outcomes = np.full(len(r), -1)
    for j in range(probs.shape[1] - 1, -1, -1):
        outcomes = np.where(r < cumulative[j], j, outcomes)
    missed = outcomes < 0
    if missed.any():
        possible = probs[missed] > 0
        outcomes[missed] = probs.shape[1] - 1 - np.argmax(possible[:, ::-1], axis=1)
    return outcomes


def measure_photons_z(amps: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z measurement of the photon (last qubit) of every row of ``amps``,
    with uniforms ``r``. Returns (outcomes, outcome probabilities); the
    collapsed rows are norm-checked and dropped."""
    m = amps.reshape(len(amps), -1, 2)
    # The weights of |0> and |1>, summed over the ancilla slices in order:
    # the bits of np.sum(np.abs(m) ** 2, axis=1).
    squares = np.abs(m) ** 2
    weights = squares[:, 0]
    for j in range(1, m.shape[1]):
        weights = weights + squares[:, j]
    outcomes = sample_outcomes(weights, r)
    p0 = weights[:, 0]
    zero = outcomes == 0
    probs = np.where(zero, p0, 1.0 - p0)
    kept = np.where(zero[:, None], m[:, :, 0], m[:, :, 1])
    check_norms(kept / np.sqrt(probs)[:, None])
    return outcomes, probs
