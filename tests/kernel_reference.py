"""The row kernels of the engine before their whole-column rewrite, kept as a
reference for the tests.

``sample_outcomes``, ``measure_photons_z`` and ``check_norms`` are the
earlier ``qsslab.quantum`` kernels, and ``ReferenceAdversary`` holds the
earlier ``EntanglingAdversary`` hooks, all verbatim. They walk the short
amplitude axes with ``cumsum``, ``argmax``, ``take_along_axis``, broadcast
outer products and ``np.linalg.norm``. ``tests/test_kernel_reference.py``
checks the engine against them bit for bit.

Tests import this module as they import ``conftest``.
"""
from __future__ import annotations

import numpy as np

from qsslab.attack import EntanglingAdversary, _span_outcomes
from qsslab.quantum import ATOL_STATE, InvariantError, _check_norm_sq, canonical_angles


def check_norms(amps: np.ndarray) -> None:
    """The ``State`` norm invariant, checked on every row of a batch (..., D) at once."""
    rows = amps.reshape(-1, amps.shape[-1])
    drift = np.abs(np.sum(rows.real**2 + rows.imag**2, axis=1) - 1.0)
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
    hit = r[:, None] < np.cumsum(probs, axis=1)
    outcomes = np.argmax(hit, axis=1)
    missed = ~hit.any(axis=1)
    if missed.any():
        possible = probs[missed] > 0
        outcomes[missed] = probs.shape[1] - 1 - np.argmax(possible[:, ::-1], axis=1)
    return outcomes


def measure_photons_z(amps: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z measurement of the photon (last qubit) of every row of ``amps``,
    with uniforms ``r``. Returns (outcomes, outcome probabilities); the
    collapsed rows are norm-checked and dropped."""
    m = amps.reshape(len(amps), -1, 2)
    weights = np.sum(np.abs(m) ** 2, axis=1)
    outcomes = sample_outcomes(weights, r)
    p0 = weights[:, 0]
    probs = np.where(outcomes == 0, p0, 1.0 - p0)
    kept = np.take_along_axis(m, outcomes[:, None, None], axis=2)[:, :, 0]
    check_norms(kept / np.sqrt(probs)[:, None])
    return outcomes, probs


class ReferenceAdversary(EntanglingAdversary):
    """The entangling adversary with its earlier forward, announcement and
    return hooks; its norm checks run on the reference ``check_norms``."""

    def on_photon_forward(self, photon_ids: np.ndarray, amps: np.ndarray) -> np.ndarray:
        if amps.shape[-1] != 2:
            raise InvariantError("attack expects a bare single-photon state on the channel")
        self.final_outcomes = np.full(photon_ids.shape, -1)
        joint = self.spec.epsilon.amps[:, None] * amps[..., None, :]
        rows = joint.reshape(-1, 2 * self.spec.ancilla_dim)
        return (rows @ self.entangler.T).reshape(*amps.shape[:-1], -1)

    def on_check_announcement(
        self, photon_ids: np.ndarray, honest_angles: np.ndarray, amps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if not self.adaptive:
            return honest_angles, amps
        # photon[n, k]: the photon left in row n by <eps| (x) I (k = 0) and
        # by <eps_perp| (x) I (k = 1); its squared norm is the outcome's weight.
        photon = (amps.reshape(-1, amps.shape[-1]) @ self._joint_bras).reshape(-1, 2, 2)
        weights = photon.real**2 + photon.imag**2
        probs = weights[..., 0] + weights[..., 1]
        outcomes = _span_outcomes(
            probs,
            np.concatenate([rng.random(amps.shape[1]) for rng in self.rngs]),
            "residual outcome outside span(eps, eps_perp) with probability",
        )
        rows = np.arange(len(photon))
        kept = photon[rows, outcomes] / np.sqrt(probs[rows, outcomes])[:, None]
        collapsed = (self._kets[outcomes][:, :, None] * kept[:, None, :]).reshape(amps.shape)
        check_norms(collapsed)
        shifted = canonical_angles(honest_angles + self.spec.theta_prime)
        announced = np.where(outcomes.reshape(honest_angles.shape) == 0, honest_angles, shifted)
        return announced, collapsed

    def on_photon_return(
        self, trials: np.ndarray, photon_ids: np.ndarray, amps: np.ndarray
    ) -> np.ndarray:
        d = self.spec.ancilla_dim
        rows = amps.reshape(-1, amps.shape[-1])
        separated = (rows @ self.entangler.conj()).reshape(len(rows), d, 2)
        # By the attack's construction E^-1 returns the ancilla to |eps>, so
        # <eps| (x) I splits the photon off; its norm is the Schmidt weight
        # on |eps>, and anything short of 1 is residual entanglement.
        photon = np.einsum("a,nab->nb", self.spec.epsilon.amps.conj(), separated)
        weight = np.sqrt(np.sum(np.abs(photon) ** 2, axis=1))
        if np.any(weight < 1.0 - 1e-8):
            raise InvariantError(
                f"state is not a product with |eps> (Schmidt weight {weight.min()})"
            )
        ancilla = np.einsum("nab,nb->na", separated, photon.conj())
        ancilla /= np.linalg.norm(ancilla, axis=1, keepdims=True)
        check_norms(photon)
        self._returned = (np.asarray(trials), np.asarray(photon_ids), ancilla)
        return photon.reshape(*amps.shape[:-1], 2)
