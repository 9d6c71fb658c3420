"""The row kernels of the engine before their whole-column rewrite, and the
adversary before it moved to span(eps, eps_perp) coordinates, kept as a
reference for the tests.

``sample_outcomes``, ``measure_photons_z`` and ``check_norms`` are the
earlier ``qsslab.quantum`` kernels, verbatim. They walk the short amplitude
axes with ``cumsum``, ``argmax``, ``take_along_axis`` and broadcast outer
products. ``tests/test_kernel_reference.py`` checks the engine against them
bit for bit.

``ReferenceAdversary`` is the earlier ``EntanglingAdversary``: it builds the
whole (2d, 2d) entangler E, carries 2d-wide (ancilla, photon) rows and
applies E, E^-1 and the bras (<eps|, <eps_perp|) as matrix products. It
shares no code with the package's adversary but ``_span_outcomes``, and E
can be injected, so that campaigns can run on a reference-built E.

Tests import this module as they import ``conftest``.
"""
from __future__ import annotations

import numpy as np

from qsslab.attack import DEFAULT_GUESS_RULE, _span_outcomes, build_entangler
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


class ReferenceAdversary:
    """The entangling adversary on the whole E and 2d-wide rows, with the
    hooks of ``EntanglingAdversary`` before it moved to span coordinates;
    its norm checks run on the reference ``check_norms``. ``entangler``
    replaces ``build_entangler(spec)``."""

    def __init__(self, spec, rngs, rule=DEFAULT_GUESS_RULE, adaptive=True, entangler=None):
        self.spec = spec
        self.rngs = list(rngs)
        self.rule = rule
        self.adaptive = adaptive
        self.entangler = build_entangler(spec) if entangler is None else entangler
        # ``_kets`` holds |eps> and |eps_perp> as rows, ``_bras`` their
        # conjugates as the columns of a (d, 2) matrix, and ``_joint_bras``
        # = _bras (x) I, written as its two nonzero strided blocks.
        self._kets = np.stack([spec.epsilon.amps, spec.epsilon_perp.amps])
        self._bras = self._kets.T.conj()
        self._joint_bras = np.zeros((2 * spec.ancilla_dim, 4), dtype=complex)
        self._joint_bras[0::2, 0::2] = self._bras
        self._joint_bras[1::2, 1::2] = self._bras
        self.final_outcomes = None
        self._returned = None

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

    def on_finish(self) -> np.ndarray:
        if self._returned is not None:
            trials, photon_ids, ancillas = self._returned
            overlaps = ancillas @ self._bras
            outcomes = _span_outcomes(
                overlaps.real**2 + overlaps.imag**2,
                np.concatenate([self.rngs[t].random(photon_ids.shape[1]) for t in trials]),
                "final ancilla outcome outside span(eps, eps_perp), probability",
            )
            self.final_outcomes[trials[:, None], photon_ids] = outcomes.reshape(photon_ids.shape)
        return np.where(self.final_outcomes < 0, -1, self.rule(self.final_outcomes))


def on_ancilla(spec, coords: np.ndarray) -> np.ndarray:
    """Coordinates (..., 2) on (|eps>, |eps_perp>) as ancilla vectors (..., d)."""
    return coords[..., 0, None] * spec.epsilon.amps + coords[..., 1, None] * spec.epsilon_perp.amps


def embed(spec, rows: np.ndarray) -> np.ndarray:
    """Rows (..., 4) of span coordinates (k, p), at index 2k + p, as rows
    (..., 2d) of the whole ancilla and photon, at index 2a + p."""
    coords = rows.reshape(*rows.shape[:-1], 2, 2).swapaxes(-1, -2)
    return on_ancilla(spec, coords).swapaxes(-1, -2).reshape(*rows.shape[:-1], -1)
