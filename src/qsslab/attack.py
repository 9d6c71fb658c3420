"""Generalized entangling participant attack and its controlled-gate special case.

The dishonest agent prepares an ancilla in |eps>, entangles it with each
transiting photon via a unitary E acting as

    E(|eps> (x) |chi>) = alpha |eps>|chi> + beta |eps_perp> U(theta') |chi>

for every single-qubit |chi>, adaptively announces either its committed angle
theta_c or theta_c + theta' depending on an ancilla measurement (escaping the
first detection), applies E^-1 when the photon returns, and measures the
ancilla to guess the encoded bit. The ancilla always comes back to |eps>
whatever the bit was, so every guess rule is uninformative.

The controlled-controlled -i*sigma_y special attack is ``qgwz_spec``; its
circuit, ``cli.CCY_CIRCUIT``, is what criteria 3 and 7 of ``qsslab verify`` run.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .protocol import ConfigError, as_integer
from .quantum import (
    ATOL_STATE,
    InvariantError,
    State,
    # Not called in this module; kept importable because qssbench/selftest.py
    # checks that the benchmark's tracer patches it here.
    apply_unitary,  # noqa: F401
    basis_state,
    canonical_angle,
    canonical_angles,
    check_norms,
    check_unitary,
    sample_outcomes,
)

# Largest ancilla dimension d of an attack or a sweep. An attacked photon's
# row holds 2d amplitudes (protocol.MAX_RUN_SIZE counts on at most 16), and
# a stack of S entanglers holds S (2d)^2 of them.
MAX_ANCILLA_DIM = 8

# Angle by which the receiver's message-encoding rotation shifts the photon:
# encoding with -i*sigma_y sends angle theta to theta - 3*pi/2.
ENCODING_SHIFT = -3 * np.pi / 2


@dataclass(frozen=True, eq=False)
class EntanglerSpec:
    """Parameters (d, |eps>, |eps_perp>, alpha, beta, theta') of the entangler."""

    epsilon: State
    epsilon_perp: State
    alpha: complex
    beta: complex
    theta_prime: float

    def __post_init__(self):
        # Each check is written so that a NaN fails it.
        for name, kind in (("epsilon", State), ("epsilon_perp", State), ("alpha", numbers.Complex),
                           ("beta", numbers.Complex), ("theta_prime", numbers.Real)):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise InvariantError(f"{name} must be of type {kind.__name__}, got {value!r}")
        if not math.isfinite(self.theta_prime):
            raise InvariantError(f"theta_prime must be finite, got {self.theta_prime}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "theta_prime", canonical_angle(self.theta_prime))
        dim = self.epsilon.dim
        if dim != self.epsilon_perp.dim:
            raise InvariantError(
                f"ancilla dimension mismatch: {dim} vs {self.epsilon_perp.dim}"
            )
        if dim < 2:
            raise InvariantError("ancilla dimension must be >= 2")
        if dim > MAX_ANCILLA_DIM:
            raise InvariantError(
                f"ancilla dimension {dim} exceeds MAX_ANCILLA_DIM = {MAX_ANCILLA_DIM}"
            )
        # a * a rather than a ** 2: a float power raises OverflowError on huge input.
        a, b = abs(self.alpha), abs(self.beta)
        eta = a * a + b * b - 1.0
        if not abs(eta) <= ATOL_STATE:
            raise InvariantError("|alpha|^2 + |beta|^2 must equal 1")
        # E^dagger E - I = W (eta I + (B - I)^dagger D (B - I)) W^dagger for
        # W = (|eps>, |eps_perp>) (x) I, D = W^dagger W - I and B the block of
        # ``entangler_blocks``, with ||B - I|| <= 2: so E passes its unitarity
        # check when |eta| + 4 ||D|| <= ATOL_STATE, which asks more of the
        # pair than each State alone meets.
        pair = (self.epsilon.amps, self.epsilon_perp.amps)
        gram = np.array([[np.vdot(u, v) for v in pair] for u in pair]) - np.eye(2)
        bound = abs(eta) + 4 * float(np.linalg.norm(gram))
        if not bound <= ATOL_STATE:
            raise InvariantError(
                f"|eps> and |eps_perp> must be orthonormal: with alpha and beta they leave "
                f"the entangler up to {bound:.3e} from unitary, more than {ATOL_STATE}"
            )

    @property
    def ancilla_dim(self) -> int:
        return self.epsilon.dim


class GuessRule:
    """Maps final ancilla outcomes (eps vs eps_perp) to bit guesses; each bit
    is an integer 0 or 1, checked when the rule is built (``ConfigError``)."""

    def __init__(self, eps_bit: int = 0, eps_perp_bit: int = 1):
        self.eps_bit = as_integer(eps_bit, "eps_bit")
        self.eps_perp_bit = as_integer(eps_perp_bit, "eps_perp_bit")
        if self.eps_bit not in (0, 1) or self.eps_perp_bit not in (0, 1):
            raise ConfigError("guess rule bits must be 0 or 1")

    def __call__(self, outcomes) -> np.ndarray:
        """The guess for each outcome (0 for eps) of ``outcomes``, elementwise."""
        return np.where(np.asarray(outcomes) == 0, self.eps_bit, self.eps_perp_bit)

    def __repr__(self):
        return f"GuessRule(eps_bit={self.eps_bit}, eps_perp_bit={self.eps_perp_bit})"


DEFAULT_GUESS_RULE = GuessRule()


def spec_arrays(specs) -> tuple[np.ndarray, ...]:
    """The fields of ``specs``, all of one ancilla dimension d, stacked as the
    arrays that ``build_entanglers`` takes: |eps> and |eps_perp> (S, d),
    alpha, beta and theta' (S,)."""
    return (
        np.stack([spec.epsilon.amps for spec in specs]),
        np.stack([spec.epsilon_perp.amps for spec in specs]),
        np.array([spec.alpha for spec in specs]),
        np.array([spec.beta for spec in specs]),
        np.array([spec.theta_prime for spec in specs]),
    )


def _block_entries(alpha, beta, theta_prime) -> np.ndarray:
    """The blocks of ``entangler_blocks``, not yet checked unitary."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    c, s = np.cos(theta_prime), np.sin(theta_prime)
    turned, back_turned = s * beta, s * beta.conj()
    blocks = np.zeros((len(alpha), 4, 4), dtype=complex)
    blocks[:, 0, 0] = blocks[:, 1, 1] = alpha
    blocks[:, 2, 0] = blocks[:, 3, 1] = c * beta
    blocks[:, 3, 0], blocks[:, 2, 1] = turned, -turned
    blocks[:, 2, 2] = blocks[:, 3, 3] = alpha.conj()
    blocks[:, 0, 2] = blocks[:, 1, 3] = -(c * beta.conj())
    blocks[:, 1, 2], blocks[:, 0, 3] = back_turned, -back_turned
    return blocks


def entangler_blocks(alpha, beta, theta_prime) -> np.ndarray:
    """The blocks B (S, 4, 4) of S entanglers on span(eps, eps_perp) (x) C^2,
    from their alpha, beta and canonical theta' (S,): E V = V B for
    V = (|eps>, |eps_perp>) (x) I and E of the "forward" completion. Rows
    and columns are (k, p) as 2k + p, for k = 0 on |eps>, k = 1 on
    |eps_perp> and p the photon.

    B is [[alpha I, -conj(beta) U^T], [beta U, conj(alpha) I]] for
    U = U(theta'). Each entry is at most one elementwise product, so a block
    has the same bits in any stack; the stack is checked unitary once.
    """
    blocks = _block_entries(alpha, beta, theta_prime)
    check_unitary(blocks)
    return blocks


def build_entanglers(
    epsilon, epsilon_perp, alpha, beta, theta_prime, completion: str = "forward"
) -> np.ndarray:
    """The entanglers E of S specs, shape (S, 2d, 2d), from their stacked
    fields (``spec_arrays``): |eps> and |eps_perp> (S, d), alpha, beta and
    canonical theta' (S,).

    E is pinned only on |eps> (x) C^2, where it maps |eps>|chi> to
    alpha |eps>|chi> + beta |eps_perp> U(theta')|chi>. In closed form, E is
    the block B of ``entangler_blocks`` on span(eps, eps_perp) (x) C^2 and
    the identity on the rest of the ancilla; its coefficients are read from
    that block. ``completion`` picks how E acts off |eps> (x) C^2,
    so that observational invariance across completions can be tested:
    "forward" is that form, and "reversed" is it times sigma_x on the photon
    of every input orthogonal to |eps> (x) C^2. Each entry is a few
    elementwise products and sums, so an operator has the same bits in any
    stack; the stack is checked unitary once.
    """
    if completion not in ("forward", "reversed"):
        raise ValueError(f"unknown completion {completion!r}")
    eps = np.asarray(epsilon, dtype=complex)
    perp = np.asarray(epsilon_perp, dtype=complex)
    # Columns (S, 1) of the block: B[0, 0] = alpha, B[2, 0] = c beta,
    # B[3, 0] = s beta, B[2, 2] = conj(alpha), B[0, 2] = -c conj(beta) and
    # B[1, 2] = s conj(beta), for c, s = cos theta', sin theta'.
    blocks = _block_entries(alpha, beta, theta_prime)[..., None]
    d = eps.shape[1]

    def outer(u, v):
        """|u><v| of each spec, (S, d, d)."""
        return u[:, :, None] * v.conj()[:, None, :]

    # E's ancilla blocks (S, d, d) for photon out p, in q. Inputs on |eps> see
    # ``kept`` where p = q and -+``turned`` where p != q; the other inputs
    # see ``back`` where p = q and +-``back_turned`` where p != q.
    kept = outer(blocks[:, 0, 0] * eps + blocks[:, 2, 0] * perp, eps)
    turned = outer(blocks[:, 3, 0] * perp, eps)
    back = (np.eye(d) - outer(eps, eps) - outer(perp, perp)
            + outer(blocks[:, 2, 2] * perp + blocks[:, 0, 2] * eps, perp))
    back_turned = outer(blocks[:, 1, 2] * eps, perp)
    e = np.empty((len(eps), d, 2, d, 2), dtype=complex)
    if completion == "forward":
        e[:, :, 0, :, 0] = e[:, :, 1, :, 1] = kept + back
        e[:, :, 1, :, 0] = turned + back_turned
        e[:, :, 0, :, 1] = -e[:, :, 1, :, 0]
    else:
        # The inputs off |eps> (x) C^2 with their photon flipped.
        e[:, :, 0, :, 0] = kept - back_turned
        e[:, :, 1, :, 1] = kept + back_turned
        e[:, :, 1, :, 0] = turned + back
        e[:, :, 0, :, 1] = back - turned
    entanglers = e.reshape(len(eps), 2 * d, 2 * d)
    check_unitary(entanglers)
    return entanglers


def build_entangler(spec: EntanglerSpec, completion: str = "forward") -> np.ndarray:
    """Unitary E on ancilla (x) photon realizing the attack on |eps> (x) C^2:
    ``build_entanglers`` on a stack of one."""
    return build_entanglers(*spec_arrays([spec]), completion)[0]


def qgwz_spec(ancilla_state: State) -> EntanglerSpec:
    """Entangler parameters for the controlled-controlled-(-i*sigma_y) attack.

    The prepared two-qubit ancilla splits as alpha|eps> + beta|11> with |eps>
    the normalized non-|11> component; the gate rotates the photon by
    theta' = -3*pi/2 exactly on the |11> branch.
    """
    if ancilla_state.num_qubits != 2:
        raise InvariantError("qgwz ancilla must be a 2-qubit state")
    amps = ancilla_state.amps
    beta = complex(amps[3])
    rest = amps.copy()
    rest[3] = 0.0
    alpha = float(np.linalg.norm(rest))
    if alpha > ATOL_STATE:
        epsilon = State(rest / alpha)
    else:
        # Degenerate pure-|11> ancilla: any state orthogonal to |11> works.
        alpha = 0.0
        epsilon = basis_state(2, 0)
    return EntanglerSpec(
        epsilon=epsilon,
        epsilon_perp=basis_state(2, 3),
        alpha=alpha,
        beta=beta,
        theta_prime=ENCODING_SHIFT,
    )


def _span_outcomes(probs: np.ndarray, r: np.ndarray, refusal: str) -> np.ndarray:
    """Born outcome per row of ``probs`` (n, 2), the weights on |eps> and
    |eps_perp>, for uniforms ``r`` (n,): 0 for eps, 1 for eps_perp.

    What is left, 1 - p_eps - p_eps_perp, is the residual outcome outside
    span(eps, eps_perp); drawing it raises ``InvariantError`` with
    ``refusal`` and its probability.
    """
    rest = 1.0 - probs[:, 0] - probs[:, 1]
    outcomes = sample_outcomes(np.column_stack([probs, rest]), r)
    residual = np.flatnonzero(outcomes == 2)
    if residual.size:
        raise InvariantError(f"{refusal} {rest[residual[0]]}")
    return outcomes


def _outer_column(scale, photons: np.ndarray, out: np.ndarray) -> None:
    """``out`` (n, 2) = ``scale`` times ``photons`` (n, 2), where ``scale`` is
    one amplitude or a column (n, 1). Each product runs down a whole column
    of n rows rather than row by row along the 2-long photon axis."""
    np.multiply(scale, photons, out=out, order="F")


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each row of ``terms`` (n, k), k <= MAX_ANCILLA_DIM, added
    column by column in numpy's order for a last-axis sum: one after another
    for k < 8, in pairs of pairs for k = 8. So it has the bits of
    ``np.sum(terms, axis=1)``."""
    cols = list(terms.T)
    if len(cols) == 8:
        pairs = [cols[i] + cols[i + 1] for i in range(0, 8, 2)]
        return (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    total = cols[0]
    for col in cols[1:]:
        total = total + col
    return total


class EntanglingAdversary:
    """Adversary hook running the entangling attack inside a batch of
    protocol runs, with one generator per run in ``rngs``.

    Hooks take the batch's trial axis (see ``protocol.NullAdversary``); each
    trial draws from its own generator, in trial order. ``adaptive=False``
    gives the naive control variant that always announces its honest angle
    without measuring the ancilla (and so gets caught at the per-photon rate
    |beta|^2 sin^2(theta')).
    """

    def __init__(
        self,
        spec: EntanglerSpec,
        rngs: list[np.random.Generator],
        rule: GuessRule = DEFAULT_GUESS_RULE,
        adaptive: bool = True,
    ):
        self.spec = spec
        self.rngs = list(rngs)
        self.rule = rule
        self.adaptive = adaptive
        self.entangler = build_entangler(spec)
        # Both measurements contract the ancilla with <eps| and <eps_perp|:
        # ``_kets`` holds the two states as rows, ``_bras`` their conjugates
        # as the columns of a (d, 2) matrix, and ``_joint_bras`` = _bras (x) I,
        # written as its two nonzero strided blocks, applies them to the
        # (ancilla, photon) rows in one matrix product.
        self._kets = np.stack([spec.epsilon.amps, spec.epsilon_perp.amps])
        self._bras = self._kets.T.conj()
        self._joint_bras = np.zeros((2 * spec.ancilla_dim, 4), dtype=complex)
        self._joint_bras[0::2, 0::2] = self._bras
        self._joint_bras[1::2, 1::2] = self._bras
        # Final ancilla outcome per (trial, photon): 0 for eps, 1 for eps_perp,
        # -1 where no ancilla was measured. Sized by the forward hook.
        self.final_outcomes: np.ndarray | None = None
        # Ancilla factors split off returning photons: (trials, photon ids, rows).
        self._returned: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def on_photon_forward(self, photon_ids: np.ndarray, amps: np.ndarray) -> np.ndarray:
        if amps.shape[-1] != 2:
            raise InvariantError("attack expects a bare single-photon state on the channel")
        self.final_outcomes = np.full(photon_ids.shape, -1)
        photons = amps.reshape(-1, 2)
        # The output is allocated before the temporary |eps> (x) photon
        # rows, so that the temporary, freed first, goes back to the top of
        # the heap instead of leaving a hole below the output.
        out = np.empty((len(photons), 2 * self.spec.ancilla_dim), dtype=complex)
        joint = np.empty((len(photons), self.spec.ancilla_dim, 2), dtype=complex)
        for a, eps_a in enumerate(self.spec.epsilon.amps):
            _outer_column(eps_a, photons, joint[:, a])
        np.matmul(joint.reshape(len(photons), -1), self.entangler.T, out=out)
        return out.reshape(*amps.shape[:-1], -1)

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
        eps_side = outcomes == 0
        p = np.where(eps_side, probs[:, 0], probs[:, 1])
        kept = np.where(eps_side[:, None], photon[:, 0], photon[:, 1]) / np.sqrt(p)[:, None]
        kets = self._kets[outcomes]
        collapsed = np.empty((len(kept), self.spec.ancilla_dim, 2), dtype=complex)
        for a in range(self.spec.ancilla_dim):
            _outer_column(kets[:, a, None], kept, collapsed[:, a])
        collapsed = collapsed.reshape(amps.shape)
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
        squares = np.abs(photon) ** 2
        weight = np.sqrt(squares[:, 0] + squares[:, 1])
        if np.any(weight < 1.0 - 1e-8):
            raise InvariantError(
                f"state is not a product with |eps> (Schmidt weight {weight.min()})"
            )
        ancilla = np.einsum("nab,nb->na", separated, photon.conj())
        ancilla /= np.sqrt(_row_sums((ancilla.conj() * ancilla).real))[:, None]
        check_norms(photon)
        self._returned = (np.asarray(trials), np.asarray(photon_ids), ancilla)
        return photon.reshape(*amps.shape[:-1], 2)

    def on_finish(self) -> np.ndarray:
        """Measure the kept ancillas; the bit guess per (trial, photon), -1
        for a photon whose ancilla was not measured: every check photon, and
        every photon of a trial whose photons never returned."""
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


def random_entangler_spec(rng: np.random.Generator, ancilla_dim: int | None = None) -> EntanglerSpec:
    """Random attack parameters: orthonormal ancilla pair, random weights and angle."""
    d = int(ancilla_dim) if ancilla_dim is not None else int(rng.choice([2, 4, 8]))
    eps = rng.normal(size=d) + 1j * rng.normal(size=d)
    eps /= np.linalg.norm(eps)
    perp = rng.normal(size=d) + 1j * rng.normal(size=d)
    perp -= np.vdot(eps, perp) * eps
    perp /= np.linalg.norm(perp)
    mix = rng.uniform(0.0, np.pi / 2)
    alpha = np.cos(mix) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    beta = np.sin(mix) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return EntanglerSpec(
        epsilon=State(eps),
        epsilon_perp=State(perp),
        alpha=alpha,
        beta=beta,
        theta_prime=float(rng.uniform(0.0, 2 * np.pi)),
    )

